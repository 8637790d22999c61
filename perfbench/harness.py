"""Child processes, the server under test, and judged load phases.

Every child process the benchmark starts is tracked here and stopped (and
waited for) before a run ends.
"""
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time

import stats


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


CHILDREN = []


def run_cmd(args, log_path=None, timeout=170, ok_codes=(0,)):
    """Runs a command to completion; returns (stdout, seconds)."""
    start = time.monotonic()
    with open(log_path or os.devnull, "w") as err:
        proc = spawn(args, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        finally:
            stop_process(proc)
    seconds = time.monotonic() - start
    if proc.returncode not in ok_codes:
        tail = open(log_path).read()[-2000:] if log_path else ""
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}\n{tail}")
    return out, seconds


def child_env():
    env = dict(os.environ)
    # Thread counts are the programs' defaults, whatever the caller's shell.
    env.pop("BOOTLEG_THREADS", None)
    return env


def spawn(args, **kwargs):
    """Starts a tracked child in its own process group, so stopping it also
    stops whatever it started (the build's compiler jobs, for one)."""
    proc = subprocess.Popen(args, env=child_env(), start_new_session=True, **kwargs)
    CHILDREN.append(proc)
    return proc


def signal_group(proc, signum):
    try:
        os.killpg(proc.pid, signum)
    except ProcessLookupError:
        pass


def stop_process(proc, grace=10.0):
    """Stops a child and everything in its process group, and waits."""
    if proc.poll() is None:
        signal_group(proc, signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            signal_group(proc, signal.SIGKILL)
            proc.wait()
    signal_group(proc, signal.SIGKILL)  # stragglers the leader left behind
    if proc in CHILDREN:
        CHILDREN.remove(proc)


def stop_all():
    for proc in list(CHILDREN):
        stop_process(proc)


def request(port, line, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 20)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode())


class Server:
    """bootleg_serve as a child process, launched with deployment flags only."""

    def __init__(self, bins, dep, log_path, traced=False):
        args = [bins["serve"], "--data", dep["data"], "--model", dep["model"],
                "--port", "0"]
        if dep.get("store"):
            args += ["--store_dir", dep["store"]]
        if dep.get("budget_mb"):
            args += ["--resident_budget_mb", str(dep["budget_mb"])]
        if not traced:
            args.append("--no_trace")
        self.log_path = log_path
        self.log = open(log_path, "w")
        self.proc = spawn(args, stdout=subprocess.DEVNULL, stderr=self.log)
        self.port = None
        deadline = time.monotonic() + 120
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("bootleg_serve did not start:\n" +
                                 open(log_path).read()[-2000:])
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", open(log_path).read())
            if m:
                self.port = int(m.group(1))
            else:
                time.sleep(0.005)
        while True:
            try:
                if request(self.port, '{"op":"health"}').get("status") == "serving":
                    break
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise BenchError("bootleg_serve never reported healthy")
            time.sleep(0.005)

    def proc_stats(self):
        """CPU seconds, peak RSS (MB) and involuntary context switches."""
        pid = self.proc.pid
        fields = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        cpu_s = (int(fields[11]) + int(fields[12])) / ticks
        hwm_kb = 0
        for line in open(f"/proc/{pid}/status"):
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
        invol = 0
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                for line in open(f"/proc/{pid}/task/{tid}/status"):
                    if line.startswith("nonvoluntary_ctxt_switches:"):
                        invol += int(line.split()[1])
            except OSError:
                pass
        return {"cpu_s": cpu_s, "rss_mb": hwm_kb / 1024.0, "invol": invol}

    def stop(self):
        stop_process(self.proc)
        self.log.close()


class Phase:
    """One open-loop load phase's raw samples, judged."""

    def __init__(self, path):
        d = json.load(open(path))
        self.rate = d["rate"]
        self.seconds = d["seconds"]
        self.wall_s = d["wall_s"]
        self.codes = d["codes"]
        self.records = d["records"]

    def ops(self, kinds="ran"):
        return [r for r in self.records if r[0] in kinds]

    def latencies_ms(self, kinds="ran"):
        return [r[3] / 1000.0 for r in self.ops(kinds) if r[4] == 0]

    def failed(self, kinds="ran"):
        return sum(1 for r in self.ops(kinds) if r[4] != 0)

    def wrong(self):
        return sum(1 for r in self.records if r[4] == 2)

    def late_ms(self):
        """How late the generator sent each request. Reads of an added
        entity are held for the add's reply on purpose and are left out."""
        return [r[2] / 1000.0 for r in self.records if r[2] >= 0 and r[0] != "n"]

    def backlog_grows(self):
        """True when the last quarter's latencies run far above the first's."""
        ops = sorted(self.ops(), key=lambda r: r[1])
        q = len(ops) // 4
        if q < 5:
            return False
        first = statistics.median([r[3] for r in ops[:q] if r[3] >= 0] or [0])
        last = statistics.median([r[3] for r in ops[-q:] if r[3] >= 0] or [1e12])
        return last > 2 * first + 2000

    def tail_ms(self):
        """The highest supported tail percentile (at most p99) of the
        step's latencies, a failed or refused request counting as an
        infinite latency: it misses any limit."""
        lat = [r[3] / 1000.0 if r[4] == 0 else float("inf") for r in self.ops()]
        level = stats.tail_level(len(lat))
        if level is None:
            return float("inf")
        return stats.percentile(lat, min(level, 99.0))

    def meets(self, limit_ms):
        """The step meets the limit: tail within it, and no growing backlog."""
        return self.tail_ms() <= limit_ms and not self.backlog_grows()
