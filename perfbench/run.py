#!/usr/bin/env python3
"""The repository's benchmark: builds bootleg_cli, bootleg_serve and the
probe from source, sets up a seeded deployment, drives it, checks every
reply, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload sentences --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. See perfbench/README.md for what each
workload and metric means.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402
import trace_run  # noqa: E402
from harness import (BenchError, Phase, Server, log, run_cmd,  # noqa: E402
                     stop_all)

BUILD_DIR = ".bench_build"
TARGETS = ("bootleg_cli", "bootleg_serve", "perfbench_probe")
# Set-ups per run (setup_s is their median; train_epoch_s, printed, too) and
# dev evaluations per run (eval_sps, printed, is their median).
SETUPS = 3
EVALS = 3
# Load at the reference rate before the measured windows, unmeasured: the
# server sits idle through the evaluations and the oracle, and its first
# requests after that run slower (on documents the first window's p50 read up
# to 20% above the rest).
WARMUP_S = 2.0
# A run is invalid when the generator sent the reference phase's requests
# later than this (p99 of send time minus scheduled time).
LATE_P99_BOUND_MS = 20.0

# Each workload: its world, its deployment and its traffic. `ref_rate` is
# the reference rate for p50_ms (well below the knee), measured in
# `windows` windows. The traced run's rate ladder (serve.max_rate_rps)
# searches from `ladder_start` in steps of `step_s` seconds for the highest
# rate whose tail latency stays within `limit_ms` (see Traffic.ladder).
WORKLOADS = {
    "sentences": dict(
        entities=4000, pages=2000, train=1500, dev=1000, requests=2000,
        store=False, budget_mb=0.0,
        ref_rate=500.0, windows=10, limit_ms=25.0, ladder_start=4500.0,
        step_s=1.0, adds_per_s=0.0),
    "documents": dict(
        entities=30000, pages=2000, train=1500, dev=1000, requests=200,
        store=True, budget_mb=1.0,
        ref_rate=30.0, windows=4, limit_ms=150.0, ladder_start=350.0,
        step_s=1.5, adds_per_s=0.0),
    "live_writes": dict(
        entities=4000, pages=2000, train=1500, dev=1000, requests=2000,
        store=True, budget_mb=0.0,
        ref_rate=500.0, windows=10, limit_ms=50.0, ladder_start=2000.0,
        step_s=1.0, adds_per_s=5.0),
}
LADDER_JUMP = 1.25
LADDER_RESOLUTION = 0.03
LADDER_TRIES = 3
LADDER_MAX_STEPS = 24

E2E_UNITS = {
    "setup_s": "s", "p50_ms": "ms", "server_rss_mb": "MB", "cpu_ms_per_req": "ms",
}


# --------------------------------------------------------------------------
# Build and fingerprint.

def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_cmd(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], log_path, timeout=600)
    run_cmd(["cmake", "--build", build_dir, "-j", jobs, "--target", *TARGETS],
            log_path, timeout=840)
    tools = os.path.join(build_dir, "bootleg", "tools")
    return {
        "cli": os.path.join(tools, "bootleg_cli"),
        "serve": os.path.join(tools, "bootleg_serve"),
        "probe": os.path.join(build_dir, "perfbench_probe"),
    }


def fingerprint(root, bins, workload, seed):
    cache = open(os.path.join(root, BUILD_DIR, "CMakeCache.txt")).read()

    def cache_value(key):
        m = re.search(rf"^{key}:\w+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    info = json.loads(run_cmd([bins["probe"], "info"])[0])
    flags = ""
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("flags"):
                flags = line.split(":", 1)[1].split()
                break
    except OSError:
        pass
    isa = [f for f in ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
                       "avx512_vnni", "amx_tile") if f in flags]
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, root).encode())
            digest.update(open(f, "rb").read())
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    fp = {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "isa": isa, "machine": platform.machine(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "sanitize": cache_value("BOOTLEG_SANITIZE"),
        "probe": info, "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "loadavg_before": os.getloadavg(),
    }
    if fp["build_type"] != "Release" or info["build_type"] != "Release":
        raise BenchError(f"refusing a {fp['build_type']!r} build; need Release")
    if fp["sanitize"] or info["sanitized"] or not info["optimized"]:
        raise BenchError("refusing a sanitized or unoptimized build")
    return fp


def set_up(bins, cfg, workload, seed, run_dir):
    """One full set-up: world, trained model, store export, live server.

    Returns the deployment, its server, and the timings of its parts."""
    os.makedirs(run_dir, exist_ok=True)
    data = os.path.join(run_dir, "data")
    model = os.path.join(run_dir, "model.bin")
    t0 = time.monotonic()
    gen_out, _ = run_cmd([bins["probe"], "gen", "--out", data, "--workload", workload,
                          "--seed", str(seed), "--entities", str(cfg["entities"]),
                          "--pages", str(cfg["pages"]), "--train", str(cfg["train"]),
                          "--dev", str(cfg["dev"]), "--requests", str(cfg["requests"])],
                         os.path.join(run_dir, "gen.log"))
    _, train_s = run_cmd([bins["cli"], "train", "--data", data, "--model", model,
                          "--epochs", "1"], os.path.join(run_dir, "train.log"))
    dep = {"data": data, "model": model, "budget_mb": cfg["budget_mb"],
           "world": json.loads(gen_out)}
    if cfg["store"]:
        # Live adds chain new generations beside the exported one, so the
        # export goes into the first generation directory of the store root.
        dep["store"] = os.path.join(run_dir, "store")
        run_cmd([bins["cli"], "export-store", "--data", data, "--model", model,
                 "--out", os.path.join(dep["store"], "gen_000001"), "--quant", "int8"],
                os.path.join(run_dir, "export.log"))
    server = Server(bins, dep, os.path.join(run_dir, "serve.log"))
    setup_s = time.monotonic() - t0
    return dep, server, {"setup_s": setup_s, "train_s": train_s}


def evaluate(bins, dep, run_dir):
    """bootleg_cli eval on dev: (dev sentences per second, dev F1)."""
    out, seconds = run_cmd([bins["cli"], "eval", "--data", dep["data"],
                            "--model", dep["model"], "--split", "dev"],
                           os.path.join(run_dir, "eval.log"))
    m = re.search(r"^all\s+([\d.]+)\s+(\d+)", out, re.M)
    if not m:
        raise BenchError("eval printed no overall F1:\n" + out[-1000:])
    return dep["world"]["dev"] / seconds, float(m.group(1))


class Traffic:
    """Load phases against one deployment, through perfbench_probe load."""

    def __init__(self, bins, cfg, dep, expected, run_dir, seed):
        self.bins, self.cfg, self.dep = bins, cfg, dep
        self.expected = expected
        self.run_dir = run_dir
        self.seed = seed
        self.adds = 0
        self.phases = 0

    def load(self, server, rate, seconds, health_every=0, replies=None):
        self.phases += 1
        out = os.path.join(self.run_dir, f"load{self.phases}.json")
        args = [self.bins["probe"], "load", "--port", str(server.port),
                "--requests", os.path.join(self.dep["data"], "requests.jsonl"),
                "--expected", self.expected, "--rate", str(rate),
                "--seconds", str(seconds),
                "--seed", str(self.seed * 1000 + self.phases),
                "--add_base", str(self.adds), "--out", out]
        if self.cfg["adds_per_s"]:
            args += ["--adds_per_s", str(self.cfg["adds_per_s"])]
        if health_every:
            args += ["--health_every", str(health_every)]
        if replies:
            args += ["--replies", replies]
        run_cmd(args, os.path.join(self.run_dir, f"load{self.phases}.log"),
                timeout=seconds + 60)
        phase = Phase(out)
        self.adds += sum(1 for r in phase.records if r[0] == "a")
        return phase

    def ladder(self, server, budget_s):
        """Highest rate whose tail latency meets the limit with no growing
        backlog. From ladder_start the rate climbs (or falls) by
        LADDER_JUMP until a passing and a missing rate bracket the knee, then
        geometric bisection narrows the bracket to LADDER_RESOLUTION. A rate
        passes if one of LADDER_TRIES steps at it meets the limit, so one
        stall of the host does not end the search."""
        cfg = self.cfg
        steps = []
        spent = 0.0

        def passes(rate):
            nonlocal spent
            for _ in range(LADDER_TRIES):
                phase = self.load(server, round(rate, 3), cfg["step_s"])
                spent += phase.wall_s
                ok = phase.meets(cfg["limit_ms"])
                steps.append((rate, ok, phase))
                if ok:
                    return True
            return False

        lo = hi = None
        rate = cfg["ladder_start"]
        while (lo is None or hi is None) and len(steps) < LADDER_MAX_STEPS:
            if passes(rate):
                lo = rate
                rate *= LADDER_JUMP
            else:
                hi = rate
                rate /= LADDER_JUMP
        while (lo is not None and hi is not None and hi / lo > 1 + LADDER_RESOLUTION
               and spent < budget_s and len(steps) < LADDER_MAX_STEPS):
            mid = (lo * hi) ** 0.5
            if passes(mid):
                lo = mid
            else:
                hi = mid
        return lo, steps


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def run(args, root):
    cfg = WORKLOADS[args.workload]
    bins = build(root)
    fp = fingerprint(root, bins, args.workload, args.seed)
    run_dir = os.path.join(root, BUILD_DIR, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    samples = {"setup_s": [], "train_epoch_s": [], "eval_sps": []}
    try:
        server = None
        setups = 1 if args.trace else SETUPS
        for i in range(setups):
            if server is not None:
                server.stop()
            dep, server, t = set_up(bins, cfg, args.workload, args.seed,
                                    os.path.join(run_dir, f"setup{i}"))
            samples["setup_s"].append(t["setup_s"])
            samples["train_epoch_s"].append(t["train_s"])
        for i in range(1 if args.trace else EVALS):
            sps, f1 = evaluate(bins, dep, run_dir)
            samples["eval_sps"].append(sps)
        expected = os.path.join(run_dir, "expected.txt")
        oracle_args = [bins["probe"], "oracle", "--data", dep["data"],
                       "--model", dep["model"], "--requests",
                       os.path.join(dep["data"], "requests.jsonl"), "--out", expected]
        if dep.get("store"):
            oracle_args += ["--store_dir", dep["store"],
                            "--resident_budget_mb", str(dep["budget_mb"])]
        # Exit 3: a one-sentence disambiguate_text reply differed from the
        # disambiguate reply for the same text.
        oracle_out, _ = run_cmd(oracle_args, os.path.join(run_dir, "oracle.log"),
                                ok_codes=(0, 3))
        mismatches = json.loads(oracle_out)["text_mismatches"]

        traffic = Traffic(bins, cfg, dep, expected, run_dir, args.seed)
        if args.trace:
            out = trace_run.run(traffic, server, dep, args, bins, run_dir,
                                os.path.join(root, BUILD_DIR, "spans"), root)
        else:
            out = measure(traffic, server, cfg, args, samples, f1)
        server.stop()
        out["correct"] = out["correct"] and mismatches == 0
        out["detail"]["oracle_text_mismatches"] = mismatches
        fp["loadavg_after"] = os.getloadavg()
        out["fingerprint"] = fp
        return out
    finally:
        stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(traffic, server, cfg, args, samples, f1):
    """The untraced run: the reference rate, in windows.

    A shared host steals CPU in bursts of seconds, so one pooled percentile
    would follow whichever burst the run met; p50_ms is instead the median
    of the windows' p50. Each window's tail (p99 when it holds 1000 requests,
    else the highest percentile with ten samples beyond it) is printed with
    its median, but not gated: it follows the host's stalls."""
    windows = cfg["windows"]
    warmup = traffic.load(server, cfg["ref_rate"], WARMUP_S)
    before = server.proc_stats()
    phases = [traffic.load(server, cfg["ref_rate"], args.seconds / windows)
              for _ in range(windows)]
    after = server.proc_stats()

    p50s, tails, levels = [], [], []
    for phase in phases:
        lat = phase.latencies_ms()
        level = stats.tail_level(len(lat))
        if level is None:
            raise BenchError(f"a window has {len(lat)} samples; too few for a tail")
        levels.append(min(level, 99.0))
        p50s.append(stats.percentile(lat, 50))
        tails.append(stats.percentile(lat, levels[-1]))
    attempted = sum(len(p.ops()) for p in phases)
    failed = sum(p.failed() for p in phases)
    late = stats.summarize([x for p in phases for x in p.late_ms()])
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]), len(samples["setup_s"])),
        "p50_ms": (statistics.median(p50s), attempted),
        "server_rss_mb": (after["rss_mb"], 1),
        "cpu_ms_per_req": (1000.0 * (after["cpu_s"] - before["cpu_s"]) /
                           max(attempted - failed, 1), attempted - failed),
    }
    wrong = sum(p.wrong() for p in phases + [warmup])
    valid = late["tail"] is not None and late["tail"] <= LATE_P99_BOUND_MS
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "correct": wrong == 0,
        "detail": {
            "wrong": wrong, "codes": [p.codes for p in phases if p.codes],
            "train_epoch_s (median)": round(statistics.median(samples["train_epoch_s"]), 3),
            "train_epoch_s": [round(x, 3) for x in samples["train_epoch_s"]],
            "dev_f1": f1, "eval_sps (median)": round(statistics.median(samples["eval_sps"]), 1),
            "eval_sps": [round(x, 1) for x in samples["eval_sps"]], "windows": windows,
            "tail_ms (median of windows)": round(statistics.median(tails), 3),
            "window p50_ms": [round(x, 3) for x in p50s],
            "window tail_ms": [round(x, 3) for x in tails],
            "window tail levels": levels,
            "client.late_ms.p99": late["tail"], "late_level": late["tail_level"],
            "late_bound_ms": LATE_P99_BOUND_MS, "valid": valid,
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "tools", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, need)):
            log(f"perfbench: {need} not found; run from the root of a checkout")
            return 2

    def on_signal(signum, _frame):
        raise BenchError(f"interrupted by signal {signum}")
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    try:
        out = run(args, root)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    for key, value in out["fingerprint"].items():
        print(f"# {key}: {value}")
    for key, value in out.get("detail", {}).items():
        if isinstance(value, dict):
            print(f"# {key}:")
            for k, v in value.items():
                print(f"#   {k}: {v}")
        else:
            print(f"# {key}: {value}")
    print(f"# {'metric':34s} {'value':>14s} {'unit':8s} {'n':>7s}")
    for name, (value, n) in out["metrics"].items():
        unit = E2E_UNITS.get(name) or out.get("units", {}).get(name, "")
        print(f"# {name:34s} {value:14.6g} {unit:8s} {int(n):7d}")
    metrics = {name: {"value": value,
                      "unit": E2E_UNITS.get(name) or out.get("units", {}).get(name, "")}
               for name, (value, _) in out["metrics"].items()}
    print(result_line(out["correct"], out["attempted"], out["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
