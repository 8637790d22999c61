"""The traced run (--trace 1): per-layer metrics from spans.

Two serving passes at the reference rate, first against the untraced server
the set-up launched, then against the same deployment relaunched with the
program's own trace spans on (the difference is obs.trace_overhead_pct).
Then the probe times calls into each layer in-process. Every span -- the
load generator's requests and health round trips, and the probe's calls --
is written to one JSONL file at the end; the metrics are computed from it.
"""
import json
import os
import statistics

import stats
from harness import Server, request, run_cmd

UNITS = {
    "net.rtt_us.p50": "us", "net.rtt_us.p99": "us", "net.disconnects": "count",
    "serve.json.parse_us": "us", "serve.json.dump_us": "us",
    "serve.batcher.queue_wait_us.p50": "us", "serve.batcher.queue_wait_us.p99": "us",
    "serve.batcher.batch_size.mean": "count", "serve.batcher.fill_ratio": "ratio",
    "serve.batcher.busy_frac": "ratio", "serve.batcher.rejected": "count",
    "serve.batcher.shed": "count", "serve.batcher.exclusive_us": "us",
    "serve.engine.batch_us.p50": "us", "serve.engine.batch_us.p99": "us",
    "serve.engine.us_per_sentence": "us", "serve.cache.hit_ratio": "ratio",
    "serve.cache.lookups": "count",
    "data.extract_us_per_doc": "us",
    "core.predict_batch_us.b1": "us", "core.predict_batch_us.b8": "us",
    "core.predict_batch_us.b64": "us", "core.predict_tape_us": "us",
    "core.loss_backward_us": "us", "core.train_step_us": "us",
    "infer.encode": "us", "infer.attention": "us", "infer.features": "us",
    "infer.score": "us",
    "nn.adam_step_us": "us", "tensor.matmul_us": "us", "tensor.matmul_gflops": "GFLOP/s",
    "tensor.matmul_us.train": "us", "tensor.matmul_gflops.train": "GFLOP/s",
    "store.gather_ns_per_row.p50": "ns", "store.gather_ns_per_row.p99": "ns",
    "store.resident_mb": "MB", "store.cold_faults": "count", "store.evictions": "count",
    "index.add_entity_us": "us", "index.generations": "count",
    "index.bytes_per_add": "B",
    "eval.us_per_sentence": "us", "util.pool.parallel_for_us": "us",
    "obs.trace_overhead_pct": "%", "proc.ctx_switches_invol": "count",
    "serve.unaccounted_pct": "%", "client.late_ms.p99": "ms",
    "serve.max_rate_rps": "1/s", "client.p99_ms": "ms",
}

OP_NAMES = {"r": "read", "a": "add", "n": "read_new"}
INFER_SPANS = ("infer.encode", "infer.attention", "infer.features", "infer.score")


def client_spans(phase, src):
    """Spans of one load phase, in microseconds from the phase start: a
    client.request per operation (scheduled send to reply) with its
    client.late child (scheduled to actual send), and net.health_rtt
    (actual send to reply) per health probe."""
    out = []
    for i, (kind, sched, late, lat, status) in enumerate(phase.records):
        if lat < 0 or late < 0 or status != 0:
            continue
        if kind == "h":
            out.append({"name": "net.health_rtt", "start": sched + late,
                        "end": sched + lat, "parent": None, "req": i})
            continue
        rid = f"{src}:{i}"
        out.append({"name": "client.request", "id": rid, "start": sched,
                    "end": sched + lat, "parent": None, "req": i,
                    "op": OP_NAMES.get(kind, kind)})
        out.append({"name": "client.late", "start": sched, "end": sched + late,
                    "parent": rid, "req": i})
    for n, s in enumerate(out):
        s.setdefault("id", f"{src}:s{n}")
        s["src"] = src
    return out


def probe_spans(path):
    out = []
    for line in open(path):
        s = json.loads(line)
        s["src"] = "probe"
        s["id"] = f"probe:{s['id']}"
        s["parent"] = None if s["parent"] < 0 else f"probe:{s['parent']}"
        out.append(s)
    return out


def run(traffic, server, dep, args, bins, run_dir, span_dir, root):
    cfg = traffic.cfg
    pass_s = max(2.0, args.seconds / 4.0)
    # Enough health probes that their tail percentile is supported.
    health_every = max(1, int(cfg["ref_rate"] * pass_s / 1000))

    replies = os.path.join(run_dir, "replies.jsonl")
    untraced = traffic.load(server, cfg["ref_rate"], pass_s, replies=replies)
    # The rate ladder runs here, on the untraced server, and is reported
    # without a bound: the host's CPU-steal bursts move the knee too much
    # from run to run for it to gate a change (see README.md).
    max_rate, ladder = traffic.ladder(server, args.seconds * 0.75)
    server.stop()
    traced_server = Server(bins, dep, os.path.join(run_dir, "serve-traced.log"),
                           traced=True)
    before = traced_server.proc_stats()
    traced = traffic.load(traced_server, cfg["ref_rate"], pass_s, health_every)
    after = traced_server.proc_stats()
    server_stats = request(traced_server.port, '{"op":"stats"}')
    traced_server.stop()

    trace_store = os.path.join(run_dir, "trace_store")
    run_cmd([bins["cli"], "export-store", "--data", dep["data"], "--model",
             dep["model"], "--out", os.path.join(trace_store, "gen_000001"),
             "--quant", "int8"],
            os.path.join(run_dir, "export-trace.log"))
    counts_path = os.path.join(run_dir, "trace_counts.json")
    probe_path = os.path.join(run_dir, "probe_spans.jsonl")
    probe_args = [bins["probe"], "trace", "--data", dep["data"], "--model", dep["model"],
                  "--store_dir", trace_store, "--deploy_store", "1" if cfg["store"] else "0",
                  "--requests", os.path.join(dep["data"], "requests.jsonl"),
                  "--replies", replies, "--rate", str(cfg["ref_rate"]), "--seconds", str(pass_s),
                  "--seed", str(args.seed), "--spans", probe_path, "--out", counts_path]
    if cfg["budget_mb"]:
        probe_args += ["--resident_budget_mb", str(cfg["budget_mb"])]
    run_cmd(probe_args, os.path.join(run_dir, "trace.log"))
    counts = json.load(open(counts_path))

    spans = (client_spans(untraced, "untraced") + client_spans(traced, "traced") +
             probe_spans(probe_path))
    os.makedirs(span_dir, exist_ok=True)
    span_file = os.path.join(span_dir, f"{args.workload}-seed{args.seed}.jsonl")
    with open(span_file, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")

    selfs = stats.self_times(spans)
    by_name = {}
    for s in spans:
        key = (s["src"] if s["name"].startswith("client.") else "", s["name"])
        by_name.setdefault(key, []).append(s)

    def self_us(name, src=""):
        return [selfs[s["id"]] for s in by_name.get((src, name), [])]

    def dur_us(name, src=""):
        return [s["end"] - s["start"] for s in by_name.get((src, name), [])]

    def work(name):
        return sum(s.get("work", 1) for s in by_name.get(("", name), []))

    def med(values):
        return (statistics.median(values), len(values))

    def tail(values):
        t = stats.summarize(values)
        return (t["tail"], t["n"])

    m = {}
    rtt = dur_us("net.health_rtt")
    m["net.rtt_us.p50"] = med(rtt)
    m["net.rtt_us.p99"] = tail(rtt)
    net = server_stats.get("net", {})
    m["net.disconnects"] = (sum(net.get(k, 0) for k in (
        "overlong_line_disconnects", "slow_client_disconnects", "idle_disconnects",
        "rejected_connections", "accept_errors")), 1)
    m["serve.json.parse_us"] = med(self_us("serve.json.parse"))
    m["serve.json.dump_us"] = med(self_us("serve.json.dump"))
    qwait = dur_us("serve.batcher.queue_wait")
    m["serve.batcher.queue_wait_us.p50"] = med(qwait)
    m["serve.batcher.queue_wait_us.p99"] = tail(qwait)
    batches = by_name[("", "serve.batcher.batch")]
    mean_batch = sum(s["work"] for s in batches) / len(batches)
    m["serve.batcher.batch_size.mean"] = (mean_batch, len(batches))
    m["serve.batcher.fill_ratio"] = (mean_batch / counts["serve.batcher.max_batch"], len(batches))
    busy = sum(dur_us("serve.batcher.batch")) / sum(dur_us("probe.batcher"))
    m["serve.batcher.busy_frac"] = (busy, len(batches))
    m["serve.batcher.rejected"] = (counts["serve.batcher.rejected"], work("probe.batcher"))
    m["serve.batcher.shed"] = (counts["serve.batcher.shed"], work("probe.batcher"))
    m["serve.batcher.exclusive_us"] = med(dur_us("serve.batcher.exclusive"))
    eng = dur_us("serve.engine.batch")
    m["serve.engine.batch_us.p50"] = med(eng)
    m["serve.engine.batch_us.p99"] = tail(eng)
    m["serve.engine.us_per_sentence"] = (sum(eng) / work("serve.engine.batch"),
                                         work("serve.engine.batch"))
    lookups = server_stats.get("cache_hits", 0) + server_stats.get("cache_misses", 0)
    m["serve.cache.hit_ratio"] = (server_stats.get("cache_hits", 0) / max(lookups, 1), lookups)
    m["serve.cache.lookups"] = (lookups, 1)
    m["data.extract_us_per_doc"] = med(self_us("data.extract"))
    for b in (1, 8, 64):
        m[f"core.predict_batch_us.b{b}"] = med(self_us(f"core.predict_batch.b{b}"))
    m["core.predict_tape_us"] = med(self_us("core.predict_tape"))
    m["core.loss_backward_us"] = med(self_us("core.loss_backward"))
    m["core.train_step_us"] = (sum(self_us("core.train")) / work("core.train"), work("core.train"))
    program = {s["span"]: s for s in server_stats.get("spans", [])}
    predicts = program.get("serve.predict", {}).get("count", 0)
    for name in INFER_SPANS:
        m[name] = (program.get(name, {}).get("total_us", 0) / max(predicts, 1), predicts)
    m["nn.adam_step_us"] = med(self_us("nn.adam_step"))
    for label, suffix in (("serve", ""), ("train", ".train")):
        us = statistics.median(self_us(f"tensor.matmul.{label}"))
        n = len(self_us(f"tensor.matmul.{label}"))
        m["tensor.matmul_us" + suffix] = (us, n)
        m["tensor.matmul_gflops" + suffix] = (
            counts[f"tensor.matmul_flops.{label}"] / (us * 1e3), n)
    per_row = [1000.0 * (s["end"] - s["start"]) / s["work"]
               for s in by_name[("", "store.gather")]]
    m["store.gather_ns_per_row.p50"] = med(per_row)
    m["store.gather_ns_per_row.p99"] = tail(per_row)
    served_store = server_stats.get("store")
    if served_store is not None:
        resident = served_store.get("resident_bytes", served_store.get("mapped_bytes", 0))
        m["store.resident_mb"] = (resident / (1024.0 * 1024.0), 1)
        m["store.cold_faults"] = (served_store.get("cold_faults", 0), 1)
        m["store.evictions"] = (served_store.get("evictions", 0), 1)
    else:
        for k in ("store.resident_mb", "store.cold_faults", "store.evictions"):
            m[k] = (counts[k], 1)
    m["index.add_entity_us"] = med(self_us("index.add_entity"))
    m["index.generations"] = (counts["index.generations"], counts["index.adds"])
    m["index.bytes_per_add"] = (counts["index.bytes_per_add"], counts["index.adds"])
    m["eval.us_per_sentence"] = (sum(self_us("eval.run")) / work("eval.run"), work("eval.run"))
    m["util.pool.parallel_for_us"] = med(self_us("util.pool.parallel_for"))

    e2e_untraced = dur_us("client.request", "untraced")
    e2e_traced = dur_us("client.request", "traced")
    p50_off = statistics.median(e2e_untraced)
    p50_on = statistics.median(e2e_traced)
    m["obs.trace_overhead_pct"] = (100.0 * (p50_on - p50_off) / p50_off, len(e2e_traced))
    m["proc.ctx_switches_invol"] = (after["invol"] - before["invol"], len(e2e_traced))
    accounted = (statistics.median(rtt) + statistics.median(qwait) +
                 statistics.median(dur_us("serve.batcher.batch")))
    m["serve.unaccounted_pct"] = (100.0 * (p50_off - accounted) / p50_off, len(e2e_untraced))
    late = stats.summarize(untraced.late_ms() + traced.late_ms())
    m["client.late_ms.p99"] = (late["tail"], late["n"])
    m["serve.max_rate_rps"] = (max_rate or 0.0, len(ladder))
    tail = stats.summarize(untraced.latencies_ms())
    m["client.p99_ms"] = (tail["tail"], tail["n"])

    summary = {}
    for (src, name), group in sorted(by_name.items()):
        s = [selfs[x["id"]] for x in group]
        summary[f"{src + '/' if src else ''}{name}"] = (
            len(s), round(sum(s), 1), round(statistics.median(s), 2))
    phases = (untraced, traced)
    return {
        "metrics": m, "units": UNITS,
        "attempted": sum(len(p.ops("ranh")) for p in phases),
        "failed": sum(p.failed("ranh") for p in phases),
        "correct": all(p.wrong() == 0 for p in phases),
        "detail": {"span_file": os.path.relpath(span_file, root),
                   "ladder (rate, met, tail ms)": [
                       (round(r, 1), ok, round(p.tail_ms(), 2)) for r, ok, p in ladder],
                   "spans": len(spans),
                   "self_time_us (count, total, p50)": summary,
                   "rtt_level": stats.summarize(rtt)["tail_level"]},
    }
