#!/usr/bin/env python3
"""Compares two result sets of the benchmark against BENCHMARK.json bounds.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

A result set is a directory of run.py outputs named `<workload>-<tag>.out`
(the stdout of one run; its last line is the result). Runs of the two sets
are paired by tag, so name them by seed, run the same seeds on both sides and
alternate which side runs first; a run without a partner is left out (when
the sides share no tag, runs are paired in file-name order). For every (metric, workload) row it prints one verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the base's own
              spread (the distance between its quartiles);
  regressed   the change's median is worse than the base's by more than the
              metric's bound (a share of the base median);
  unresolved  either side's spread (quartile distance over median) is wider
              than the bound, and not every change run beats every base run;
  unchanged   otherwise.

A gain does not count when more operations fail: each workload also gets a
`failed_frac` row (failed / attempted, median over runs), regressed when the
change has a run whose replies were not all correct while the base had none,
or when its median failed_frac is above the base's. On such a workload no
metric row is reported improved.

Exits 1 when any row regressed, 2 on bad input, else 0.
"""
import argparse
import json
import os
import statistics
import sys


def load_set(directory):
    """{workload: [run, ...]} in file-name order, where a run is
    {"tag": str, "metrics": {name: value}, "correct": bool,
    "failed_frac": float}.
    Runs the benchmark marked invalid (its load generator ran late) are
    skipped."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out") or "-" not in name:
            continue
        lines = open(os.path.join(directory, name)).read().strip().splitlines()
        if not lines or "# valid: False" in lines:
            print(f"compare: skipping {name}: no result or marked invalid",
                  file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        workload = name[:-len(".out")].rsplit("-", 1)[0]
        runs.setdefault(workload, []).append({
            "tag": name[:-len(".out")].rsplit("-", 1)[1],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": bool(result["correct"]),
            "failed_frac": result["failed"] / result["attempted"],
        })
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def paired(base_runs, change_runs):
    """The two sides' runs restricted to the tags both have, in the same
    order, so a run skipped on one side does not shift every later pair."""
    common = {r["tag"] for r in base_runs} & {r["tag"] for r in change_runs}
    if not common:
        return base_runs, change_runs
    by_tag = {r["tag"]: r for r in change_runs}
    base_runs = [r for r in base_runs if r["tag"] in common]
    return base_runs, [by_tag[r["tag"]] for r in base_runs]


def outcomes_worse(base_runs, change_runs):
    """True when the change's runs failed more than the base's: a run with
    wrong replies where the base had none, or a higher median failed_frac."""
    if any(not r["correct"] for r in change_runs) and all(r["correct"] for r in base_runs):
        return True
    return (statistics.median(r["failed_frac"] for r in change_runs) >
            statistics.median(r["failed_frac"] for r in base_runs))


def verdict(base, change, better, bound, gain_counts=True):
    """The row's verdict and its figures. `base` and `change` are lists of a
    metric's values; `better` is "lower" or "higher"; `bound` a share.
    With `gain_counts` false (more operations failed), never "improved"."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(a, b):  # positive when b is better than a
        return sign * (b - a)

    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(change)
    spread_a = (q3a - q1a) / abs(ma) if ma else float("inf")
    spread_b = (q3b - q1b) / abs(mb) if mb else float("inf")
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    worse_share = -gain(ma, mb) / abs(ma) if ma else float("inf")
    every_better = min(sign * b for b in change) > max(sign * a for a in base)
    figures = {"base": ma, "change": mb, "spread_base": spread_a,
               "spread_change": spread_b, "wins": wins, "pairs": len(pairs),
               "worse_share": worse_share}
    if gain_counts and pairs and wins >= 0.9 * len(pairs) and gain(ma, mb) > (q3a - q1a):
        return "improved", figures
    if max(spread_a, spread_b) > bound and not every_better:
        return "unresolved", figures
    if worse_share > bound:
        return "regressed", figures
    return "unchanged", figures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    try:
        bench = json.load(open(args.benchmark))
        base, change = load_set(args.base), load_set(args.change)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    regressed = False
    print(f"{'workload':12s} {'metric':16s} {'base':>11s} {'change':>11s} "
          f"{'worse':>7s} {'spread':>13s} {'wins':>6s}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        base_runs, change_runs = paired(base.get(name, []), change.get(name, []))
        worse = bool(base_runs and change_runs) and outcomes_worse(base_runs, change_runs)
        if base_runs and change_runs:
            fa = statistics.median(r["failed_frac"] for r in base_runs)
            fb = statistics.median(r["failed_frac"] for r in change_runs)
            v = "regressed" if worse else "unchanged"
            regressed |= worse
            print(f"{name:12s} {'failed_frac':16s} {fa:11.5g} {fb:11.5g} "
                  f"{'':7s} {'':13s} {'':6s}  {v}")
        for m in bench["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in base_runs if m["name"] in r["metrics"]]
            b = [r["metrics"][m["name"]] for r in change_runs if m["name"] in r["metrics"]]
            if not a or not b:
                print(f"{name:12s} {m['name']:16s} {'-':>11s} {'-':>11s} "
                      f"{'':7s} {'':13s} {'':6s}  missing")
                continue
            v, f = verdict(a, b, m["better"], m["bound"], gain_counts=not worse)
            regressed |= v == "regressed"
            print(f"{name:12s} {m['name']:16s} {f['base']:11.5g} {f['change']:11.5g} "
                  f"{100 * f['worse_share']:6.1f}% "
                  f"{100 * f['spread_base']:5.1f}%/{100 * f['spread_change']:5.1f}% "
                  f"{f['wins']:2d}/{f['pairs']:<3d}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
