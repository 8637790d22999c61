"""Percentiles from raw samples, and self time from spans.

The benchmark's own recorder: every latency is kept as a raw sample and
percentiles are read off the sorted samples by nearest rank, so no bucket
bound ever stands in for a measurement.
"""
import math

# Candidate tail percentiles, highest first.
TAIL_LEVELS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("percentile level must be in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def supported(n, p):
    """True when n samples leave at least MIN_BEYOND samples above p."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_level(n):
    """Highest percentile in TAIL_LEVELS that n samples support, or None."""
    for p in TAIL_LEVELS:
        if supported(n, p):
            return p
    return None


def summarize(samples):
    """Median, the highest supported tail percentile, and the sample count."""
    n = len(samples)
    out = {"n": n, "p50": percentile(samples, 50) if n else None}
    level = tail_level(n)
    out["tail_level"] = level
    out["tail"] = percentile(samples, level) if level is not None else None
    return out


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children. `spans` are dicts with id, parent, start, end.
    Returns {span id: self time}, in the spans' time unit."""
    children = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(s["id"], [])):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out
