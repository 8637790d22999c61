"""Tests of the compare tool's verdicts and its result-set reader.

    python3 -m unittest discover -s perfbench/tests
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import compare  # noqa: E402

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


class VerdictTest(unittest.TestCase):
    def test_unchanged(self):
        v, _ = compare.verdict(BASE, [x + 0.5 for x in BASE], "lower", 0.05)
        self.assertEqual(v, "unchanged")

    def test_regressed_beyond_bound(self):
        v, f = compare.verdict(BASE, [x * 1.2 for x in BASE], "lower", 0.1)
        self.assertEqual(v, "regressed")
        self.assertAlmostEqual(f["worse_share"], 0.2, places=2)

    def test_worse_within_bound_is_unchanged(self):
        v, _ = compare.verdict(BASE, [x * 1.03 for x in BASE], "lower", 0.1)
        self.assertEqual(v, "unchanged")

    def test_improved_needs_nine_in_ten_wins_and_more_than_spread(self):
        faster = [x * 0.8 for x in BASE]
        self.assertEqual(compare.verdict(BASE, faster, "lower", 0.1)[0], "improved")
        # Eight wins in ten pairs is not enough.
        mixed = faster[:8] + [x * 1.01 for x in BASE[8:]]
        self.assertNotEqual(compare.verdict(BASE, mixed, "lower", 0.1)[0], "improved")

    def test_higher_is_better(self):
        self.assertEqual(compare.verdict(BASE, [x * 1.3 for x in BASE], "higher", 0.1)[0],
                         "improved")
        self.assertEqual(compare.verdict(BASE, [x * 0.7 for x in BASE], "higher", 0.1)[0],
                         "regressed")

    def test_ties_count_for_neither(self):
        v, f = compare.verdict(BASE, list(BASE), "lower", 0.1)
        self.assertEqual(f["wins"], 0)
        self.assertEqual(v, "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0]
        self.assertEqual(compare.verdict(BASE, noisy, "lower", 0.1)[0], "unresolved")

    def test_wide_spread_but_every_run_better_is_not_unresolved(self):
        base = [100.0, 140.0, 110.0, 130.0, 120.0]
        change = [90.0, 95.0, 80.0, 85.0, 99.0]
        v, _ = compare.verdict(base, change, "lower", 0.05)
        self.assertIn(v, ("improved", "unchanged"))


    def test_no_gain_when_more_operations_fail(self):
        faster = [x * 0.8 for x in BASE]
        v, _ = compare.verdict(BASE, faster, "lower", 0.1, gain_counts=False)
        self.assertEqual(v, "unchanged")


def write_set(directory, workload, runs):
    """Writes one .out file per (p50_ms, correct, failed) run, 100 attempted."""
    for seed, (value, correct, failed) in enumerate(runs, 1):
        with open(os.path.join(directory, f"{workload}-{seed}.out"), "w") as f:
            f.write("# fingerprint\n")
            f.write(json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                                "metrics": {"p50_ms": {"value": value,
                                                       "unit": "ms"}}}) + "\n")


class LoadSetTest(unittest.TestCase):
    def test_reads_last_line_per_workload(self):
        with tempfile.TemporaryDirectory() as d:
            write_set(d, "live_writes", [(2.0, True, 0), (3.0, False, 5)])
            runs = compare.load_set(d)
        self.assertEqual(runs, {"live_writes": [
            {"tag": "1", "metrics": {"p50_ms": 2.0}, "correct": True, "failed_frac": 0.0},
            {"tag": "2", "metrics": {"p50_ms": 3.0}, "correct": False,
             "failed_frac": 0.05}]})

    def test_pairs_by_tag(self):
        def run(tag):
            return {"tag": tag, "metrics": {}, "correct": True, "failed_frac": 0.0}
        base = [run("1"), run("2"), run("3")]
        change = [run("1"), run("3")]  # run 2 was skipped on this side
        a, b = compare.paired(base, change)
        self.assertEqual([r["tag"] for r in a], ["1", "3"])
        self.assertEqual([r["tag"] for r in b], ["1", "3"])


class FailuresTest(unittest.TestCase):
    """A change that fails more operations is regressed, and its faster
    latencies do not count as a gain."""

    def compare(self, base_runs, change_runs):
        with tempfile.TemporaryDirectory() as d:
            os.makedirs(os.path.join(d, "base"))
            os.makedirs(os.path.join(d, "change"))
            write_set(os.path.join(d, "base"), "sentences", base_runs)
            write_set(os.path.join(d, "change"), "sentences", change_runs)
            bench = os.path.join(d, "bench.json")
            with open(bench, "w") as f:
                json.dump({"workloads": [{"name": "sentences", "why": "-"}],
                           "end_to_end": [{"name": "p50_ms", "unit": "ms",
                                           "better": "lower", "bound": 0.1}]}, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = compare.main([os.path.join(d, "base"), os.path.join(d, "change"),
                                     "--benchmark", bench])
        rows = {line.split()[1]: line.split()[-1] for line in out.getvalue().splitlines()[1:]}
        return code, rows

    def test_more_failures_is_regressed_and_not_improved(self):
        base = [(x, True, 0) for x in BASE]
        shed = [(x * 0.5, True, 10) for x in BASE]
        code, rows = self.compare(base, shed)
        self.assertEqual(code, 1)
        self.assertEqual(rows["failed_frac"], "regressed")
        self.assertEqual(rows["p50_ms"], "unchanged")

    def test_wrong_replies_is_regressed(self):
        base = [(x, True, 0) for x in BASE]
        wrong = [(x * 0.5, i != 3, 0) for i, x in enumerate(BASE)]
        code, rows = self.compare(base, wrong)
        self.assertEqual(code, 1)
        self.assertEqual(rows["failed_frac"], "regressed")
        self.assertNotEqual(rows["p50_ms"], "improved")

    def test_same_failures_keeps_the_gain(self):
        base = [(x, True, 0) for x in BASE]
        code, rows = self.compare(base, [(x * 0.5, True, 0) for x in BASE])
        self.assertEqual(code, 0)
        self.assertEqual(rows["failed_frac"], "unchanged")
        self.assertEqual(rows["p50_ms"], "improved")


if __name__ == "__main__":
    unittest.main()
