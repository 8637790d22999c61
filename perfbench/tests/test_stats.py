"""Tests of the benchmark's percentile and self-time arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 99), 99)
        self.assertEqual(stats.percentile(samples, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_values_are_samples_not_bucket_bounds(self):
        samples = [1.2345, 2.3456, 3.4567]
        self.assertIn(stats.percentile(samples, 50), samples)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)


class TailLevelTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertEqual(stats.tail_level(1000), 99.0)
        self.assertEqual(stats.tail_level(999), 98.0)
        self.assertEqual(stats.tail_level(10000), 99.9)
        self.assertEqual(stats.tail_level(2000), 99.5)
        self.assertEqual(stats.tail_level(200), 95.0)
        self.assertEqual(stats.tail_level(20), 50.0)
        self.assertIsNone(stats.tail_level(19))

    def test_summarize_reports_count_and_level(self):
        s = stats.summarize([float(i) for i in range(1, 1001)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500.0)
        self.assertEqual(s["tail_level"], 99.0)
        self.assertEqual(s["tail"], 990.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"id": "p", "parent": None, "start": 0, "end": 100},
            {"id": "a", "parent": "p", "start": 10, "end": 40},
            {"id": "b", "parent": "p", "start": 30, "end": 50},  # overlaps a
            {"id": "c", "parent": "p", "start": 90, "end": 120},  # runs past p
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs["p"], 100 - 40 - 10)
        self.assertEqual(selfs["a"], 30)
        self.assertEqual(selfs["c"], 30)

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(stats.self_times([{"id": 1, "parent": None, "start": 2,
                                            "end": 5}]), {1: 3})


if __name__ == "__main__":
    unittest.main()
