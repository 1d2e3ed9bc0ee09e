"""Tests for the benchmark's own arithmetic (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_of_100_samples_keeps_ten_beyond(self):
        q, v = stats.reportable_percentile(range(1, 101), 0.90)
        self.assertEqual((q, v), (0.90, 90))
        self.assertEqual(sum(1 for x in range(1, 101) if x > v), 10)

    def test_too_few_samples_fall_back_to_highest_rank_with_ten_beyond(self):
        samples = list(range(1, 51))  # p90 would leave only 5 beyond
        q, v = stats.reportable_percentile(samples, 0.90)
        self.assertEqual(v, 40)
        self.assertEqual(q, 0.80)
        self.assertEqual(sum(1 for x in samples if x > v), 10)

    def test_order_does_not_matter(self):
        samples = [5, 3, 9, 1, 7] * 40
        self.assertEqual(stats.reportable_percentile(samples, 0.5),
                         stats.reportable_percentile(sorted(samples), 0.5))

    def test_ten_or_fewer_samples_have_no_percentile(self):
        with self.assertRaises(ValueError):
            stats.reportable_percentile(range(10), 0.5)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        # parent [0, 100); children [10, 30) and [20, 50) overlap -> union 40;
        # child [90, 120) is clipped to the parent -> 10 more.
        spans = [
            (1, -1, "p", 0, 100),
            (2, 1, "a", 10, 30),
            (3, 1, "b", 20, 50),
            (4, 1, "c", 90, 120),
            (5, 2, "g", 12, 14),  # grandchild: counts against "a" only
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20 - 2)
        self.assertEqual(selfs[5], 2)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([(7, -1, "x", 3, 11)]), {7: 8})

    def test_aggregate_by_name(self):
        spans = [(1, -1, "req", 0, 10), (2, 1, "io", 2, 6),
                 (3, -1, "req", 20, 24), (4, 3, "io", 21, 22)]
        agg = stats.self_time_by_name(spans)
        self.assertEqual(agg["req"], (2, 6 + 3))
        self.assertEqual(agg["io"], (2, 4 + 1))


class FailedShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failed_share(200, 0), 0.0)
        self.assertEqual(stats.failed_share(200, 5), 0.025)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (10, 11), (10, -1)):
            with self.assertRaises(ValueError):
                stats.failed_share(attempted, failed)


class SimTunedGain(unittest.TestCase):
    def test_geometric_mean_of_bandwidth_ratios(self):
        # tuned/native bandwidth = native/tuned makespan: 2.0 and 0.5 -> 1.0
        points = [(1024, 2, 1.0, 2.0), (4096, 2, 4.0, 2.0)]
        self.assertAlmostEqual(stats.sim_tuned_gain(points), 1.0)
        points = [(1024, 2, 1.0, 1.25), (4096, 2, 1.0, 1.44)]
        self.assertAlmostEqual(stats.sim_tuned_gain(points),
                               math.sqrt(1.25 * 1.44))

    def test_rejects_nonpositive(self):
        with self.assertRaises(ValueError):
            stats.geometric_mean([1.0, 0.0])


if __name__ == "__main__":
    unittest.main()
