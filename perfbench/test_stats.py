"""Run with: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import statistics
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_refuses_with_fewer_than_ten_beyond(self):
        # p95 of 199 samples has rank 190: only 9 samples lie beyond it
        self.assertIsNone(stats.percentile(list(range(199)), 95))

    def test_reports_with_ten_beyond(self):
        xs = list(range(1, 201))  # rank 190, ten samples beyond
        self.assertEqual(stats.percentile(xs, 95), 190)

    def test_median_needs_twenty_samples(self):
        self.assertIsNone(stats.percentile(list(range(19)), 50))
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)

    def test_order_does_not_matter(self):
        xs = list(range(1, 201))
        self.assertEqual(stats.percentile(xs[::-1], 95), 190)

    def test_rejects_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 50, 100)


class GeomeanTest(unittest.TestCase):
    def test_known_answer(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0, 16.0]), 4.0)

    def test_ratios_invert(self):
        r = [1.25, 2.0, 0.8]
        self.assertAlmostEqual(
            stats.geomean(r) * stats.geomean([1 / x for x in r]), 1.0
        )

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


class SpreadTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_matches_statistics_quantiles(self):
        xs = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 10.1, 9.7]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(
            stats.quartile_spread(xs), (q3 - q1) / statistics.median(xs)
        )

    def test_constant_runs_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([5.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
