"""Self-tests of the benchmark's own checkers (no program code involved).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import os
import sys
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


class Definition4(unittest.TestCase):
    def test_exact_reconstruction_passes(self):
        x = np.array([1.0, -2.5, 0.0, 1e-300, 3e38])
        self.assertEqual(checks.definition4_violations(x, x, 0.1).size, 0)

    def test_flags_a_relative_violation(self):
        x = np.array([10.0, 10.0, 10.0])
        x_hat = np.array([11.0, 11.00001, 9.0])  # eps*|x| = 1.0
        self.assertEqual(
            checks.definition4_violations(x, x_hat, 0.1).tolist(), [1])

    def test_flags_any_error_at_an_exact_zero(self):
        x = np.array([0.0, 5.0, -0.0])
        x_hat = np.array([1e-300, 5.0, 0.0])
        self.assertEqual(
            checks.definition4_violations(x, x_hat, 0.8).tolist(), [0])

    def test_slack_is_float32_rounding_only(self):
        x = np.array([1.0])
        inside = np.array([1.0 + 0.1 + 2.0 ** -25])
        outside = np.array([1.0 + 0.1 + 2.0 ** -23])
        self.assertEqual(
            checks.definition4_violations(x, inside, 0.1).size, 0)
        self.assertEqual(
            checks.definition4_violations(x, outside, 0.1).size, 1)

    def test_nan_reconstruction_is_a_violation(self):
        self.assertEqual(checks.definition4_violations(
            np.array([1.0]), np.array([math.nan]), 0.5).tolist(), [0])


class StrictJson(unittest.TestCase):
    def test_rejects_nan_and_infinities(self):
        for text in ('{"R": NaN}', '[Infinity]', '{"x": -Infinity}'):
            with self.assertRaises(ValueError):
                checks.strict_loads(text)

    def test_accepts_rfc8259_json(self):
        self.assertEqual(checks.strict_loads(b'{"R": 0.5, "n": [1, 2]}'),
                         {"R": 0.5, "n": [1, 2]})


class Percentile(unittest.TestCase):
    def test_nearest_rank_on_known_samples(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(checks.percentile(samples, 50), 50.0)
        self.assertEqual(checks.percentile(samples, 99), 99.0)
        self.assertEqual(checks.percentile(samples, 100), 100.0)
        self.assertEqual(checks.percentile([7.0, 1.0, 3.0], 50), 3.0)
        self.assertEqual(checks.percentile([5.0], 99), 5.0)

    def test_failures_sort_last(self):
        self.assertEqual(checks.percentile([1.0, math.inf, 2.0], 50), 2.0)
        self.assertEqual(checks.percentile([1.0, math.inf], 99), math.inf)

    def test_samples_beyond(self):
        self.assertEqual(checks.samples_beyond(1000, 99), 10)
        self.assertEqual(checks.samples_beyond(999, 99), 10 - 1)
        self.assertEqual(checks.samples_beyond(100, 50), 50)


class WindowCutter(unittest.TestCase):
    def test_hand_computed_case(self):
        # n = 20: train 14, validation 2, test = ticks 16..19
        series = np.arange(20.0)
        self.assertEqual(checks.test_split_bounds(20), (16, 20))
        # input 1, horizon 2, stride 1 over test [16, 17, 18, 19]:
        # windows at offsets 0 and 1 -> targets [17, 18] and [18, 19]
        targets = checks.cut_test_targets(series, 1, 2, 1)
        np.testing.assert_array_equal(targets, [[17.0, 18.0], [18.0, 19.0]])

    def test_stride_skips_windows(self):
        # n = 50: test = ticks 40..49; input 2, horizon 3, stride 2:
        # offsets 0, 2, 4 -> targets start at 42, 44, 46
        targets = checks.cut_test_targets(np.arange(50.0), 2, 3, 2)
        np.testing.assert_array_equal(
            targets, [[42, 43, 44], [44, 45, 46], [46, 47, 48]])

    def test_rounding_of_split_fractions(self):
        # n = 25: train round(17.5) = 18, validation round(2.5) = 2
        self.assertEqual(checks.test_split_bounds(25), (20, 25))


class MetricAgreement(unittest.TestCase):
    def test_consistent_metrics_agree_and_inconsistent_do_not(self):
        y = np.array([[1.0, 3.0], [2.0, 6.0]])
        y_hat = y + np.array([[0.5, -0.5], [1.0, 0.0]])
        rmse = float(np.sqrt(np.mean((y - y_hat) ** 2)))
        rse = float(np.sqrt(np.sum((y - y_hat) ** 2))
                    / np.sqrt(np.sum((y - y.mean()) ** 2)))
        metrics = {"RMSE": rmse, "NRMSE": rmse / 5.0, "RSE": rse}
        self.assertTrue(checks.error_metrics_agree(metrics, y))
        self.assertFalse(checks.error_metrics_agree(
            dict(metrics, NRMSE=rmse / 4.0), y))
        self.assertFalse(checks.error_metrics_agree(
            dict(metrics, RSE=rse * 1.01), y))


class Segments(unittest.TestCase):
    def test_rebuilds_constant_and_linear_segments(self):
        np.testing.assert_array_equal(
            checks.rebuild_segment("constant", 3, [2.5]), [2.5, 2.5, 2.5])
        np.testing.assert_array_equal(
            checks.rebuild_segment("linear", 3, [0.5, 1.0]), [1.0, 1.5, 2.0])
        with self.assertRaises(ValueError):
            checks.rebuild_segment("lfzip", 3, [0.0])


if __name__ == "__main__":
    unittest.main()
