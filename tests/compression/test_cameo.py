"""Tests for the CAMEO ACF-preserving line-simplification compressor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import Cameo, check_error_bound
from repro.compression.cameo import ACF_WEIGHT
from repro.datasets import TimeSeries, load


def series_of(values, interval=60):
    return TimeSeries(np.asarray(values, dtype=float), interval=interval)


def noisy_series(n=1200, seed=0):
    rng = np.random.default_rng(seed)
    return 20 + rng.normal(0, 1, n).cumsum() * 0.1


def test_error_bound_is_respected_on_noisy_data():
    series = series_of(noisy_series())
    for eb in [0.01, 0.05, 0.1, 0.4]:
        result = Cameo().compress(series, eb)
        assert check_error_bound(series, result.decompressed, eb)


def test_aggregate_deviation_is_bounded_per_series():
    """The CAMEO constraint: residual drift stays within the ACF budget.

    Every segment keeps ``|sum(v_hat - v)| <= ACF_WEIGHT * eps * sum(|v|)``
    over its own points, so the whole series obeys the same bound — the
    property that keeps the autocorrelation of the reconstruction close
    to the original's (the compressor's reason to exist).
    """
    values = noisy_series(seed=3)
    series = series_of(values)
    for eb in [0.05, 0.1, 0.4]:
        result = Cameo().compress(series, eb)
        drift = abs(float(np.sum(result.decompressed.values - values)))
        budget = ACF_WEIGHT * eb * float(np.sum(np.abs(values)))
        assert drift <= budget + 1e-6 * len(values)


def test_acf_closer_than_unconstrained_swing_at_coarse_bound():
    """At a coarse bound CAMEO's lag-1 ACF error is competitive with
    Swing's — the drift constraint may only help, never hurt, and on
    drift-prone data it must not be dramatically worse."""
    from repro.compression import Swing

    rng = np.random.default_rng(7)
    t = np.arange(2000)
    values = 50 + 5 * np.sin(t / 40) + rng.normal(0, 1.5, t.size)
    series = series_of(values)

    def lag1(v):
        centered = v - v.mean()
        return float(np.dot(centered[1:], centered[:-1])
                     / np.dot(centered, centered))

    truth = lag1(values)
    cameo_err = abs(lag1(Cameo().compress(series, 0.4)
                         .decompressed.values) - truth)
    swing_err = abs(lag1(Swing().compress(series, 0.4)
                         .decompressed.values) - truth)
    assert cameo_err <= swing_err + 0.05


def test_kernel_and_scalar_payloads_are_byte_identical():
    series = series_of(noisy_series(seed=1))
    for eb in [0.01, 0.1, 0.4]:
        kernel = Cameo(use_kernel=True).compress(series, eb)
        scalar = Cameo(use_kernel=False).compress(series, eb)
        assert kernel.compressed == scalar.compressed
        assert np.array_equal(kernel.decompressed.values,
                              scalar.decompressed.values)
        assert kernel.num_segments == scalar.num_segments


def test_round_trip_through_bytes():
    rng = np.random.default_rng(2)
    series = series_of(400 + rng.normal(0, 5, 700), interval=600)
    result = Cameo().compress(series, 0.05)
    reconstructed = Cameo().decompress(result.compressed)
    assert np.array_equal(reconstructed.values, result.decompressed.values)
    assert reconstructed.start == series.start
    assert reconstructed.interval == series.interval


def test_handles_zeros_exactly():
    values = np.concatenate([np.zeros(150), np.full(80, 8.0), np.zeros(150)])
    series = series_of(values)
    result = Cameo().compress(series, 0.1)
    assert np.all(result.decompressed.values[:150] == 0.0)
    assert np.all(result.decompressed.values[-150:] == 0.0)
    assert check_error_bound(series, result.decompressed, 0.1)


def test_constant_series_is_one_segment():
    result = Cameo().compress(series_of(np.full(500, 42.0)), 0.1)
    assert result.num_segments == 1
    assert np.allclose(result.decompressed.values, 42.0)


def test_compresses_smooth_data_well():
    from repro.compression import raw_gz_size

    t = np.linspace(0, 12 * np.pi, 4000)
    series = series_of(np.round(420.0 + 10 * np.sin(t), 2))
    result = Cameo().compress(series, 0.1)
    assert raw_gz_size(series) / result.compressed_size > 5


def test_tighter_bound_means_more_segments():
    series = series_of(noisy_series(seed=4))
    coarse = Cameo().compress(series, 0.4).num_segments
    fine = Cameo().compress(series, 0.01).num_segments
    assert fine >= coarse


def test_rejects_negative_error_bound():
    with pytest.raises(ValueError):
        Cameo().compress(series_of([1.0, 2.0]), -0.1)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False, allow_infinity=False,
                              width=32),
                    min_size=2, max_size=300),
    error_bound=st.sampled_from([0.01, 0.05, 0.1, 0.4]),
)
def test_property_bound_and_drift_hold(values, error_bound):
    series = series_of(values)
    result = Cameo().compress(series, error_bound)
    assert check_error_bound(series, result.decompressed, error_bound)
    drift = abs(float(np.sum(result.decompressed.values - series.values)))
    budget = ACF_WEIGHT * error_bound * float(np.sum(np.abs(series.values)))
    assert drift <= budget + 1e-5 * max(1, len(values))
    assert np.array_equal(
        Cameo(use_kernel=False).compress(series, error_bound).compressed,
        result.compressed)


@pytest.mark.parametrize("name, error_bound", [("Solar", 0.5),
                                               ("ETTm1", 0.8)])
def test_exact_zeros_hold_definition4_with_no_slack(name, error_bound):
    # an absolute slack in the verify pass lets each of these cells
    # reconstruct one exact zero as a ~1e-15 residue
    series = load(name, 3984).target_series
    kernel = Cameo(use_kernel=True).compress(series, error_bound)
    scalar = Cameo(use_kernel=False).compress(series, error_bound)
    assert kernel.payload == scalar.payload
    for result in (kernel, scalar):
        x, x_hat = series.values, result.decompressed.values
        assert np.all(np.abs(x - x_hat) <= error_bound * np.abs(x))
