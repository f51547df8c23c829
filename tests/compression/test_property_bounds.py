"""Property suite: the error bound holds for EVERY registered compressor.

This file is deliberately registry-driven rather than naming the
compressors: a plugin registered through ``@register_compressor`` with
``lossy`` or ``grid`` capability is picked up automatically and held to
the same Definition 4 contract as the built-ins — across synthetic data
regimes (hypothesis) and across the real dataset registry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.compression import check_error_bound
from repro.datasets import TimeSeries, load
from repro.datasets.registry import DATASET_NAMES

#: every error-bounded compressor the registry knows about
BOUNDED = sorted(set(registry.compressor_names(lossy=True))
                 | set(registry.compressor_names(grid=True)))


def test_suite_covers_all_five_grid_methods():
    # the tripwire: if a codec is registered without landing here, the
    # capability metadata is wrong, not this list
    assert set(BOUNDED) >= {"PMC", "SWING", "SZ", "CAMEO", "LFZIP"}


@pytest.mark.parametrize("method", BOUNDED)
@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_bound_holds_on_every_dataset(method, dataset):
    series = load(dataset, length=1_000).target_series
    for error_bound in (0.01, 0.1, 0.4):
        result = registry.make_compressor(method).compress(series,
                                                           error_bound)
        assert check_error_bound(series, result.decompressed, error_bound), \
            f"{method} violates eps={error_bound} on {dataset}"


@pytest.mark.parametrize("method", BOUNDED)
def test_round_trip_matches_decompressed(method):
    rng = np.random.default_rng(17)
    series = TimeSeries(50 + rng.normal(0, 2, 600).cumsum() * 0.1,
                        interval=60)
    compressor = registry.make_compressor(method)
    result = compressor.compress(series, 0.1)
    assert np.array_equal(compressor.decompress(result.compressed).values,
                          result.decompressed.values)


@settings(max_examples=20, deadline=None)
@given(
    method=st.sampled_from(BOUNDED),
    values=st.lists(st.floats(min_value=-1e4, max_value=1e4,
                              allow_nan=False, allow_infinity=False,
                              width=32),
                    min_size=2, max_size=250),
    error_bound=st.sampled_from([0.01, 0.05, 0.1, 0.4, 0.8]),
)
def test_property_bound_holds_on_arbitrary_series(method, values,
                                                  error_bound):
    series = TimeSeries(np.asarray(values, dtype=float), interval=60)
    result = registry.make_compressor(method).compress(series, error_bound)
    assert len(result.decompressed.values) == len(values)
    assert check_error_bound(series, result.decompressed, error_bound)


@settings(max_examples=15, deadline=None)
@given(
    method=st.sampled_from(sorted(
        registry.compressor_names(streaming=True))),
    values=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                              allow_nan=False, allow_infinity=False,
                              width=32),
                    min_size=2, max_size=300),
    error_bound=st.sampled_from([0.05, 0.2]),
)
def test_property_streaming_equals_batch(method, values, error_bound):
    """Every compressor advertising a streaming variant must reconstruct
    the same values online as its batch form does: PMC bit for bit, the
    others within 1e-5."""
    from repro.compression.streaming import (STREAMING_ALGORITHMS,
                                             reconstruct)

    series = TimeSeries(np.asarray(values, dtype=float), interval=60)
    batch = registry.make_compressor(method).compress(series, error_bound)
    encoder = STREAMING_ALGORITHMS[
        registry.compressor_info(method).streaming](error_bound)
    encoder.extend(series.values)
    encoder.flush()
    online = reconstruct(encoder.segments)
    if method == "PMC":
        assert np.array_equal(online, batch.decompressed.values)
    else:
        assert np.allclose(online, batch.decompressed.values, atol=1e-5,
                           rtol=1e-5)
    assert check_error_bound(series, TimeSeries(online, interval=60),
                             error_bound)
