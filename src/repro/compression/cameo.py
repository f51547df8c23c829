"""CAMEO-style autocorrelation-preserving line simplification.

CAMEO (Ruiyuan et al., see PAPERS.md) frames error-bounded compression
as greedy point elimination that bounds not just the pointwise
reconstruction error but the error *induced in downstream aggregate
statistics* — autocorrelation above all.  This implementation keeps the
repo's segment-filter vocabulary: a connected sweep grows one linear
segment at a time, and each candidate point contributes **two** linear
constraints on the segment slope ``s``:

* the Swing cone — ``|fit(k) - v_k| <= eps * |v_k|`` pointwise, and
* an aggregate-deviation budget — the running signed deviation of the
  line from the eliminated points must satisfy ``|s * A_i - B_i| <=
  W_i`` with ``A_i = sum(run_k)``, ``B_i = sum(v_k - anchor)`` and
  ``W_i = ACF_WEIGHT * eps * sum(|v_k|)``.  Bounding this drift bounds
  the perturbation of lag-window products, which is what keeps the
  reconstructed series' ACF close to the original's.

The first time the intersection empties the segment closes at the
previous point and the violator anchors the next one.  Only this window
search is CAMEO's own: the verify/split pass, reconstruction, wire
format and decoder are the line-segment core it shares with Swing
(``repro.compression.linesegment``).  The per-point loop below is the
scalar reference: it folds the three running sums point by point, and
the vectorized kernel (``kernels.cameo_chase``: a dense sweep over every
window start at tight bounds, seeded-cumsum chunks at loose ones)
performs the exact same float64 folds with exact min/max envelopes, so
both paths are pinned byte-identical (``tests/compression/test_cameo.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression import kernels, timestamps
from repro.compression.linesegment import (LineSegmentCompressor,
                                           mid_slopes, verify)
from repro.registry import register_compressor

#: fraction of the pointwise budget granted to aggregate (ACF) drift
ACF_WEIGHT = 0.5


@register_compressor("CAMEO", lossy=True, grid=True,
                     description="ACF-preserving line simplification")
class Cameo(LineSegmentCompressor):
    """Greedy line simplification bounding pointwise and ACF error."""

    name = "CAMEO"

    def __init__(self, use_kernel: bool = True,
                 acf_weight: float = ACF_WEIGHT) -> None:
        super().__init__(use_kernel)
        self.acf_weight = acf_weight

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cone ∩ aggregate windows, verified."""
        if self.use_kernel:
            lengths, cone_lo, cone_hi = kernels.cameo_chase(
                values, error_bound, self.acf_weight,
                timestamps.MAX_SEGMENT_LENGTH)
        else:
            lengths, cone_lo, cone_hi = self._segments_scalar(values,
                                                              error_bound)
        return verify(values, error_bound, lengths,
                      mid_slopes(lengths, cone_lo, cone_hi))

    def _segments_scalar(self, values: np.ndarray, error_bound: float
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-point reference loop, kept to pin the kernel's semantics."""
        windows: list[tuple[int, float, float]] = []
        weight = self.acf_weight * error_bound

        anchor_index = 0
        anchor_value = float(values[0])
        slope_lo = -math.inf
        slope_hi = math.inf
        sum_dev = 0.0
        sum_mass = 0.0
        sum_run = 0.0

        for i in range(1, len(values)):
            value = float(values[i])
            allowed = error_bound * abs(value)
            run = i - anchor_index
            # the same float64 folds, in the same order, as the kernel's
            # seeded cumsums
            new_dev = sum_dev + (value - anchor_value)
            new_mass = sum_mass + abs(value)
            new_run = sum_run + run
            budget = weight * new_mass
            new_lo = max(slope_lo, (value - allowed - anchor_value) / run,
                         (new_dev - budget) / new_run)
            new_hi = min(slope_hi, (value + allowed - anchor_value) / run,
                         (new_dev + budget) / new_run)
            window_full = run + 1 > timestamps.MAX_SEGMENT_LENGTH
            if window_full or new_lo > new_hi:
                windows.append((run, slope_lo, slope_hi))
                anchor_index = i
                anchor_value = value
                slope_lo = -math.inf
                slope_hi = math.inf
                sum_dev = sum_mass = sum_run = 0.0
            else:
                slope_lo, slope_hi = new_lo, new_hi
                sum_dev, sum_mass, sum_run = new_dev, new_mass, new_run
        windows.append((len(values) - anchor_index, slope_lo, slope_hi))
        lengths, cone_lo, cone_hi = zip(*windows)
        return (np.array(lengths, dtype=np.int64), np.array(cone_lo),
                np.array(cone_hi))
