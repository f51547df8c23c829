"""The line-segment core shared by Swing and CAMEO.

Both codecs cover the series with connected windows, each compressed by a
line ``intercept + slope * t`` anchored at the window's first point; they
differ only in how the windows are searched (``_segments``).  This module
holds everything after the search, once:

* one verify pass, vectorized over the whole series, checks
  ``|fitted - v| <= eps * |v|`` for every point.  Coefficients are float64
  and nothing is rounded to float32, so no slack is granted;
* the rare windows where float64 rounding of ``intercept + slope * t``
  drifts past the bound are split in two and re-fit on their own pointwise
  cones (``_fit``).  A single point is always exact, so the split
  terminates;
* reconstruction, the columnar wire format and the decoder.

The kernel window searches of both codecs and CAMEO's scalar reference
feed their windows to ``verify``, so kernel and reference payloads are
byte-identical whenever their windows are.  Swing's scalar reference,
``streaming.OnlineSwing``, calls the same ``verify`` on every window it
closes, so its segments arrive verified and streamed Swing segments are
the batch segments.
"""

from __future__ import annotations

import math
import struct
from abc import abstractmethod

import numpy as np

from repro.compression import timestamps
from repro.compression.base import (CompressionResult, Compressor,
                                    gunzip_bytes, record_result,
                                    gzip_bytes)
from repro.datasets.timeseries import TimeSeries

_COUNT = struct.Struct("<I")


def _cone_slope(values: np.ndarray, error_bound: float, i0: int, i1: int
                ) -> float:
    """Mid-cone slope keeping every point of ``[i0, i1)`` within its bound."""
    anchor = float(values[i0])
    slope_lo, slope_hi = -math.inf, math.inf
    for i in range(i0 + 1, i1):
        value = float(values[i])
        allowed = error_bound * abs(value)
        run = i - i0
        slope_lo = max(slope_lo, (value - allowed - anchor) / run)
        slope_hi = min(slope_hi, (value + allowed - anchor) / run)
    return (slope_lo + slope_hi) / 2.0 if math.isfinite(slope_lo) else 0.0


def mid_slopes(lengths: np.ndarray, cone_lo: np.ndarray,
               cone_hi: np.ndarray) -> np.ndarray:
    """Each window's slope: its cone's midpoint, 0 for a single point."""
    with np.errstate(invalid="ignore"):
        return np.where((lengths == 1) | ~np.isfinite(cone_lo),
                        0.0, (cone_lo + cone_hi) / 2.0)


def verify(values: np.ndarray, error_bound: float, lengths: np.ndarray,
           slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the windows tiling ``values`` against the bound at once.

    Returns ``(lengths, slopes, intercepts)``: the windows that hold
    ``|fitted - v| <= eps * |v|`` unchanged, the drifting ones split.
    """
    starts = np.cumsum(lengths) - lengths
    intercepts = values[starts]
    fitted = _reconstruct(lengths, slopes, intercepts)
    drifted = np.abs(fitted - values) > error_bound * np.abs(values)
    bad = np.logical_or.reduceat(drifted, starts) & (lengths > 1)
    if not bad.any():
        return lengths, slopes, intercepts
    out: list[tuple[int, float, float]] = []
    for i, start in enumerate(starts):
        if bad[i]:
            _fit(values, error_bound, int(start), int(start + lengths[i]),
                 float(slopes[i]), out)
        else:
            out.append((int(lengths[i]), float(slopes[i]),
                        float(intercepts[i])))
    return (np.array([s[0] for s in out], dtype=np.int64),
            np.array([s[1] for s in out]),
            np.array([s[2] for s in out]))


def _fit(values: np.ndarray, error_bound: float, i0: int, i1: int,
         slope: float, out: list[tuple[int, float, float]]) -> None:
    """Emit segments covering ``[i0, i1)`` at ``slope``, split on drift."""
    length = i1 - i0
    intercept = float(values[i0])
    window = values[i0:i1]
    fitted = intercept + slope * np.arange(length, dtype=np.float64)
    if length == 1 or bool(np.all(np.abs(fitted - window)
                                  <= error_bound * np.abs(window))):
        out.append((length, slope, intercept))
        return
    # Rounding drifted past the bound: split and re-fit each half on its
    # own pointwise cone alone (CAMEO's aggregate budget is a quality
    # constraint, not a correctness one).
    mid = i0 + length // 2
    for a, b in ((i0, mid), (mid, i1)):
        _fit(values, error_bound, a, b,
             _cone_slope(values, error_bound, a, b), out)


def _reconstruct(lengths: np.ndarray, slopes: np.ndarray,
                 intercepts: np.ndarray) -> np.ndarray:
    """Single ``np.repeat``-based ramp over all segments at once.

    Each output element is ``intercept[s] + slope[s] * t`` with ``t`` the
    offset inside its segment — elementwise the same float64 operations
    as a per-segment ``intercept + slope * arange``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) == 0:
        return np.empty(0)
    total = int(lengths.sum())
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    t = (np.arange(total, dtype=np.int64) - starts).astype(np.float64)
    return np.repeat(intercepts, lengths) + np.repeat(slopes, lengths) * t


class LineSegmentCompressor(Compressor):
    """Connected line segments under a relative pointwise error bound.

    Subclasses implement :meth:`_segments`, the window search ending in
    :func:`verify`; the kernel and the scalar reference of that search
    share everything else here.
    """

    is_lossy = True

    def __init__(self, use_kernel: bool = True) -> None:
        self.use_kernel = use_kernel

    def compress(self, series: TimeSeries, error_bound: float) -> CompressionResult:
        self._check_inputs(series, error_bound)
        values = series.values
        lengths, slopes, intercepts = self._segments(values, error_bound)
        payload = self._serialize(series, lengths, slopes, intercepts)
        compressed = gzip_bytes(payload)
        return record_result(CompressionResult(
            method=self.name,
            error_bound=error_bound,
            original=series,
            decompressed=self._reconstruct_series(series, lengths, slopes,
                                                  intercepts),
            payload=payload,
            compressed=compressed,
            num_segments=len(lengths),
        ))

    @abstractmethod
    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The verified segments as ``(lengths, slopes, intercepts)``."""

    @staticmethod
    def _reconstruct_series(series: TimeSeries, lengths, slopes,
                            intercepts) -> TimeSeries:
        """Reconstruction from in-memory segments, identical to a decode.

        Slopes and intercepts are stored as float64, so the serialized
        round trip is exact and ``CompressionResult.decompressed`` matches
        ``decompress(compressed)`` bit for bit at zero extra cost.
        """
        values = _reconstruct(lengths, slopes, intercepts)
        return TimeSeries(values, start=series.start, interval=series.interval,
                          name="decompressed")

    @staticmethod
    def _serialize(series: TimeSeries, lengths, slopes, intercepts) -> bytes:
        """Columnar layout (lengths, slopes, intercepts) to help gzip."""
        lengths = np.asarray(lengths, dtype="<u2")
        slopes = np.asarray(slopes, dtype="<f8")
        intercepts = np.asarray(intercepts, dtype="<f8")
        return (timestamps.encode_header(series.start, series.interval)
                + _COUNT.pack(len(lengths))
                + lengths.tobytes() + slopes.tobytes() + intercepts.tobytes())

    def decompress(self, compressed: bytes) -> TimeSeries:
        payload = gunzip_bytes(compressed)
        start, interval, offset = timestamps.decode_header(payload)
        (count,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        lengths = np.frombuffer(payload, dtype="<u2", count=count, offset=offset)
        offset += 2 * count
        slopes = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        intercepts = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        values = _reconstruct(lengths, slopes, intercepts)
        return TimeSeries(values, start=start, interval=interval, name="decompressed")
