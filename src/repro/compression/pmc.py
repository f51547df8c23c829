"""Poor Man's Compression — Mean variant (Lazaridis & Mehrotra, ICDE 2003).

PMC-Mean grows an adaptive window while the window's mean value stays
within the relative pointwise error bound of every point.  When adding a
point would break the bound, the window *without* that point becomes a
segment represented by its mean, and the point starts a new window
(Section 3.2 of the paper).

Each segment is stored as a 16-bit length plus one 32-bit float, which is
why PMC benefits so strongly from the shared gzip stage: long runs of
similar constants compress extremely well.

Window means are anchored to one global prefix-sum fold (``mean = (S[end] -
S[start]) / length``), so the dense-sweep kernel and the online encoder
compute bit-identical means.  The segmentation runs on the dense
first-violation sweep in ``repro.compression.kernels`` by default;
``PMC(use_kernel=False)`` instead pushes the series point by point through
the online encoder (``streaming.OnlinePMC``), whose ``push`` loop is the
scalar reference the equivalence suite pins the kernel to (identical
segments, byte-identical payloads).  A streamed PMC session is therefore
byte-identical to a batch compress of the same values.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression import kernels, timestamps
from repro.compression.base import (CompressionResult, Compressor,
                                    gunzip_bytes, record_result,
                                    gzip_bytes)
from repro.compression.streaming import OnlinePMC, _store_float32
from repro.datasets.timeseries import TimeSeries
from repro.registry import register_compressor

_COUNT = struct.Struct("<I")


@register_compressor("PMC", lossy=True, paper=True, grid=True,
                     streaming="OnlinePMC",
                     description="piecewise constant (mean) approximation")
class PMC(Compressor):
    """PMC-Mean with a relative pointwise error bound."""

    name = "PMC"
    is_lossy = True

    def __init__(self, use_kernel: bool = True) -> None:
        self.use_kernel = use_kernel

    def compress(self, series: TimeSeries, error_bound: float) -> CompressionResult:
        self._check_inputs(series, error_bound)
        lengths, means = self._segments(series.values, error_bound)
        payload = self._serialize(series, lengths, means)
        compressed = gzip_bytes(payload)
        return record_result(CompressionResult(
            method=self.name,
            error_bound=error_bound,
            original=series,
            decompressed=self._reconstruct_series(series, lengths, means),
            payload=payload,
            compressed=compressed,
            num_segments=len(lengths),
        ))

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Segment lengths and their float32-stored means."""
        cap = timestamps.MAX_SEGMENT_LENGTH
        if not self.use_kernel:
            # the scalar reference: the online encoder, pushed point by point
            encoder = OnlinePMC(error_bound, cap)
            for value in values:
                encoder.push(value)
            segments = encoder.segments + encoder.flush()
            return (np.array([s.length for s in segments], dtype=np.int64),
                    np.array([s.value for s in segments], dtype=np.float64))
        lengths, means, lo, hi = kernels.pmc_chase(values, error_bound, cap)
        stored = means.astype(np.float32).astype(np.float64)
        inside = (lo <= stored) & (stored <= hi)
        if not inside.all():
            # float32 rounding pushed a few coefficients outside their
            # admissible interval; nudge those through the scalar helper.
            for i in np.flatnonzero(~inside):
                stored[i] = _store_float32(float(means[i]),
                                           float(lo[i]), float(hi[i]))
        return lengths, stored

    @staticmethod
    def _reconstruct_series(series: TimeSeries, lengths, means) -> TimeSeries:
        """Reconstruction from in-memory segments, identical to a decode.

        The means round-trip through float32 exactly as the serialized
        payload does, so ``CompressionResult.decompressed`` costs nothing
        extra yet matches ``decompress(compressed)`` bit for bit (asserted
        by the equivalence suite).
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        stored = np.asarray(means, dtype="<f4")
        values = np.repeat(stored.astype(np.float64), lengths)
        return TimeSeries(values, start=series.start, interval=series.interval,
                          name="decompressed")

    @staticmethod
    def _serialize(series: TimeSeries, lengths, means) -> bytes:
        """Columnar layout (lengths, then values) so gzip sees each stream."""
        lengths = np.asarray(lengths, dtype="<u2")
        stored = np.asarray(means, dtype="<f4")
        return (timestamps.encode_header(series.start, series.interval)
                + _COUNT.pack(len(lengths))
                + lengths.tobytes() + stored.tobytes())

    def decompress(self, compressed: bytes) -> TimeSeries:
        payload = gunzip_bytes(compressed)
        start, interval, offset = timestamps.decode_header(payload)
        (count,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        lengths = np.frombuffer(payload, dtype="<u2", count=count, offset=offset)
        offset += 2 * count
        means = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        values = np.repeat(means.astype(np.float64), lengths)
        return TimeSeries(values, start=start, interval=interval, name="decompressed")
