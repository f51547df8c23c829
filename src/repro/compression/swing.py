"""Swing filter — piecewise linear approximation (Elmeleegy et al., VLDB 2009).

The filter anchors a segment at its first point and maintains the cone of
line slopes that keep every later point within its relative pointwise error
bound.  When a new point empties the cone, the window becomes a segment
compressed by a line, and the point starts a new window.  Following
ModelarDB's implementation (used by the paper), the emitted slope is the
mean of the cone's upper and lower bounds.

Each segment stores a 16-bit length plus *two* coefficients.  Like
ModelarDB, the linear coefficients are kept in double precision (PMC's
single constant is a 32-bit float), which is the storage overhead the paper
identifies as the reason SWING's compression ratio trails PMC's after gzip.

The cone scan runs on the dense first-violation sweep in
``repro.compression.kernels`` by default; ``Swing(use_kernel=False)``
instead pushes the series point by point through the online encoder
(``streaming.OnlineSwing``), whose ``push`` loop is the scalar reference
the equivalence suite pins the kernel to.  The kernel's windows go
through the verify/split pass of ``repro.compression.linesegment``, which
Swing shares with CAMEO; the online encoder runs that same pass on every
window it closes, so a streamed Swing session is byte-identical to a
batch compress.
"""

from __future__ import annotations

import numpy as np

from repro.compression import kernels, timestamps
from repro.compression.linesegment import (LineSegmentCompressor,
                                           mid_slopes, verify)
from repro.compression.streaming import OnlineSwing
from repro.registry import register_compressor


@register_compressor("SWING", lossy=True, paper=True, grid=True,
                     streaming="OnlineSwing",
                     description="connected piecewise linear (swing) filter")
class Swing(LineSegmentCompressor):
    """Swing filter with a relative pointwise error bound."""

    name = "SWING"

    def _segments(self, values: np.ndarray, error_bound: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cone windows, verified.

        The online encoder verifies each window as it closes, so its
        segments are returned as they are.
        """
        cap = timestamps.MAX_SEGMENT_LENGTH
        if self.use_kernel:
            lengths, cone_lo, cone_hi = kernels.swing_chase(values,
                                                            error_bound, cap)
            return verify(values, error_bound, lengths,
                          mid_slopes(lengths, cone_lo, cone_hi))
        encoder = OnlineSwing(error_bound, cap)
        for value in values:
            encoder.push(value)
        segments = encoder.segments + encoder.flush()
        return (np.array([s.length for s in segments], dtype=np.int64),
                np.array([s.slope for s in segments], dtype=np.float64),
                np.array([s.intercept for s in segments], dtype=np.float64))
