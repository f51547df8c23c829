"""Independent checkers the benchmark applies to the program's outputs.

Everything here is plain numpy and stdlib: none of it calls into
``repro``, so a fault in the program cannot hide itself by also being in
the check.  ``selftest.py`` pins each checker on hand-made cases.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: relative rounding of one float32 store, the only slack Definition 4
#: is allowed (|x - x_hat| <= eps*|x| + 2**-24*|x|)
FLOAT32_SLACK = 2.0 ** -24


def definition4_violations(original, decompressed, error_bound: float
                           ) -> np.ndarray:
    """Indices where |x - x_hat| > (eps + 2**-24) * |x| (Definition 4).

    At an exact zero the allowed error is zero, so any non-zero
    reconstruction of a zero is a violation.
    """
    x = np.asarray(original, dtype=np.float64)
    x_hat = np.asarray(decompressed, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    allowed = (error_bound + FLOAT32_SLACK) * np.abs(x)
    bad = ~(np.abs(x - x_hat) <= allowed)  # NaN reconstructions fail too
    return np.flatnonzero(bad)


def _reject_constant(token: str):
    raise ValueError(f"non-RFC 8259 JSON token {token!r}")


def strict_loads(text: str | bytes):
    """Parse JSON text, rejecting the ``NaN``/``Infinity`` extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it.

    ``math.inf`` stands for a failed operation: it sorts last, so a
    failure counts as missing every latency limit.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def test_split_bounds(n: int, train_fraction: float = 0.7,
                      validation_fraction: float = 0.1) -> tuple[int, int]:
    """``(start, stop)`` of the chronological 70/10/20 test split."""
    train_end = int(round(n * train_fraction))
    validation_end = train_end + int(round(n * validation_fraction))
    return validation_end, n


def cut_test_targets(series, input_length: int, horizon: int,
                     stride: int) -> np.ndarray:
    """Raw target windows of Algorithm 1's evaluation over the test split.

    Window ``k`` starts at test offset ``k * stride``; its target is the
    ``horizon`` values after its ``input_length`` inputs.
    """
    values = np.asarray(series, dtype=np.float64)
    start, stop = test_split_bounds(len(values))
    test = values[start:stop]
    offsets = range(0, len(test) - input_length - horizon + 1, stride)
    return np.array([test[o + input_length:o + input_length + horizon]
                     for o in offsets])


def nrmse(x, y) -> float:
    """RMSE over the reference range (the paper's Equation 4)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(np.sqrt(np.mean((x - y) ** 2)) / (x.max() - x.min()))


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """``a`` and ``b`` agree to ``rel`` relative to the larger of them."""
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def error_metrics_agree(metrics: dict, targets) -> bool:
    """RMSE, NRMSE and RSE of one record agree through the normalisers
    of its raw target windows: NRMSE*range = RMSE and
    RSE*sqrt(sum((y - mean)^2) / n) = RMSE."""
    y = np.asarray(targets, dtype=np.float64).ravel()
    value_range = float(y.max() - y.min())
    spread = float(np.sqrt(np.sum((y - y.mean()) ** 2) / y.size))
    rmse = metrics["RMSE"]
    return (close(metrics["NRMSE"] * value_range, rmse)
            and close(metrics["RSE"] * spread, rmse))


def rebuild_segment(kind: str, length: int, params) -> np.ndarray:
    """Values of one PMC (constant) or Swing (linear) wire segment."""
    if kind == "constant":
        return np.full(length, float(params[0]))
    if kind == "linear":
        slope, intercept = float(params[0]), float(params[1])
        return intercept + slope * np.arange(length)
    raise ValueError(f"no closed form for segment kind {kind!r}")
