"""Vectorized kernels for the segment compressors.

PMC, Swing and CAMEO all grow an adaptive window point by point and close
it the first time a running invariant breaks (the window mean leaves the
admissible interval; the slope cone empties).  Their scalar references are
exact but cost a Python interpreter round-trip per point, which dominates
the evaluation grid's wall clock before a single forecaster runs.  For PMC
and Swing the reference is the online encoder's ``push`` loop
(``repro.compression.streaming``), which ``use_kernel=False`` runs over
the series; CAMEO keeps its own per-point loop in
``repro.compression.cameo``.

Two kernel families live here, both bit-for-bit identical to the scalar
references, picked per series by a cheap sampling dispatch:

**Dense first-violation sweeps** (short-segment regime) compute, for every
position ``i`` at once, the index ``E[i]`` where a fresh window opened at
``i`` would close.  The sweep runs in rounds over the window offset ``k``
and has two phases: a *slice phase* that merges point ``i + k`` into every
window with contiguous full-array slices (in-place envelope updates, no
gathers, closed windows masked out of the violation scatter), and a
*gather phase* that compacts the survivors once the open fraction drops
and from then on touches only the active windows.  The segmentation falls
out of a pointer chase ``0 -> E[0] -> E[E[0]] -> ...``; when the chase
lands on a window the sweep left unresolved, the chunked scan closes just
that one segment and the chase resumes on ``E`` — none of the sweep's
work is discarded.  Total work is ``O(n * mean_segment_length)``
elementary C operations.  The three codecs share the sweep skeleton
(``_sweep``) and differ only in the per-round fold of their window state.

**Chunked scans** (long-segment regime, and the streaming encoders in
``repro.compression.streaming``) walk segment-at-a-time: cumulative
min/max bound envelopes over a lookahead chunk, first violation by
``argmax``, a handful of numpy calls per segment regardless of its length.

Sweep work scales with the mean segment length and scan work with the
segment *count*, so each batch chase first scans a short prefix with the
chunked kernel (keeping those segments — the probe is never wasted work),
estimates the mean segment length, and only runs the dense sweep when
segments are short (``DENSE_MEANLEN_MAX``).  Real series close windows in
clusters around the typical drift length rather than geometrically, so
open-fraction checkpoints inside the sweep are kept only as a loose
backstop against unrepresentative prefixes.

Per-round segment-bound bookkeeping is deliberately absent from the
sweeps: after the chase recovers the actual segment starts, the
admissible-mean bounds / slope cones of just those segments are recomputed
in one vectorized pass (``np.maximum.reduceat`` over the same per-point
quantities the scalar references fold — min/max are associative, so the
values are bitwise identical).  CAMEO's aggregate bounds depend on running
sums that only a per-window fold reproduces, so its sweep keeps each
window's interval as it resolves instead.

Exactness: running sums are a strict left fold (``np.cumsum`` — and the
streaming scan's cumsum seeded with the carried total — perform the exact
same float64 additions, in the same order, as ``total += value``), so PMC
means are anchored to one global prefix-sum fold shared by every path.
The PMC close predicate compares window *sums* against count-scaled bounds
(``sum < lo * count``) rather than dividing — one multiply per candidate
instead of a divide — and the online encoder's ``push`` uses the exact
same form, so close decisions agree bit for bit.  Swing's cone terms use
the same subtraction/division order as ``push``.  The references are
pinned to the kernels by the equivalence suite in
``tests/compression/test_kernels.py``, which therefore proves kernel ≡
online encoder ≡ batch compressor in one step.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.metrics import inc as _metric_inc

# Initial lookahead of the chunked scans; doubles while a window stays
# open, and restarts at twice the previous segment's length after a close.
MIN_CHUNK = 16
# Upper bound on the lookahead so a close never rescans more than this.
MAX_CHUNK = 4096

# The CAMEO scan folds each window's first points one at a time in plain
# Python before switching to vectorized chunks: three seeded cumsums per
# chunk cost more than the scalar fold until a window survives this long.
CAMEO_WARMUP = 32

# The batch chase probes this many segments with the chunked scan to
# estimate the mean segment length before picking a kernel.
SAMPLE_SEGMENTS = 48
# ... but stops probing early once this many points are consumed.
SAMPLE_POINTS = 8192
# Run the dense sweep only when the sampled mean segment length is at most
# this; beyond it the chunked scan's per-segment cost amortizes better
# than the sweep's O(n * mean_length) work.  Swing's sweep rounds carry
# two divisions, so its crossover sits lower than PMC's; CAMEO's carry two
# running sums and four divisions, lower still.
PMC_DENSE_MEANLEN_MAX = 24.0
SWING_DENSE_MEANLEN_MAX = 18.0
CAMEO_DENSE_MEANLEN_MAX = 8.0

# Dense sweeps give up on windows still open after this many rounds and
# leave them to the chunked scans.
DENSE_ROUNDS = 96
# The slice phase runs at most this many rounds before the survivors are
# compacted for the gather phase.
PHASE1_MAX_ROUNDS = 40
# Switch from the slice phase to the gather phase as soon as the open
# fraction drops below this: from here on, gathering only the active
# windows is cheaper than full-array slices.  PMC's slice rounds are all
# cheap contiguous ufuncs, so staying in them longer wins; Swing's carry
# two divisions per round, moving its crossover up.
PMC_DENSE_SWITCH_FRACTION = 0.25
SWING_DENSE_SWITCH_FRACTION = 0.42
# Backstop: abandon the sweep when this many rounds in, almost every
# window is still open — the sampled prefix misrepresented the series and
# the chunked scan should finish the job.
DENSE_ABANDON_ROUND = 32
DENSE_ABANDON_FRACTION = 0.85
# Stop the gather phase once this few windows survive: each remaining
# round costs fixed numpy call overhead on near-empty arrays, while an
# unresolved (OPEN) window only costs anything if the chase actually
# lands on it — and then just one single-segment chunked scan.  Most
# survivors are interior positions the chain never visits.
GATHER_MIN_SURVIVORS = 64

#: ``E`` sentinel: the window's close position was not determined.
OPEN = -1


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Global left-fold prefix sums ``S`` with ``S[0] = 0``.

    ``S[i]`` equals the float64 value of ``total`` after sequentially adding
    the first ``i`` values, so window sums anchored to ``S`` are identical
    on the batch and streaming paths.
    """
    sums = np.empty(len(values) + 1)
    sums[0] = 0.0
    sums[1:] = values
    # accumulate over the 0.0 seed so even the first element goes through a
    # real addition: cumsum on the values alone would *copy* element 0, and
    # a copied -0.0 differs bitwise from the scalar fold's 0.0 + -0.0 == +0.0
    np.cumsum(sums, out=sums)
    return sums


def _sweep(n: int, max_length: int, switch_fraction: float,
           state: list[np.ndarray], fold, cones: bool = False
           ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Dense first-violation sweep skeleton shared by PMC, Swing and CAMEO.

    Finds, for every position ``i`` at once, where a window opened at
    ``i`` closes: ``E[i]`` is its first violating point, ``n`` when it
    runs to the end of the array, ``OPEN`` when unresolved.  ``state``
    holds one array per running quantity, entry ``i`` belonging to the
    window opened at ``i``.  ``fold(k, state, at, m)`` folds each
    window's ``k``-th point after its anchor — at positions ``at`` — into
    ``state`` (in place, or as new arrays) and returns ``(state,
    violation)``.

    The slice phase advances every window on contiguous views (``at =
    slice(k, None)``, ``m`` the view length for preallocated scratch:
    fresh n-sized allocations are mmap territory and would dominate the
    round cost); entries of closed windows keep updating but are masked
    out of the scatter.  Once few windows remain open, the gather phase
    compacts the survivors and touches only them (``at`` their point
    indices, ``m`` None).  With ``cones`` the first two state arrays are
    a slope interval, and the sweep also returns each resolved window's
    interval before its violator (over all its points when it runs to
    the end).
    """
    ends = np.full(n, OPEN, dtype=np.int64)
    cone_lo = np.full(n, -math.inf) if cones else None
    cone_hi = np.full(n, math.inf) if cones else None

    def resolve(windows, close, source, pick) -> None:
        ends[windows] = close
        if cones:
            cone_lo[windows] = source[0][pick]
            cone_hi[windows] = source[1][pick]

    rounds = min(DENSE_ROUNDS, max_length)
    phase1_rounds = min(PHASE1_MAX_ROUNDS, rounds)
    open_m = np.ones(n, dtype=bool)
    abandoned = False
    k_done = 0
    for k in range(1, phase1_rounds + 1):
        m = n - k
        if m <= 0:
            break
        views = [column[:m] for column in state]
        new, violation = fold(k, views, slice(k, None), m)
        if k + 1 > max_length:
            violation[:] = True
        np.logical_and(violation, open_m[:m], out=violation)
        closed = np.flatnonzero(violation)
        if closed.size:
            resolve(closed, closed + k, views, closed)
            open_m[closed] = False
        for view, column in zip(views, new):
            if column is not view:
                view[...] = column
        k_done = k
        if k % 2 == 0 or k == phase1_rounds:
            fraction = np.count_nonzero(open_m[:m]) / m
            if (k >= DENSE_ABANDON_ROUND
                    and fraction > DENSE_ABANDON_FRACTION):
                abandoned = True
                break
            if fraction < switch_fraction or k == phase1_rounds:
                break

    # Open windows that already absorbed every remaining point ran to the
    # end of the array.
    still_open = np.flatnonzero(open_m)
    done = still_open[still_open >= n - 1 - k_done]
    resolve(done, n, state, done)
    if abandoned or k_done >= rounds:
        return ends, cone_lo, cone_hi

    idx = still_open[still_open < n - 1 - k_done]
    state = [column[idx] for column in state]
    for k in range(k_done + 1, rounds + 1):
        if idx.size <= GATHER_MIN_SURVIVORS:
            break  # leave the stragglers OPEN; the chase scans on-chain ones
        # Windows whose next point falls past the array close "open at the
        # end"; idx is sorted, so they form a suffix.
        cut = int(np.searchsorted(idx, n - k))
        if cut < idx.size:
            resolve(idx[cut:], n, state, slice(cut, None))
            idx = idx[:cut]
            state = [column[:cut] for column in state]
        j = idx + k
        new, violation = fold(k, state, j, None)
        if k + 1 > max_length:
            violation[:] = True
        if violation.any():
            resolve(idx[violation], j[violation], state, violation)
            keep = ~violation
            idx = idx[keep]
            new = [column[keep] for column in new]
        state = new
    return ends, cone_lo, cone_hi


def _scratch(buffer: np.ndarray, m: int | None) -> np.ndarray | None:
    """``buffer[:m]`` in the slice phase, None (allocate) when gathering."""
    return None if m is None else buffer[:m]


# ---------------------------------------------------------------------------
# PMC-Mean
# ---------------------------------------------------------------------------

def _pmc_scan_batch(point_lo: np.ndarray, point_hi: np.ndarray,
                    sums: np.ndarray, counts: np.ndarray, start: int, n: int,
                    max_length: int, closes: list[int],
                    stop_segments: int = 0) -> int:
    """Chunked PMC scan over ``[start, n)``, appending close boundaries.

    A fresh window opens at ``start``.  Interior segment boundaries are
    appended to ``closes`` (the final open window ``[last, n)`` is left
    implicit).  With ``stop_segments`` the scan pauses after that many
    closes — or once ``SAMPLE_POINTS`` are consumed — and returns the
    boundary it stopped at (a fresh-window position, so scanning can
    resume there); otherwise returns ``n``.

    Like the scalar loop, the window's own first point is absorbed into
    the carried bounds without a predicate check: ``S[i+1] - S[i]`` is not
    exactly ``values[i]`` in float64, so evaluating count == 1 could close
    a window on its opening point — something the reference never does.
    """
    window_start = start
    lo = float(point_lo[start])
    hi = float(point_hi[start])
    position = start + 1
    chunk = MIN_CHUNK
    stop_after = len(closes) + stop_segments
    while position < n:
        end = min(position + chunk, window_start + max_length, n)
        if end <= position:
            # the window already holds max_length points (tiny caps only):
            # forced close, the next point starts a fresh window
            boundary = position
        else:
            lo_env = np.maximum.accumulate(point_lo[position:end])
            hi_env = np.minimum.accumulate(point_hi[position:end])
            np.maximum(lo_env, lo, out=lo_env)
            np.minimum(hi_env, hi, out=hi_env)
            diff = sums[position + 1:end + 1] - sums[window_start]
            cnt = counts[position - window_start:end - window_start]
            violation = (diff < lo_env * cnt) | (diff > hi_env * cnt)
            j = int(violation.argmax())
            if violation[j]:
                boundary = position + j  # the violator starts the next window
            elif end == window_start + max_length and end < n:
                boundary = end  # forced close: the window is at capacity
            else:
                lo = float(lo_env[-1])
                hi = float(hi_env[-1])
                position = end
                chunk = min(2 * chunk, MAX_CHUNK)
                continue
        closes.append(boundary)
        chunk = max(MIN_CHUNK, min(MAX_CHUNK, 2 * (boundary - window_start)))
        window_start = boundary
        lo = float(point_lo[boundary])
        hi = float(point_hi[boundary])
        position = boundary + 1
        if stop_segments and (len(closes) >= stop_after
                              or boundary - start >= SAMPLE_POINTS):
            return boundary
    return n


def _pmc_sweep(point_lo: np.ndarray, point_hi: np.ndarray, sums: np.ndarray,
               max_length: int) -> np.ndarray:
    """Dense first-violation sweep for PMC-Mean (short-segment regime).

    Operates on (views of) the per-point bound arrays and prefix sums;
    returns ``E`` relative to the view (see ``_sweep``).  The state of the
    window opened at ``i`` is its admissible-mean envelope and the prefix
    sum at its start.
    """
    n = len(point_lo)
    scratch = [np.empty(n) for _ in range(3)]
    flags = [np.empty(n, dtype=bool) for _ in range(2)]
    after = sums[1:]  # after[p] is the prefix sum through point p

    def fold(k, state, at, m):
        lo, hi, base = state
        np.maximum(lo, point_lo[at], out=lo)
        np.minimum(hi, point_hi[at], out=hi)
        count = k + 1
        diff = np.subtract(after[at], base, out=_scratch(scratch[0], m))
        scaled_lo = np.multiply(lo, count, out=_scratch(scratch[1], m))
        scaled_hi = np.multiply(hi, count, out=_scratch(scratch[2], m))
        violation = np.less(diff, scaled_lo, out=_scratch(flags[0], m))
        above = np.greater(diff, scaled_hi, out=_scratch(flags[1], m))
        np.logical_or(violation, above, out=violation)
        return state, violation

    state = [point_lo.copy(), point_hi.copy(), sums[:n]]
    return _sweep(n, max_length, PMC_DENSE_SWITCH_FRACTION, state, fold)[0]


def pmc_chase(values: np.ndarray, error_bound: float, max_length: int,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full PMC segmentation: sampling dispatch, sweep/scan, bound recovery.

    Returns parallel arrays ``(lengths, means, lo, hi)`` — one entry per
    closed window, in order, with the admissible-mean bounds accumulated
    over exactly the window's points (the final window closes at the end
    of the array).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    sums = prefix_sums(values)
    allowed = error_bound * np.abs(values)
    point_lo = values - allowed
    point_hi = values + allowed
    counts = np.arange(1.0, min(n, max_length) + 1.0)

    closes: list[int] = []
    position = _pmc_scan_batch(point_lo, point_hi, sums, counts, 0, n,
                               max_length, closes,
                               stop_segments=SAMPLE_SEGMENTS)
    if position >= n:
        # the sampling probe consumed the whole series; no dispatch needed
        _metric_inc("kernel.pmc.probe_only")
    else:
        dense = position <= PMC_DENSE_MEANLEN_MAX * max(1, len(closes))
        _metric_inc("kernel.pmc.dense" if dense else "kernel.pmc.chunked")
    if position < n:
        if position <= PMC_DENSE_MEANLEN_MAX * max(1, len(closes)):
            offset = position
            rel_n = n - offset
            chain = _pmc_sweep(point_lo[offset:], point_hi[offset:],
                               sums[offset:], max_length).tolist()
            append = closes.append
            while position < n:
                end = chain[position - offset]
                if end == OPEN:
                    # The sweep left this window unresolved (longer than
                    # DENSE_ROUNDS); close just this one segment with the
                    # chunked scan, then resume following the chain.
                    position = _pmc_scan_batch(point_lo, point_hi, sums,
                                               counts, position, n,
                                               max_length, closes,
                                               stop_segments=1)
                elif end == rel_n:
                    break  # final window runs to the end of the array
                else:
                    position = offset + end
                    append(position)
        else:
            position = _pmc_scan_batch(point_lo, point_hi, sums, counts,
                                       position, n, max_length, closes)
    bounds = np.empty(len(closes) + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = closes
    bounds[-1] = n
    lengths = np.diff(bounds)
    seg_starts = bounds[:-1]
    means = (sums[bounds[1:]] - sums[seg_starts]) / lengths
    # min/max are associative, so folding each segment's points in one
    # reduceat reproduces the scalar loop's running bounds bit for bit.
    seg_lo = np.maximum.reduceat(point_lo, seg_starts)
    seg_hi = np.minimum.reduceat(point_hi, seg_starts)
    return lengths, means, seg_lo, seg_hi


def pmc_scan(values: np.ndarray, error_bound: float,
             state: tuple[int, float, float, float, float], max_length: int,
             ) -> tuple[list[tuple[int, float, float, float]],
                        tuple[int, float, float, float, float]]:
    """Chunked scan with the PMC-Mean window logic (streaming form).

    ``state`` is the open window carried in: ``(count, base, total, lo,
    hi)`` — ``base`` is the stream's prefix sum at the window start and
    ``total`` the running prefix sum (one global left fold, never reset),
    so the window mean is ``(total - base) / count``; ``lo``/``hi`` bound
    the admissible mean.  Returns the windows that closed — ``(length,
    mean, lo, hi)`` with the pre-violation bounds — and the window state
    left open after the last value.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    count, window_base, total, lo, hi = state
    closes: list[tuple[int, float, float, float]] = []
    if n == 0:
        return closes, state

    allowed = error_bound * np.abs(values)
    point_lo = values - allowed
    point_hi = values + allowed

    position = 0
    chunk = MIN_CHUNK
    scratch = np.empty(MAX_CHUNK + 1)
    while position < n:
        c = min(chunk, n - position)
        end = position + c
        lo_env = np.maximum.accumulate(point_lo[position:end])
        hi_env = np.minimum.accumulate(point_hi[position:end])
        if lo > -math.inf:
            np.maximum(lo_env, lo, out=lo_env)
        if hi < math.inf:
            np.minimum(hi_env, hi, out=hi_env)
        buf = scratch[:c + 1]
        buf[0] = total
        buf[1:] = values[position:end]
        sums = np.cumsum(buf[:c + 1])[1:]
        counts = np.arange(count + 1, count + 1 + c)
        diff = sums - window_base
        violation = ((counts > max_length)
                     | (diff < lo_env * counts) | (diff > hi_env * counts))
        j = int(np.argmax(violation))
        if not violation[j]:
            count += c
            total = float(sums[-1])
            lo = float(lo_env[-1])
            hi = float(hi_env[-1])
            position = end
            chunk = min(2 * chunk, MAX_CHUNK)
            continue
        if j == 0:
            seg_len, seg_total, seg_lo, seg_hi = count, total, lo, hi
        else:
            seg_len = count + j
            seg_total = float(sums[j - 1])
            seg_lo = float(lo_env[j - 1])
            seg_hi = float(hi_env[j - 1])
        closes.append((seg_len, (seg_total - window_base) / seg_len,
                       seg_lo, seg_hi))
        i = position + j
        count = 1
        window_base = seg_total
        total = float(sums[j])
        lo = float(point_lo[i])
        hi = float(point_hi[i])
        position = i + 1
        chunk = max(MIN_CHUNK, min(MAX_CHUNK, 2 * seg_len))
    return closes, (count, window_base, total, lo, hi)


# ---------------------------------------------------------------------------
# Swing
# ---------------------------------------------------------------------------

def _swing_scan_batch(values: np.ndarray, low_num: np.ndarray,
                      high_num: np.ndarray, runs: np.ndarray, start: int,
                      n: int, max_length: int, closes: list[int],
                      stop_segments: int = 0) -> int:
    """Chunked Swing cone scan over ``[start, n)`` (see _pmc_scan_batch)."""
    window_start = start
    anchor = float(values[start]) if start < n else 0.0
    lo, hi = -math.inf, math.inf
    position = start + 1
    chunk = MIN_CHUNK
    stop_after = len(closes) + stop_segments
    while position < n:
        end = min(position + chunk, window_start + max_length, n)
        if end <= position:
            # the window already holds max_length points (tiny caps only):
            # forced close, the next point anchors a fresh window
            boundary = position
        else:
            term_lo = ((low_num[position:end] - anchor)
                       / runs[position - window_start:end - window_start])
            term_hi = ((high_num[position:end] - anchor)
                       / runs[position - window_start:end - window_start])
            lo_env = np.maximum.accumulate(term_lo)
            hi_env = np.minimum.accumulate(term_hi)
            if lo > -math.inf:
                np.maximum(lo_env, lo, out=lo_env)
            if hi < math.inf:
                np.minimum(hi_env, hi, out=hi_env)
            violation = lo_env > hi_env
            j = int(violation.argmax())
            if violation[j]:
                boundary = position + j  # the violator anchors the next window
            elif end == window_start + max_length and end < n:
                boundary = end  # forced close: the window is at capacity
            else:
                lo = float(lo_env[-1])
                hi = float(hi_env[-1])
                position = end
                chunk = min(2 * chunk, MAX_CHUNK)
                continue
        closes.append(boundary)
        chunk = max(MIN_CHUNK, min(MAX_CHUNK, 2 * (boundary - window_start)))
        window_start = boundary
        anchor = float(values[boundary])
        lo, hi = -math.inf, math.inf
        position = boundary + 1
        if stop_segments and (len(closes) >= stop_after
                              or boundary - start >= SAMPLE_POINTS):
            return boundary
    return n


def _swing_sweep(values: np.ndarray, low_num: np.ndarray,
                 high_num: np.ndarray, max_length: int) -> np.ndarray:
    """Dense first-violation sweep for the Swing slope cone.

    Returns ``E`` relative to the view (see ``_sweep``); the window
    anchored at each position closes at the first point emptying its cone.
    """
    n = len(values)
    scratch = np.empty(n)
    flags = np.empty(n, dtype=bool)

    def fold(k, state, at, m):
        lo, hi, anchor = state
        term = np.subtract(low_num[at], anchor, out=_scratch(scratch, m))
        term /= k
        np.maximum(lo, term, out=lo)
        term = np.subtract(high_num[at], anchor, out=term)
        term /= k
        np.minimum(hi, term, out=hi)
        return state, np.greater(lo, hi, out=_scratch(flags, m))

    state = [np.full(n, -math.inf), np.full(n, math.inf), values]
    return _sweep(n, max_length, SWING_DENSE_SWITCH_FRACTION, state,
                  fold)[0]


def swing_chase(values: np.ndarray, error_bound: float, max_length: int,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full Swing segmentation: sampling dispatch, sweep/scan, cone recovery.

    Returns parallel arrays ``(lengths, lo, hi)`` — one closed window per
    entry, in order, with the slope cone accumulated over exactly the
    window's points (the final window closes at the end of the array).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    allowed = error_bound * np.abs(values)
    low_num = values - allowed
    high_num = values + allowed
    runs = np.arange(0.0, min(n, max_length) + 1.0)

    closes: list[int] = []
    position = _swing_scan_batch(values, low_num, high_num, runs, 0, n,
                                 max_length, closes,
                                 stop_segments=SAMPLE_SEGMENTS)
    if position >= n:
        _metric_inc("kernel.swing.probe_only")
    else:
        dense = position <= SWING_DENSE_MEANLEN_MAX * max(1, len(closes))
        _metric_inc("kernel.swing.dense" if dense else "kernel.swing.chunked")
    if position < n:
        if position <= SWING_DENSE_MEANLEN_MAX * max(1, len(closes)):
            offset = position
            rel_n = n - offset
            chain = _swing_sweep(values[offset:], low_num[offset:],
                                 high_num[offset:], max_length).tolist()
            append = closes.append
            while position < n:
                end = chain[position - offset]
                if end == OPEN:
                    # unresolved window: scan just this one segment, then
                    # resume following the chain (see pmc_chase)
                    position = _swing_scan_batch(values, low_num, high_num,
                                                 runs, position, n,
                                                 max_length, closes,
                                                 stop_segments=1)
                elif end == rel_n:
                    break  # final window runs to the end of the array
                else:
                    position = offset + end
                    append(position)
        else:
            position = _swing_scan_batch(values, low_num, high_num, runs,
                                         position, n, max_length, closes)
    bounds = np.empty(len(closes) + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = closes
    bounds[-1] = n
    lengths = np.diff(bounds)
    seg_starts = bounds[:-1]
    # Rebuild each segment's cone in one vectorized pass: the same
    # ``(num - anchor) / run`` terms the scalar loop folds, with anchor
    # positions masked to the fold identity, then one reduceat per bound.
    offsets = np.arange(n, dtype=np.int64)
    offsets -= np.repeat(seg_starts, lengths)
    rep_anchor = np.repeat(values[seg_starts], lengths)
    run_div = np.maximum(offsets, 1).astype(np.float64)
    term_lo = np.subtract(low_num, rep_anchor)
    term_lo /= run_div
    term_hi = np.subtract(high_num, rep_anchor, out=rep_anchor)
    term_hi /= run_div
    at_anchor = offsets == 0
    term_lo[at_anchor] = -math.inf
    term_hi[at_anchor] = math.inf
    seg_lo = np.maximum.reduceat(term_lo, seg_starts)
    seg_hi = np.minimum.reduceat(term_hi, seg_starts)
    return lengths, seg_lo, seg_hi


def _cameo_sweep(values: np.ndarray, low_num: np.ndarray,
                 high_num: np.ndarray, abs_values: np.ndarray, weight: float,
                 max_length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense first-violation sweep for CAMEO's cone ∩ aggregate intervals.

    Returns ``(E, cone_lo, cone_hi)`` relative to the view (see
    ``_sweep``).  Each window start folds its own running deviation and
    mass sums, one addition per round, in the scalar loop's order; the
    run sum after ``k`` points is the exact integer ``k * (k + 1) / 2``.
    ``max(lo, t1, t2)`` keeps the first of equal extremes and numpy's
    maximum the second, hence the reversed nesting below (it decides the
    sign of a zero bound).
    """
    n = len(values)
    scratch = [np.empty(n) for _ in range(4)]
    flags = np.empty(n, dtype=bool)

    def fold(k, state, at, m):
        lo, hi, anchor, dev, mass = state
        dev += np.subtract(values[at], anchor, out=_scratch(scratch[0], m))
        mass += abs_values[at]
        total_run = k * (k + 1) / 2
        budget = np.multiply(mass, weight, out=_scratch(scratch[0], m))
        term = np.subtract(low_num[at], anchor, out=_scratch(scratch[1], m))
        term /= k
        new_lo = np.subtract(dev, budget, out=_scratch(scratch[2], m))
        new_lo /= total_run
        np.maximum(new_lo, term, out=new_lo)
        np.maximum(new_lo, lo, out=new_lo)
        term = np.subtract(high_num[at], anchor, out=term)
        term /= k
        new_hi = np.add(dev, budget, out=_scratch(scratch[3], m))
        new_hi /= total_run
        np.minimum(new_hi, term, out=new_hi)
        np.minimum(new_hi, hi, out=new_hi)
        violation = np.greater(new_lo, new_hi, out=_scratch(flags, m))
        return [new_lo, new_hi, anchor, dev, mass], violation

    state = [np.full(n, -math.inf), np.full(n, math.inf), values,
             np.zeros(n), np.zeros(n)]
    return _sweep(n, max_length, SWING_DENSE_SWITCH_FRACTION, state, fold,
                  cones=True)


def cameo_chase(values: np.ndarray, error_bound: float, acf_weight: float,
                max_length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CAMEO segmentation (cone ∩ aggregate-deviation intervals).

    CAMEO keeps Swing's per-point slope cone and intersects one extra
    linear constraint per point: the running signed deviation of the
    fitted line from the dropped points must stay within a budget that
    grows with the absolute mass seen — ``|s * A_i - B_i| <= W_i`` with
    ``A_i = sum(run)``, ``B_i = sum(v_k - anchor)`` and ``W_i =
    acf_weight * error_bound * sum(|v_k|)`` — which is what bounds the
    induced autocorrelation/aggregate error of the simplification.

    All running sums are float64 left folds (cumsum seeded with the
    carried totals, or one addition per sweep round — the exact additions
    of the scalar loop, in the same order), and min/max envelopes are
    exact, so the first-violation positions and the returned
    pre-violation cones match the scalar reference bit for bit.  Returns
    ``(lengths, seg_lo, seg_hi)`` like ``swing_chase``, and dispatches
    like it: a probe of the chunked scan estimates the mean segment
    length, short segments go to the dense sweep (``_cameo_sweep``) and
    long ones stay on the scan.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    allowed = error_bound * np.abs(values)
    low_num = values - allowed
    high_num = values + allowed
    abs_values = np.abs(values)
    # Python-float mirrors for the warm-up fold: ``tolist`` hands back
    # the exact same doubles, and plain-float arithmetic is IEEE-identical
    # to the float64 array ops of the chunked path.
    v_list = values.tolist()
    low_list = low_num.tolist()
    high_list = high_num.tolist()
    abs_list = abs_values.tolist()
    weight = acf_weight * error_bound

    lengths: list[int] = []
    seg_lo: list[float] = []
    seg_hi: list[float] = []
    scratch_dev = np.empty(MAX_CHUNK + 1)
    scratch_mass = np.empty(MAX_CHUNK + 1)
    scratch_run = np.empty(MAX_CHUNK + 1)

    def scan(start: int, stop_segments: int = 0) -> int:
        """Chunked scan of windows from ``start``; where it stopped.

        Appends every closed window, and the trailing one when the data
        runs out (returning ``n``).  With ``stop_segments`` it returns
        the next window start after that many closes or once
        ``SAMPLE_POINTS`` points are consumed.
        """
        stop_after = len(lengths) + stop_segments
        window_start = start
        anchor = v_list[start] if start < n else 0.0
        lo, hi = -math.inf, math.inf
        sum_dev = 0.0   # B: left fold of (value - anchor)
        sum_mass = 0.0  # left fold of |value|
        sum_run = 0.0   # A: left fold of run (exact small integers)
        position = start + 1
        while position < n:
            boundary = -1
            # Scalar warm-up: windows shorter than the vector break-even (the
            # common regime at tight bounds) never pay per-chunk numpy
            # overhead.  These are the very additions the seeded cumsums
            # below perform, so switching regimes cannot move a violation.
            warm_end = min(window_start + CAMEO_WARMUP,
                           window_start + max_length, n)
            while position < warm_end:
                run = position - window_start
                new_dev = sum_dev + (v_list[position] - anchor)
                new_mass = sum_mass + abs_list[position]
                new_run = sum_run + run
                budget = weight * new_mass
                new_lo = max(lo, (low_list[position] - anchor) / run,
                             (new_dev - budget) / new_run)
                new_hi = min(hi, (high_list[position] - anchor) / run,
                             (new_dev + budget) / new_run)
                if new_lo > new_hi:
                    boundary = position  # the violator anchors the next window
                    break
                lo, hi = new_lo, new_hi
                sum_dev, sum_mass, sum_run = new_dev, new_mass, new_run
                position += 1
            if boundary < 0:
                if position >= n:
                    break  # open trailing window
                if position == window_start + max_length:
                    boundary = position  # forced close: window is at capacity
            chunk = CAMEO_WARMUP
            while boundary < 0:
                end = min(position + chunk, window_start + max_length, n)
                c = end - position
                runs = np.arange(position - window_start,
                                 end - window_start, dtype=np.float64)
                term_lo = (low_num[position:end] - anchor) / runs
                term_hi = (high_num[position:end] - anchor) / runs
                # Seeded cumsums: the exact float64 additions of the scalar
                # fold, in the same order (see prefix_sums).
                buf = scratch_dev[:c + 1]
                buf[0] = sum_dev
                np.subtract(values[position:end], anchor, out=buf[1:])
                dev = np.cumsum(buf)[1:]
                buf = scratch_mass[:c + 1]
                buf[0] = sum_mass
                buf[1:] = abs_values[position:end]
                mass = np.cumsum(buf)[1:]
                buf = scratch_run[:c + 1]
                buf[0] = sum_run
                buf[1:] = runs
                total_run = np.cumsum(buf)[1:]
                budget = weight * mass
                agg_lo = (dev - budget) / total_run
                agg_hi = (dev + budget) / total_run
                lo_env = np.maximum.accumulate(np.maximum(term_lo, agg_lo))
                hi_env = np.minimum.accumulate(np.minimum(term_hi, agg_hi))
                np.maximum(lo_env, lo, out=lo_env)
                np.minimum(hi_env, hi, out=hi_env)
                violation = lo_env > hi_env
                j = int(violation.argmax())
                if violation[j]:
                    # the violator anchors the next window
                    boundary = position + j
                    if j > 0:
                        lo = float(lo_env[j - 1])
                        hi = float(hi_env[j - 1])
                elif end == window_start + max_length and end < n:
                    # forced close: the capacity point re-anchors
                    boundary = end
                    lo = float(lo_env[-1])
                    hi = float(hi_env[-1])
                else:
                    lo = float(lo_env[-1])
                    hi = float(hi_env[-1])
                    sum_dev = float(dev[-1])
                    sum_mass = float(mass[-1])
                    sum_run = float(total_run[-1])
                    position = end
                    if position >= n:
                        break
                    chunk = min(2 * chunk, MAX_CHUNK)
            if boundary < 0:
                break  # open trailing window (data exhausted mid-scan)
            lengths.append(boundary - window_start)
            seg_lo.append(lo)
            seg_hi.append(hi)
            window_start = boundary
            anchor = v_list[boundary]
            lo, hi = -math.inf, math.inf
            sum_dev = sum_mass = sum_run = 0.0
            position = boundary + 1
            if stop_segments and (len(lengths) >= stop_after
                                  or boundary - start >= SAMPLE_POINTS):
                return boundary
        lengths.append(n - window_start)
        seg_lo.append(lo)
        seg_hi.append(hi)
        return n

    position = scan(0, stop_segments=SAMPLE_SEGMENTS)
    if position >= n:
        _metric_inc("kernel.cameo.probe_only")
    elif position > CAMEO_DENSE_MEANLEN_MAX * len(lengths):
        _metric_inc("kernel.cameo.chunked")
        scan(position)
    else:
        _metric_inc("kernel.cameo.dense")
        offset = position
        ends, cone_lo, cone_hi = _cameo_sweep(
            values[offset:], low_num[offset:], high_num[offset:],
            abs_values[offset:], weight, max_length)
        chain: list[int] = []
        ends_list = ends.tolist()
        rel = 0
        while rel < n - offset:
            if ends_list[rel] == OPEN:
                # unresolved window: scan just this one segment into the
                # sweep's tables, then resume following the chain
                scan(offset + rel, stop_segments=1)
                ends_list[rel] = rel + lengths.pop()
                cone_lo[rel] = seg_lo.pop()
                cone_hi[rel] = seg_hi.pop()
            chain.append(rel)
            rel = ends_list[rel]
        starts = np.array(chain, dtype=np.int64)
        return (np.concatenate((np.asarray(lengths, dtype=np.int64),
                                np.diff(starts, append=n - offset))),
                np.concatenate((seg_lo, cone_lo[starts])),
                np.concatenate((seg_hi, cone_hi[starts])))
    return (np.asarray(lengths, dtype=np.int64), np.asarray(seg_lo),
            np.asarray(seg_hi))


def swing_scan(values: np.ndarray, error_bound: float,
               state: tuple[float, int, float, float], max_length: int,
               ) -> tuple[list[tuple[int, float, float, float]],
                          tuple[float, int, float, float]]:
    """Chunked scan of ``values`` (the points *after* the anchor).

    ``state`` is ``(anchor, run, slope_lo, slope_hi)``: the anchor value,
    how many points beyond it are already in the window, and the open slope
    cone.  Returns the windows that closed — ``(length, slope_lo, slope_hi,
    anchor)`` with the pre-violation cone — and the open window state.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    anchor, run, slope_lo, slope_hi = state
    closes: list[tuple[int, float, float, float]] = []
    if n == 0:
        return closes, state

    allowed = error_bound * np.abs(values)
    low_num = values - allowed
    high_num = values + allowed

    position = 0
    chunk = MIN_CHUNK
    while position < n:
        c = min(chunk, n - position)
        end = position + c
        runs = np.arange(run + 1, run + 1 + c)
        lower = (low_num[position:end] - anchor) / runs
        upper = (high_num[position:end] - anchor) / runs
        lo_env = np.maximum.accumulate(lower)
        hi_env = np.minimum.accumulate(upper)
        if slope_lo > -math.inf:
            np.maximum(lo_env, slope_lo, out=lo_env)
        if slope_hi < math.inf:
            np.minimum(hi_env, slope_hi, out=hi_env)
        violation = (runs + 1 > max_length) | (lo_env > hi_env)
        j = int(np.argmax(violation))
        if not violation[j]:
            run += c
            slope_lo = float(lo_env[-1])
            slope_hi = float(hi_env[-1])
            position = end
            chunk = min(2 * chunk, MAX_CHUNK)
            continue
        if j == 0:
            seg_run, seg_lo, seg_hi = run, slope_lo, slope_hi
        else:
            seg_run = run + j
            seg_lo = float(lo_env[j - 1])
            seg_hi = float(hi_env[j - 1])
        closes.append((seg_run + 1, seg_lo, seg_hi, anchor))
        i = position + j
        anchor = float(values[i])
        run = 0
        slope_lo = -math.inf
        slope_hi = math.inf
        position = i + 1
        chunk = max(MIN_CHUNK, min(MAX_CHUNK, 2 * seg_run))
    return closes, (anchor, run, slope_lo, slope_hi)
