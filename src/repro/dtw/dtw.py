"""Dynamic Time Warping over trace nodes — Sec. V-A, Eq. (17).

MSDTW matches the *nodes* of a differential pair's sub-traces instead of
parallel-checking their segments: node positions are robust against the
short-segment and tiny-pattern artefacts of real designs (Fig. 10).  The
classic DTW recurrence gives the minimum-cost monotone matching in which
every node of both sequences is matched and several nodes may share a
partner — exactly what uneven node counts need.

:func:`dtw_match` runs the recurrence on two O(J)-memory rolling cost
rows, distances evaluated on the fly, and a one-byte-per-cell
backpointer table for the backtrack.  Mid-sized problems sweep only a
*certified corridor*: the cells that can provably lie on an optimal warp
path, so the result is always exactly the full recurrence's (see
:func:`_certified_window`; the certificate needs a dense numpy distance
matrix for its thresholds, so it is gated to problem sizes where that
footprint is trivial).  The dense-matrix recurrence it must agree with
bit for bit lives in the test oracles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Point
from ..obs.metrics import REGISTRY as _METRICS

_INF = float("inf")

#: Below this many DP cells the corridor bookkeeping costs more than the
#: full sweep saves; small problems always take the plain rolling path.
_BAND_MIN_CELLS = 2048
#: Above this many cells the certificate's dense numpy distance matrix
#: (8 bytes/cell, ~128 MB at the cap) stops being a trivial footprint;
#: huge problems take the matrix-free rolling path.
_BAND_MAX_CELLS = 1 << 24
#: A corridor covering more than this fraction of the matrix is no
#: corridor; fall through to the full sweep.
_BAND_MAX_COVERAGE = 0.6


@dataclass(frozen=True)
class MatchedPair:
    """One DTW match: node ``i`` of trace P with node ``j`` of trace N."""

    i: int
    j: int
    cost: float


def dtw_match(
    nodes_p: Sequence[Point], nodes_q: Sequence[Point]
) -> Tuple[List[MatchedPair], float]:
    """Optimal monotone node matching and its total cost.

    ``C[i][j]`` is the minimum cost of matching the first ``i`` nodes of P
    with the first ``j`` of N; transitions come from ``C[i-1][j]``,
    ``C[i][j-1]`` and ``C[i-1][j-1]`` plus the pair distance ``d(i, j)``
    (Eq. 17).  The matched pairs are restored by backtracking from
    ``C[I][J]``; every node appears in at least one pair.

    Problems of ``_BAND_MIN_CELLS`` to ``_BAND_MAX_CELLS`` cells first
    try the certified corridor (see :func:`_certified_window`) and fall
    back to the full sweep when it would not pay; the returned matching
    is the full recurrence's optimum either way.
    """
    # Always-on observability (counter + latency histogram, ~1 µs —
    # every non-trivial call runs a DP orders of magnitude costlier);
    # extension iterations read the counter to attribute DTW work.
    _METRICS.inc("repro_dtw_calls_total")
    _t0 = time.perf_counter()
    try:
        I, J = len(nodes_p), len(nodes_q)
        if I == 0 or J == 0:
            return [], 0.0
        if _BAND_MIN_CELLS <= I * J <= _BAND_MAX_CELLS:
            window = _certified_window(nodes_p, nodes_q)
            if window is not None:
                result = _dtw_sweep(nodes_p, nodes_q, window)
                if result is not None:
                    return result
        result = _dtw_sweep(nodes_p, nodes_q, None)
        assert result is not None  # the full window is always connected
        return result
    finally:
        _METRICS.observe("repro_dtw_seconds", time.perf_counter() - _t0)


# -- the rolling-row core ---------------------------------------------------------------


def _dtw_sweep(
    nodes_p: Sequence[Point],
    nodes_q: Sequence[Point],
    window: Optional[List[Tuple[int, int]]],
) -> Optional[Tuple[List[MatchedPair], float]]:
    """One DP sweep over ``window`` (``None`` = the full matrix).

    ``window[i-1]`` is the inclusive 1-based column interval computed for
    row ``i``; cells outside it are treated as unreachable.  Returns
    ``None`` when no monotone path survives the window (disconnected
    corridor) — callers fall back to the full sweep.

    Memory: two ``J+1`` float rows plus one backpointer byte per cell
    (0 = diagonal, 1 = from ``i-1``, 2 = from ``j-1``), instead of the
    dense recurrence's two float matrices.
    """
    I, J = len(nodes_p), len(nodes_q)
    prev = [_INF] * (J + 1)
    prev[0] = 0.0
    moves: List[bytearray] = []
    for i in range(1, I + 1):
        pi = nodes_p[i - 1]
        lo, hi = (1, J) if window is None else window[i - 1]
        curr = [_INF] * (J + 1)
        mrow = bytearray(J + 1)
        for j in range(lo, hi + 1):
            # Same candidate order and strict-< preference as the
            # dense recurrence: diagonal, then up, then left.
            best = prev[j - 1]
            move = 0
            if prev[j] < best:
                best = prev[j]
                move = 1
            if curr[j - 1] < best:
                best = curr[j - 1]
                move = 2
            if best < _INF:
                curr[j] = best + pi.distance_to(nodes_q[j - 1])
                mrow[j] = move
        moves.append(mrow)
        prev = curr
    total = prev[J]
    if total == _INF:
        return None
    pairs: List[MatchedPair] = []
    i, j = I, J
    while i > 0 and j > 0:
        pairs.append(
            MatchedPair(i - 1, j - 1, nodes_p[i - 1].distance_to(nodes_q[j - 1]))
        )
        move = moves[i - 1][j]
        if move == 0:
            i -= 1
            j -= 1
        elif move == 1:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs, total


# -- the certified corridor -------------------------------------------------------------


def _certified_window(
    nodes_p: Sequence[Point], nodes_q: Sequence[Point]
) -> Optional[List[Tuple[int, int]]]:
    """Per-row column intervals provably containing every optimal path.

    The pruning argument (the classic admissible lower bound): let ``ub``
    be the cost of *any* monotone warp path (here: a proportional
    staircase).  A warp path visits at least one cell in every row and
    every column, so a path through cell ``(i, j)`` costs at least
    ``d(i, j) + max(sum of other rows' minima, sum of other columns'
    minima)``.  If that exceeds ``ub``, no optimal path can touch
    ``(i, j)``.  The surviving mask therefore contains every cell of
    every optimal path; restricting the DP to it (padded to a connected
    monotone envelope, which only adds cells) leaves every optimal
    path's value — and the backtrack's argmin choices along it —
    untouched, so the corridor sweep returns the full recurrence's
    matching exactly.  A small slack absorbs float rounding between the numpy
    mask arithmetic and the DP's scalar sums.

    In the MSDTW regime (near-parallel sub-traces, matches within the
    ``sqrt(2)·r`` bound) the row/column minima sit near the true path
    costs, so the corridor hugs the diagonal at roughly the match-bound
    width; on unstructured inputs it fattens and the coverage gate
    routes to the full sweep.
    """
    I, J = len(nodes_p), len(nodes_q)
    px = np.fromiter((pt.x for pt in nodes_p), dtype=float, count=I)
    py = np.fromiter((pt.y for pt in nodes_p), dtype=float, count=I)
    qx = np.fromiter((pt.x for pt in nodes_q), dtype=float, count=J)
    qy = np.fromiter((pt.y for pt in nodes_q), dtype=float, count=J)
    dist = np.hypot(px[:, None] - qx[None, :], py[:, None] - qy[None, :])

    ub = _staircase_cost(dist)
    rowmin = dist.min(axis=1)
    colmin = dist.min(axis=0)
    row_rest = rowmin.sum() - rowmin  # lower bound from the other rows
    col_rest = colmin.sum() - colmin  # ... and the other columns
    slack = 1e-9 * (1.0 + ub)
    threshold = (
        np.minimum((ub - row_rest)[:, None], (ub - col_rest)[None, :]) + slack
    )
    mask = dist <= threshold
    if not mask.any(axis=1).all():  # pragma: no cover - excluded by the bound
        return None
    lo = mask.argmax(axis=1) + 1                      # first True, 1-based
    hi = J - mask[:, ::-1].argmax(axis=1)             # last True, 1-based

    # Monotone envelope: non-decreasing upper bounds, every row reachable
    # from its predecessor, corners included — only ever *adds* cells.
    window: List[Tuple[int, int]] = []
    prev_hi = 1
    for i in range(I):
        w_lo = 1 if i == 0 else min(int(lo[i]), prev_hi + 1)
        w_hi = max(int(hi[i]), prev_hi)
        window.append((w_lo, w_hi))
        prev_hi = w_hi
    need = J
    for i in range(I - 1, -1, -1):
        w_lo, w_hi = window[i]
        if w_hi >= need:
            break
        window[i] = (w_lo, need)
        need = max(w_lo - 1, 1)

    area = sum(w_hi - w_lo + 1 for w_lo, w_hi in window)
    if area >= _BAND_MAX_COVERAGE * I * J:
        return None
    return window


def _staircase_cost(dist) -> float:
    """Cost of a proportional monotone staircase — a valid warp path.

    Any monotone path from ``(0, 0)`` to ``(I-1, J-1)`` upper-bounds the
    DTW optimum; walking both indexes in proportion keeps the bound
    tight on the near-parallel sequences MSDTW feeds in.
    """
    I, J = dist.shape
    i = j = 0
    total = float(dist[0, 0])
    while i < I - 1 or j < J - 1:
        if i == I - 1:
            j += 1
        elif j == J - 1:
            i += 1
        elif (i + 1) * (J - 1) <= j * (I - 1):
            i += 1
        elif (j + 1) * (I - 1) <= i * (J - 1):
            j += 1
        else:
            i += 1
            j += 1
        total += float(dist[i, j])
    return total
