"""The dense-matrix DTW recurrence (test oracle).

The original Eq. (17) implementation: it materialises the full I×J
distance matrix and the (I+1)×(J+1) cost matrix, then backtracks by
``min`` over the three predecessors.  :func:`repro.dtw.dtw_match`
(rolling rows, certified corridor) must agree with it bit for bit, and
the MSDTW equivalence tests route through it by monkeypatching.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.dtw import MatchedPair
from repro.geometry import Point


def dtw_match_reference(
    nodes_p: Sequence[Point], nodes_q: Sequence[Point]
) -> Tuple[List[MatchedPair], float]:
    """The original dense-matrix recurrence, kept as the test oracle.

    Materialises the full I×J distance matrix and the (I+1)×(J+1) cost
    matrix; :func:`dtw_match` must agree with it bit for bit (same
    floating-point operation order, same tie preference).
    """
    I, J = len(nodes_p), len(nodes_q)
    if I == 0 or J == 0:
        return [], 0.0
    INF = float("inf")
    # C[i][j] over 1-based sizes; C[0][0] = 0, first row/col unreachable
    # except through the corner (DTW boundary condition).
    C = [[INF] * (J + 1) for _ in range(I + 1)]
    C[0][0] = 0.0
    dist = [
        [nodes_p[i].distance_to(nodes_q[j]) for j in range(J)] for i in range(I)
    ]
    for i in range(1, I + 1):
        row = C[i]
        prev = C[i - 1]
        drow = dist[i - 1]
        for j in range(1, J + 1):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if row[j - 1] < best:
                best = row[j - 1]
            if best < INF:
                row[j] = best + drow[j - 1]
    # Backtrack from C[I][J] to C[0][0].
    pairs: List[MatchedPair] = []
    i, j = I, J
    while i > 0 and j > 0:
        pairs.append(MatchedPair(i - 1, j - 1, dist[i - 1][j - 1]))
        candidates = (
            (C[i - 1][j - 1], i - 1, j - 1),
            (C[i - 1][j], i - 1, j),
            (C[i][j - 1], i, j - 1),
        )
        _, i, j = min(candidates, key=lambda t: t[0])
    pairs.reverse()
    return pairs, C[I][J]
