"""Orthogonal range queries over polygon node points (test oracle).

The oracle shrink environment (:mod:`oracles.shrink`) answers its
``P_check`` queries with this tree, exactly as the paper states it; the
production environment replaces it with one vectorized box mask.

Implements the data structure of the paper's Sec. IV-D: a segment tree
over the abscissa ranks of the node points, where every tree node stores
its points sorted by ordinate.  A query with the URA's outer border
``[xA, xC] x [yD, yB]`` descends O(log N) tree nodes and binary-searches
each node's ordinate list, giving the claimed O(log^2 N + k) reporting
cost and O(N log N) space (every point appears in at most log N nodes).
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

from repro.geometry import Point


class PointRangeTree:
    """Static 2-D range reporting structure over a fixed point set.

    Points are indexed by their position in the constructor sequence so
    callers can map reported points back to owning polygons.
    """

    def __init__(self, points: Sequence[Point]):
        self._points = list(points)
        order = sorted(range(len(self._points)), key=lambda i: self._points[i].x)
        self._xs = [self._points[i].x for i in order]
        self._order = order
        n = len(order)
        self._n = n
        # self._nodes[v] holds (y, original_index) pairs sorted by y for the
        # x-rank interval the tree node v covers.
        self._nodes: List[List[Tuple[float, int]]] = [[] for _ in range(4 * max(n, 1))]
        if n:
            self._build(1, 0, n - 1)

    def __len__(self) -> int:
        return self._n

    def _build(self, v: int, lo: int, hi: int) -> None:
        idxs = self._order[lo : hi + 1]
        self._nodes[v] = sorted(
            ((self._points[i].y, i) for i in idxs), key=lambda t: t[0]
        )
        if lo == hi:
            return
        mid = (lo + hi) // 2
        self._build(2 * v, lo, mid)
        self._build(2 * v + 1, mid + 1, hi)

    # -- queries ---------------------------------------------------------------

    def query(
        self, xmin: float, xmax: float, ymin: float, ymax: float
    ) -> List[int]:
        """Indices of points with ``xmin <= x <= xmax`` and ``ymin <= y <= ymax``.

        This realises the paper's ``P_check`` initialisation: the x-range is
        located by binary search on the sorted abscissas, the tree is
        descended, and each covered node is sliced by binary search on the
        ordinates.
        """
        if self._n == 0 or xmin > xmax or ymin > ymax:
            return []
        lo = bisect.bisect_left(self._xs, xmin)
        hi = bisect.bisect_right(self._xs, xmax) - 1
        if lo > hi:
            return []
        out: List[int] = []
        self._query(1, 0, self._n - 1, lo, hi, ymin, ymax, out)
        return out

    def _query(
        self,
        v: int,
        node_lo: int,
        node_hi: int,
        lo: int,
        hi: int,
        ymin: float,
        ymax: float,
        out: List[int],
    ) -> None:
        if hi < node_lo or node_hi < lo:
            return
        if lo <= node_lo and node_hi <= hi:
            ys = self._nodes[v]
            start = bisect.bisect_left(ys, (ymin, -1))
            stop = bisect.bisect_right(ys, (ymax, float("inf")))
            out.extend(idx for _, idx in ys[start:stop])
            return
        mid = (node_lo + node_hi) // 2
        self._query(2 * v, node_lo, mid, lo, hi, ymin, ymax, out)
        self._query(2 * v + 1, mid + 1, node_hi, lo, hi, ymin, ymax, out)

    def query_points(
        self, xmin: float, xmax: float, ymin: float, ymax: float
    ) -> List[Point]:
        """Like :meth:`query` but returning the points themselves."""
        return [self._points[i] for i in self.query(xmin, xmax, ymin, ymax)]


def brute_force_range(
    points: Sequence[Point], xmin: float, xmax: float, ymin: float, ymax: float
) -> List[int]:
    """Reference O(N) implementation used as a test oracle."""
    return [
        i
        for i, p in enumerate(points)
        if xmin <= p.x <= xmax and ymin <= p.y <= ymax
    ]
