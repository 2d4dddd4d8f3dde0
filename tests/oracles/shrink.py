"""The polygon-based URA shrink environment (test oracle).

The seed implementation of Alg. 2 / Eqs. (10)-(13), kept verbatim: built
from :class:`~repro.geometry.Polygon` objects, nodes indexed by the
Sec. IV-D range tree (:mod:`oracles.rangequery`), every query a scalar
Python loop.  Production's :class:`repro.core.shrink.ShrinkEnvironment`
answers the same queries over flat numpy arrays;
``tests/core/test_shrink_fast.py`` diffs the two bit for bit.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.shrink import TOUCH_EPS
from repro.core.ura import URA
from repro.geometry import Point, Polygon

from .rangequery import PointRangeTree


class ShrinkEnvironment:
    """All foreign geometry of one segment extension, in the local frame.

    ``polygons`` are everything the URA must not intersect: inflated
    obstacles, the routable-area boundary, clearance hulls of other traces
    and of the trace's own non-adjacent segments.  The environment is
    built once per (segment, direction) and queried O(n^2) times by the DP.
    """

    def __init__(self, polygons: Sequence[Polygon]):
        self.polygons: List[Tuple[Point, ...]] = [tuple(p.points) for p in polygons]
        nodes: List[Point] = []
        node_poly: List[int] = []
        edges: List[Tuple[Point, Point]] = []
        edge_min_x: List[float] = []
        edge_max_x: List[float] = []
        for pid, pts in enumerate(self.polygons):
            n = len(pts)
            for i in range(n):
                nodes.append(pts[i])
                node_poly.append(pid)
                a, b = pts[i], pts[(i + 1) % n]
                edges.append((a, b))
                edge_min_x.append(min(a.x, b.x))
                edge_max_x.append(max(a.x, b.x))
        self.nodes = nodes
        self.node_poly = node_poly
        self.edges = edges
        self.tree = PointRangeTree(nodes)
        # Edge interval index: edges sorted by xmin, with a running suffix
        # check via sorted xmin + per-query xmax filter.  For the edge
        # counts in play (hundreds), a bucket grid keeps side queries fast.
        self._edge_order = sorted(range(len(edges)), key=lambda i: edge_min_x[i])
        self._edge_min_sorted = [edge_min_x[i] for i in self._edge_order]
        self._edge_max = edge_max_x
        self._edge_min = edge_min_x
        # Node index sorted by x for the column-bound prefilter.
        self._nodes_by_x = sorted(range(len(nodes)), key=lambda i: nodes[i].x)
        self._node_xs = [nodes[i].x for i in self._nodes_by_x]

    # -- side crossings (Eq. 11) -------------------------------------------------

    def _edges_spanning(self, x: float) -> List[int]:
        """Edges whose x-interval contains ``x`` (candidates for crossing)."""
        hi = bisect.bisect_right(self._edge_min_sorted, x)
        return [
            self._edge_order[k]
            for k in range(hi)
            if self._edge_max[self._edge_order[k]] >= x
        ]

    def side_bound(self, x: float, h_ob: float) -> float:
        """Lowest ordinate at which an edge properly crosses the vertical
        side line at ``x`` within (0, h_ob]; ``h_ob`` when none does.

        Only *strict* sign changes count: edges touching or running along
        the side line meet the clearance exactly and are legal.  Edges
        entering through a vertex on the line are caught by the node phase
        (the vertex is a node inside the border).
        """
        best = h_ob
        for idx in self._edges_spanning(x):
            a, b = self.edges[idx]
            dxa, dxb = a.x - x, b.x - x
            if dxa > TOUCH_EPS and dxb > TOUCH_EPS:
                continue
            if dxa < -TOUCH_EPS and dxb < -TOUCH_EPS:
                continue
            if abs(dxa) <= TOUCH_EPS or abs(dxb) <= TOUCH_EPS:
                continue  # touching / vertex-on-line: node phase handles it
            t = dxa / (dxa - dxb)
            y = a.y + (b.y - a.y) * t
            if TOUCH_EPS < y < best:
                best = y
        return best

    def side_minima(self, xs: Sequence[float]) -> List[float]:
        """S(x), the lowest crossing above TOUCH_EPS (inf when none), for
        each abscissa: the scalar loop behind the DP's per-foot bounds."""
        return [self.side_bound(float(x), math.inf) for x in xs]

    # -- column node bound (DP prefilter) -----------------------------------------

    def column_node_bound(self, x: float, g: float) -> float:
        """Lowest node ordinate in the column ``(x-g, x+g)`` (inf if none).

        Any node in a pattern's arm strip with ordinate y forces
        ``h_ob <= y``, so ``min - g`` is an *admissible upper bound* for
        the height at a foot placed at ``x`` — the DP uses it to skip
        hopeless exact shrinks.  Strict interior only, matching the
        shrinker's touching semantics.
        """
        lo = bisect.bisect_right(self._node_xs, x - g + TOUCH_EPS)
        hi = bisect.bisect_left(self._node_xs, x + g - TOUCH_EPS)
        best = math.inf
        for k in range(lo, hi):
            y = self.nodes[self._nodes_by_x[k]].y
            if y > TOUCH_EPS and y < best:
                best = y
        return best

    def column_bounds(self, xs: Sequence[float], g: float) -> List[float]:
        """:meth:`column_node_bound` for a batch of abscissas.

        The DP calls this once per (segment, direction) for all ``n``
        discretization points; the vector backend answers it in one
        windowed-minimum sweep instead of ``n`` scalar queries.
        """
        return [self.column_node_bound(x, g) for x in xs]

    # -- backend primitives (overridden by the vector backend) --------------------

    def _nodes_in_box(
        self, xmin: float, xmax: float, ymin: float, ymax: float
    ) -> Sequence[int]:
        """Node ids inside the closed box, in ascending id order.

        Ascending order is the canonical candidate order of the shrink
        fixpoint — independent of which index structure found the nodes,
        so both backends seed the fixpoint identically.
        """
        return sorted(self.tree.query(xmin, xmax, ymin, ymax))

    def _node_pid(self, nid: int) -> int:
        """Owning polygon id of node ``nid``."""
        return self.node_poly[nid]

    def _poly_points(self, pid: int) -> Tuple[Point, ...]:
        """Vertices of polygon ``pid`` as Point objects."""
        return self.polygons[pid]

    # -- batched heights over a foot grid (DP) -----------------------------------------

    def pair_heights(self, xs, g, h_init, h_min, w_min, w_max):
        """:meth:`max_pattern_height` of every foot pair in the band
        ``w_min <= ir - il <= w_max`` over the grid ``xs``, as an
        ``(n, n)`` table indexed ``[il, ir]`` (NaN outside the band).

        The table :mod:`oracles.dp` reads on this environment, by the
        scalar shrink: it never leaves a pair in the band to the caller.
        """
        n = len(xs)
        out = np.full((n, n), np.nan)
        for ir in range(n):
            for il in range(max(0, ir - w_max), ir - w_min + 1):
                out[il, ir] = self.max_pattern_height(
                    float(xs[il]), float(xs[ir]), g, h_init, h_min
                )
        return out

    # -- the full shrink (Alg. 2 + Eqs. 10-13) ---------------------------------------

    def max_pattern_height(
        self,
        x_left: float,
        x_right: float,
        g: float,
        h_init: float,
        h_min: float,
        allow_enclosed: bool = True,
    ) -> float:
        """Maximum valid pattern height for feet at ``x_left``/``x_right``.

        ``h_init`` is the remaining extension requirement over two (the
        paper starts the URA at the full remaining requirement);
        ``h_min`` is the smallest useful height (``d_protect`` — the legs
        are segments of length h).  Returns 0 when no valid pattern of at
        least ``h_min`` exists.

        ``allow_enclosed=False`` disables the inner-border exception:
        every polygon inside the outer border forces shrinking below it.
        This is the "without DP" ablation's behaviour (fixed-track routers
        cannot route patterns around obstacles).
        """
        if h_init < h_min:
            return 0.0
        h_ob = h_init + g
        xl_out = x_left - g
        xr_out = x_right + g

        # Step 1 — sides.
        h_ob = min(h_ob, self.side_bound(xl_out, h_ob))
        if h_ob - g < h_min:
            return 0.0
        h_ob = min(h_ob, self.side_bound(xr_out, h_ob))
        if h_ob - g < h_min:
            return 0.0

        # Steps 2+3 — node checks against the (shrinking) outer and inner
        # borders, iterated to the fixpoint.  P_check comes from the range
        # tree exactly as in Sec. IV-D.
        candidate_ids = self._nodes_in_box(
            xl_out + TOUCH_EPS, xr_out - TOUCH_EPS, TOUCH_EPS, h_ob - TOUCH_EPS
        )
        active: Dict[int, bool] = {}
        for nid in candidate_ids:
            active[self._node_pid(nid)] = True

        changed = True
        while changed and active:
            changed = False
            ura = URA(x_left, x_right, g, h_ob)
            for pid in list(active):
                pts = self._poly_points(pid)
                inside = [p for p in pts if ura.point_inside_outer(p, TOUCH_EPS)]
                if not inside:
                    del active[pid]
                    continue
                if len(inside) < len(pts):
                    # Straddling polygon: shrink below its lowest inside
                    # node (Eq. 12).
                    bound = min(p.y for p in inside)
                else:
                    # Entirely inside the outer border.
                    if allow_enclosed and all(
                        ura.point_inside_inner(p, TOUCH_EPS) for p in pts
                    ):
                        continue  # legally enclosed: route around it
                    # Violates the inner border: shrink below the whole
                    # polygon (Eq. 13).
                    bound = min(p.y for p in pts)
                new_h_ob = min(h_ob, bound)
                del active[pid]
                if new_h_ob < h_ob - TOUCH_EPS:
                    h_ob = new_h_ob
                    changed = True
                if h_ob - g < h_min:
                    return 0.0

        h = min(h_init, h_ob - g)
        return h if h >= h_min else 0.0
