"""URA shrinking — the paper's Alg. 2 and Eqs. (10)-(13).

Given a candidate pattern's feet, the *maximum valid height* is found by
creating the URA at the full remaining extension requirement and shrinking
its outer border until no DRC violation remains.  Monotonicity does NOT
hold (a shrunk pattern may newly intersect an obstacle that used to lie
inside it), which is why the procedure shrinks from the top instead of
binary searching.

Shrinking proceeds in the order the paper derives:

1. **Sides** (Eq. 11): every polygon edge that properly crosses one of the
   two vertical side lines within the outer border pulls ``h_ob`` down to
   the lowest crossing ordinate.  After this step no polygon enters the
   outer rectangle through a side, so any remaining violator has a node
   strictly inside the outer border (the paper's key observation).
2. **Hat / node checks** (Eq. 12, Alg. 2): polygons with nodes both inside
   and outside the outer border pull ``h_ob`` below their lowest inside
   node; iterated because shrinking can expose new violators.
3. **Inner border** (Eq. 13): polygons entirely inside the outer border
   must lie inside the *inner* border (then the pattern legally routes
   around them); otherwise ``h_ob`` drops below the polygon's lowest node.
   Also iterated (Fig. 8).

Distances use the ordinate (distance to the segment's supporting line)
rather than the Euclidean distance to the finite segment; the ordinate is
never larger, so the result is conservative — a valid height is always
DRC-clean.

The environment keeps the foreign geometry as flat numpy coordinate
arrays: the ``P_check`` node query of Sec. IV-D is one vectorized box
mask, side-line crossings are evaluated for a batch of abscissas at once
and memoized per abscissa, and the per-column node bound the DP uses as
an admissible upper-bound prefilter is one windowed-minimum sweep.  The
DP's exact heights come from one batch pass over its foot pairs
(:meth:`ShrinkEnvironment.pair_heights`); the scalar fixpoint runs only
for pairs with a node inside the URA.
``tests/oracles/shrink.py`` keeps the seed's polygon-and-range-tree
implementation, and ``tests/core/test_shrink_fast.py`` diffs the two bit
for bit.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..geometry import Point, Polygon
from .ura import URA

#: Strictness margin for inside/outside decisions: geometry touching a
#: border exactly meets the clearance rule and must not trigger shrinking.
TOUCH_EPS = 1e-7

#: Most (abscissa, edge) pairs one side-crossing block can evaluate; keeps
#: the kernel's temporaries small on windows with many edges.
SIDE_BLOCK = 1 << 16

#: Most entries of one temporary of :meth:`ShrinkEnvironment.pair_heights`:
#: foot pairs per block, and (node, foot) pairs of its box test.
PAIR_BLOCK = 1 << 16


class ShrinkEnvironment:
    """All foreign geometry of one segment extension, in the local frame.

    The polygons are everything the URA must not intersect: inflated
    obstacles, the routable-area boundary, clearance hulls of other traces
    and of the trace's own non-adjacent segments.  ``xs``/``ys`` are their
    concatenated vertex coordinates and ``sizes`` the per-polygon vertex
    counts; :meth:`from_polygons` builds the arrays from
    :class:`~repro.geometry.Polygon` objects.  The environment is built
    once per (segment, direction) and queried O(n^2) times by the DP, so
    construction is a handful of O(N) array ops.

    Query results do not depend on evaluation order: the same float
    expressions evaluate elementwise (IEEE-754 ops are deterministic per
    element), the same strict/touching comparisons select candidates, and
    reductions are plain minima.
    """

    def __init__(self, xs, ys, sizes):
        self._xs = xs
        self._ys = ys
        self._sizes = sizes
        ends = np.cumsum(sizes)
        self._starts = ends - sizes
        self._pid_of_node = np.repeat(np.arange(len(sizes)), sizes)
        n = len(xs)
        # Edge i runs from vertex i to the next vertex of the same polygon,
        # wrapping at polygon boundaries.
        nxt = np.arange(1, n + 1)
        if n:
            nxt[ends - 1] = self._starts
        self._bx = xs[nxt] if n else xs
        self._by = ys[nxt] if n else ys
        # Each edge's x-extent, for pairing side lines with edges.
        self._edge_lo = np.minimum(xs, self._bx)
        self._edge_hi = np.maximum(xs, self._bx)
        # Nodes sorted by x for the column-bound windowed minimum.
        order = np.argsort(xs, kind="stable")
        self._xs_sorted = xs[order]
        ys_sorted = ys[order]
        # Nodes at or below TOUCH_EPS never bound a column (strict
        # interior rule); mask them to +inf once.
        self._col_ys = np.where(ys_sorted > TOUCH_EPS, ys_sorted, np.inf)
        self._poly_cache: Dict[int, Tuple[Point, ...]] = {}
        # x -> lowest crossing ordinate of the side line at x (inf when
        # none).  The crossing set does not depend on the current h_ob,
        # so one evaluation serves every shrink of the environment.
        self._side_memo: Dict[float, float] = {}

    @classmethod
    def from_polygons(cls, polygons: Sequence[Polygon]) -> "ShrinkEnvironment":
        """An environment over local-frame :class:`Polygon` objects."""
        xs = np.array([p.x for poly in polygons for p in poly.points], dtype=float)
        ys = np.array([p.y for poly in polygons for p in poly.points], dtype=float)
        sizes = np.array([len(poly.points) for poly in polygons], dtype=np.intp)
        return cls(xs, ys, sizes)

    # -- node and polygon access -------------------------------------------------

    def _nodes_in_box(self, xmin, xmax, ymin, ymax):
        """Node ids inside the closed box, in ascending id order.

        Ascending order is the canonical candidate order of the shrink
        fixpoint.
        """
        mask = (
            (self._xs >= xmin)
            & (self._xs <= xmax)
            & (self._ys >= ymin)
            & (self._ys <= ymax)
        )
        return np.nonzero(mask)[0]

    def _poly_points(self, pid: int) -> Tuple[Point, ...]:
        """Vertices of polygon ``pid`` as Point objects (cached)."""
        pts = self._poly_cache.get(pid)
        if pts is None:
            s = int(self._starts[pid])
            e = s + int(self._sizes[pid])
            pts = tuple(
                Point(float(x), float(y))
                for x, y in zip(self._xs[s:e], self._ys[s:e])
            )
            self._poly_cache[pid] = pts
        return pts

    # -- side crossings (Eq. 11) -------------------------------------------------

    def side_bound(self, x: float, h_ob: float) -> float:
        """Lowest ordinate at which an edge properly crosses the vertical
        side line at ``x`` within (TOUCH_EPS, h_ob); ``h_ob`` when none does.

        Only *strict* sign changes count: edges touching or running along
        the side line meet the clearance exactly and are legal.  Edges
        entering through a vertex on the line are caught by the node phase
        (the vertex is a node inside the border).  With S(x) the crossing
        minimum above TOUCH_EPS, the answer is S(x) when S(x) < h_ob and
        h_ob otherwise — so S(x) memoizes across the many h_ob values the
        DP probes at the same foot abscissas.
        """
        s = self._side_memo.get(x)
        if s is None:
            s = float(self.side_minima([x])[0])
        return s if s < h_ob else h_ob

    def side_minima(self, xs):
        """S(x) for a batch of abscissas (inf where no edge crosses),
        memoized for :meth:`side_bound`.

        Each element is the expression a scalar scan evaluates —
        ``t = da / (da - db)``, ``y = ay + (by - ay) * t`` over the edges
        whose ends lie strictly on opposite sides of the line — reduced by
        a plain minimum over ``y > TOUCH_EPS``.  Only (line, edge) pairs
        whose line lies strictly inside the edge's x-extent are evaluated:
        ``dxa > TOUCH_EPS > 0`` implies ``xa > x`` exactly (a rounded
        difference keeps its sign), so every crossing is among them.  The
        sorted lines are processed in blocks of at most
        :data:`SIDE_BLOCK` / E lines, which bounds the pairs per block.
        """
        xs = np.asarray(xs, dtype=float)
        order = xs.argsort(kind="stable")
        lines = xs[order]
        out = np.full(len(xs), np.inf)
        if len(self._xs):
            rows = max(1, SIDE_BLOCK // len(self._xs))
            for lo in range(0, len(lines), rows):
                block = order[lo : lo + rows]
                out[block] = self._side_block(lines[lo : lo + rows])
        self._side_memo.update(zip(xs.tolist(), out.tolist()))
        return out

    def _side_block(self, lines):
        """S over ascending ``lines``."""
        first = lines.searchsorted(self._edge_lo, side="right")
        counts = lines.searchsorted(self._edge_hi, side="left") - first
        counts = np.maximum(counts, 0)
        # Pair p covers edge[p] and line[p]; each edge's lines are a run.
        edge = np.arange(len(counts)).repeat(counts)
        run_start = counts.cumsum() - counts - first
        line = np.arange(len(edge)) - run_start.repeat(counts)
        x = lines[line]
        dxa = self._xs[edge] - x
        dxb = self._bx[edge] - x
        # Strict sign changes only: both ends strictly on opposite sides.
        keep = ((dxa > TOUCH_EPS) & (dxb < -TOUCH_EPS)) | (
            (dxa < -TOUCH_EPS) & (dxb > TOUCH_EPS)
        )
        da = dxa[keep]
        db = dxb[keep]
        e = edge[keep]
        t = da / (da - db)
        ay = self._ys[e]
        y = ay + (self._by[e] - ay) * t
        sel = y > TOUCH_EPS
        out = np.full(len(lines), np.inf)
        np.minimum.at(out, line[keep][sel], y[sel])
        return out

    def _side_values(self, lines):
        """S at each of ``lines``: the memoized values, or one batch pass
        when any is missing."""
        try:
            return np.fromiter(
                map(self._side_memo.__getitem__, lines.tolist()), float, len(lines)
            )
        except KeyError:
            return self.side_minima(lines)

    # -- column node bound (DP prefilter) -----------------------------------------

    def column_bounds(self, xs, g: float):
        """Lowest node ordinate in the column ``(x-g, x+g)`` of each
        abscissa (inf if none), in one windowed-minimum sweep.

        Any node in a pattern's arm strip with ordinate y forces
        ``h_ob <= y``, so ``min - g`` is an *admissible upper bound* for
        the height at a foot placed at ``x`` — the DP uses it to skip
        hopeless exact shrinks.  Strict interior only, matching the
        shrinker's touching semantics: the window is open at both ends,
        because a node exactly at ``x - g + TOUCH_EPS`` is not inside the
        outer border of a left foot, and one exactly at
        ``x + g - TOUCH_EPS`` is inside the inner border, where an
        enclosed polygon does not shrink ``h_ob``.
        """
        xs = np.asarray(xs)
        lo = np.searchsorted(self._xs_sorted, xs - g + TOUCH_EPS, side="right")
        hi = np.searchsorted(self._xs_sorted, xs + g - TOUCH_EPS, side="left")
        if len(self._xs_sorted) == 0:
            return np.full(len(xs), np.inf)
        # minimum.reduceat over interleaved [lo, hi) pairs; the +inf
        # sentinel keeps hi == len legal, empty windows are patched after.
        arr = np.append(self._col_ys, np.inf)
        idx = np.stack([lo, hi], axis=1).ravel()
        mins = np.minimum.reduceat(arr, idx)[::2]
        return np.where(lo < hi, mins, np.inf)

    # -- batched heights over a foot grid (DP) -----------------------------------------

    def pair_heights(self, xs, g, h_init, h_min, w_min, w_max):
        """:meth:`max_pattern_height` of the foot pairs over the grid
        ``xs`` wherever the answer needs no fixpoint, in one pass.

        Returns an ``(n, n)`` table indexed ``[il, ir]`` for feet at
        ``xs[il]``/``xs[ir]``, filled on the bounding box of the band
        ``w_min <= ir - il <= w_max`` with the scalar shrink's height bit
        for bit.  It is NaN outside that box and at *busy* pairs, those
        with a node in the closed box the fixpoint starts from
        (``P_check``, Sec. IV-D).

        Each element is the scalar shrink's expression, in its order:
        ``h2 = min(min(h_init + g, S(x_l - g)), S(x_r + g))`` and
        ``h = min(h_init, h2 - g)``.  The scalar returns 0 when
        ``h_init``, ``h1 - g`` or ``h2 - g`` lies below ``h_min`` and
        floors ``h`` at ``h_min``; since ``h2 <= h1`` and rounding is
        monotone, all four tests are ``h < h_min``.

        The box is ``[(x_l - g) + TOUCH_EPS, (x_r + g) - TOUCH_EPS] x
        [TOUCH_EPS, h2 - TOUCH_EPS]``.  Monotone rounding also makes
        ``h2 - TOUCH_EPS`` the smaller of ``h1 - TOUCH_EPS`` and
        ``S(x_r + g) - TOUCH_EPS``, so a node lies in the box exactly
        when it passes a test on the left foot alone and one on the
        right foot alone; a pair is busy when some node passes both, a
        0/1 matrix product over the nodes.  Only nodes with ``TOUCH_EPS
        <= y <= (h_init + g) - TOUCH_EPS`` can pass (``h2 <= h_init +
        g``).  Right feet are processed in blocks of at most
        :data:`PAIR_BLOCK` / n pairs; with more than :data:`PAIR_BLOCK`
        (node, foot) entries every pair the side step keeps is NaN.
        """
        xs = np.asarray(xs, dtype=float)
        n = len(xs)
        out = np.full((n, n), np.nan)
        h1 = np.minimum(h_init + g, self._side_values(xs - g))
        side_r = self._side_values(xs + g)
        keep = (self._ys >= TOUCH_EPS) & (self._ys <= (h_init + g) - TOUCH_EPS)
        node_xs = self._xs[keep][:, None]
        node_ys = self._ys[keep][:, None]
        m = len(node_xs)
        box_test = 0 < m and m * n <= PAIR_BLOCK
        if box_test:
            in_left = (node_xs >= (xs - g) + TOUCH_EPS) & (node_ys <= h1 - TOUCH_EPS)
            in_right = (node_xs <= (xs + g) - TOUCH_EPS) & (
                node_ys <= side_r - TOUCH_EPS
            )
            in_left = in_left.T.astype(float)
            in_right = in_right.astype(float)
        cols = max(1, PAIR_BLOCK // max(n, 1))
        for lo in range(w_min, n, cols):
            hi = min(n, lo + cols)
            left = slice(max(0, lo - w_max), hi - w_min)
            h2 = np.minimum(h1[left, None], side_r[lo:hi])
            h = np.minimum(h_init, h2 - g)
            valid = h >= h_min
            if box_test:
                h = np.where(in_left[left] @ in_right[:, lo:hi] > 0.0, np.nan, h)
            elif m:
                h = np.full_like(h, np.nan)
            out[left, lo:hi] = np.where(valid, h, 0.0)
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
        # borders, iterated to the fixpoint.  P_check is the closed-box
        # node query of Sec. IV-D.
        candidate_ids = self._nodes_in_box(
            xl_out + TOUCH_EPS, xr_out - TOUCH_EPS, TOUCH_EPS, h_ob - TOUCH_EPS
        )
        # Owning polygons in ascending node-id order (first sighting wins).
        active: Dict[int, bool] = dict.fromkeys(
            self._pid_of_node[candidate_ids].tolist(), True
        )

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
