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
DP reads its exact heights on demand from per-foot side values, with an
O(1) range-minimum test for a node in the pair's URA
(:meth:`ShrinkEnvironment.box_index`); the scalar fixpoint runs only
for pairs that have one.  The two sides of a segment share one
environment's x-derived arrays (:meth:`ShrinkEnvironment.mirrored`), and
:func:`foot_sides` evaluates both sides' crossings in one pass.
``tests/oracles/shrink.py`` keeps the seed's polygon-and-range-tree
implementation, and ``tests/core/test_shrink_fast.py`` diffs the two bit
for bit.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Point, Polygon
from .ura import URA

#: Strictness margin for inside/outside decisions: geometry touching a
#: border exactly meets the clearance rule and must not trigger shrinking.
TOUCH_EPS = 1e-7

#: Most (abscissa, edge) pairs one side-crossing block can evaluate; keeps
#: the kernel's temporaries small on windows with many edges.
SIDE_BLOCK = 1 << 16


class ShrinkEnvironment:
    """All foreign geometry of one segment extension, in the local frame.

    The polygons are everything the URA must not intersect: inflated
    obstacles, the routable-area boundary, clearance hulls of other traces
    and of the trace's own non-adjacent segments.  ``xs``/``ys`` are their
    concatenated vertex coordinates and ``sizes`` the per-polygon vertex
    counts; :meth:`from_polygons` builds the arrays from
    :class:`~repro.geometry.Polygon` objects.  The environment is built
    once per segment and side (the other side as its :meth:`mirrored`
    twin) and queried by the DP for up to O(n^2) foot pairs, so
    construction is a handful of O(N) array ops.

    Query results do not depend on evaluation order: the same float
    expressions evaluate elementwise (IEEE-754 ops are deterministic per
    element), the same strict/touching comparisons select candidates, and
    reductions are plain minima.
    """

    def __init__(self, xs, ys, sizes):
        self._xs = xs
        self._sizes = sizes
        ends = np.cumsum(sizes)
        self._starts = ends - sizes
        self._pid_of_node = np.repeat(np.arange(len(sizes)), sizes)
        n = len(xs)
        # Edge i runs from vertex i to the next vertex of the same polygon,
        # wrapping at polygon boundaries.
        self._next = np.arange(1, n + 1)
        if n:
            self._next[ends - 1] = self._starts
        self._bx = xs[self._next] if n else xs
        # Each edge's x-extent, for pairing side lines with edges.
        self._edge_lo = np.minimum(xs, self._bx)
        self._edge_hi = np.maximum(xs, self._bx)
        # Nodes sorted by x for the column-bound windowed minimum and the
        # box test's x-windows.
        self._order = np.argsort(xs, kind="stable")
        self._xs_sorted = xs[self._order]
        #: The environment this one mirrors (:meth:`mirrored`), if any.
        self.mirror_of: Optional[ShrinkEnvironment] = None
        self._set_ys(ys)

    def _set_ys(self, ys) -> None:
        """Install the ordinates and everything derived from them."""
        self._ys = ys
        self._by = ys[self._next] if len(ys) else ys
        self._ys_sorted = ys[self._order]
        # Nodes at or below TOUCH_EPS never bound a column (strict
        # interior rule); mask them to +inf once.
        self._col_ys = np.where(self._ys_sorted > TOUCH_EPS, self._ys_sorted, np.inf)
        self._poly_cache: Dict[int, Tuple[Point, ...]] = {}
        # x -> lowest crossing ordinate of the side line at x (inf when
        # none).  The crossing set does not depend on the current h_ob,
        # so one evaluation serves every shrink of the environment.
        self._side_memo: Dict[float, float] = {}

    def mirrored(self) -> "ShrinkEnvironment":
        """The environment of the segment's other side: every ordinate
        negated, which is what the mirrored local frame produces.

        The twin shares this environment's x-derived arrays (edges, x
        order) and has ``mirror_of`` set to it, so :func:`foot_sides`
        can serve both from one pass.
        """
        twin = copy.copy(self)
        twin._set_ys(-self._ys)
        twin.mirror_of = self
        return twin

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
        return self._side_minima(xs, None)[0]

    def _side_minima(self, xs, twin):
        """S over ``xs`` for this environment and, when ``twin`` is its
        :meth:`mirrored` twin, for the twin from the same crossings.

        The twin's crossing ordinate is exactly ``-y``: its edge ends are
        ``-ay``/``-by`` at the same ``t``, and ``(-by) - (-ay)``, the
        product and the sum each round to the negation of this
        environment's value.  So its S is the minimum of ``-y`` over
        ``-y > TOUCH_EPS``.
        """
        xs = np.asarray(xs, dtype=float)
        order = xs.argsort(kind="stable")
        lines = xs[order]
        envs = (self,) if twin is None else (self, twin)
        outs = [np.full(len(xs), np.inf) for _ in envs]
        if len(self._xs):
            rows = max(1, SIDE_BLOCK // len(self._xs))
            for lo in range(0, len(lines), rows):
                block = order[lo : lo + rows]
                line, y = self._side_block(lines[lo : lo + rows])
                outs[0][block] = _lowest(line, y, len(block))
                if twin is not None:
                    outs[1][block] = _lowest(line, -y, len(block))
        keys = xs.tolist()
        for env, out in zip(envs, outs):
            env._side_memo.update(zip(keys, out.tolist()))
        return outs

    def _side_block(self, lines):
        """Every strict crossing over ascending ``lines``: the line index
        and the crossing ordinate of each."""
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
        return line[keep], ay + (self._by[e] - ay) * t

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
        return self._column_min(*self._column_windows(xs, g))

    def _column_windows(self, xs, g: float):
        """``[lo, hi)`` ranges of the x-sorted nodes strictly inside each
        column; x-derived, so a :meth:`mirrored` twin shares them."""
        xs = np.asarray(xs)
        lo = np.searchsorted(self._xs_sorted, xs - g + TOUCH_EPS, side="right")
        hi = np.searchsorted(self._xs_sorted, xs + g - TOUCH_EPS, side="left")
        return lo, hi

    def _column_min(self, lo, hi):
        """The lowest masked ordinate over each ``[lo, hi)`` window."""
        if len(self._xs_sorted) == 0:
            return np.full(len(lo), np.inf)
        # minimum.reduceat over interleaved [lo, hi) pairs; the +inf
        # sentinel keeps hi == len legal, empty windows are patched after.
        arr = np.append(self._col_ys, np.inf)
        idx = np.stack([lo, hi], axis=1).ravel()
        mins = np.minimum.reduceat(arr, idx)[::2]
        return np.where(lo < hi, mins, np.inf)

    # -- the P_check box test over a foot grid (DP) ------------------------------

    def box_index(self, xs, g: float, h_init: float):
        """What the DP needs to test, in O(1) per foot pair over the grid
        ``xs``, whether a node lies in the closed box the scalar
        fixpoint starts from (``P_check``, Sec. IV-D).

        The box of feet ``xs[il]``/``xs[ir]`` is ``[(x_l - g) +
        TOUCH_EPS, (x_r + g) - TOUCH_EPS] x [TOUCH_EPS, h2 - TOUCH_EPS]``.
        Only nodes with ``TOUCH_EPS <= y <= (h_init + g) - TOUCH_EPS``
        can lie in one (``h2 <= h_init + g`` and rounding is monotone);
        sorted by x, the pair's nodes are the run ``[lo[il], hi[ir])``.
        Returns ``(lo, hi, levels)``: ``levels[k][j]`` is the lowest
        ordinate of the kept nodes ``j .. j + 2**k - 1`` (a sparse
        table), so two entries give the run's lowest node, and the pair
        is busy exactly when that node is at or under ``h2 - TOUCH_EPS``.
        """
        ys = self._ys_sorted
        keep = (ys >= TOUCH_EPS) & (ys <= (h_init + g) - TOUCH_EPS)
        kept_xs = self._xs_sorted[keep]
        lo = kept_xs.searchsorted((xs - g) + TOUCH_EPS, side="left").tolist()
        hi = kept_xs.searchsorted((xs + g) - TOUCH_EPS, side="right").tolist()
        level = ys[keep]
        levels = [level.tolist()]
        span = 1
        while 2 * span <= len(levels[0]):
            level = np.minimum(level[:-span], level[span:])
            levels.append(level.tolist())
            span *= 2
        return lo, hi, levels

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


def _lowest(line, y, count: int):
    """Per line index below ``count``, the minimum of ``y`` over
    ``y > TOUCH_EPS`` (inf when none)."""
    sel = y > TOUCH_EPS
    out = np.full(count, np.inf)
    np.minimum.at(out, line[sel], y[sel])
    return out


def foot_sides(envs: Dict[int, ShrinkEnvironment], xs, g: float):
    """Per direction, the DP's per-foot inputs over the grid ``xs``: S on
    every foot's outer side lines (``xs - g``, then ``xs + g``) and the
    column node bounds, with the side memos filled.

    When ``envs[-1]`` is ``envs[1]``'s :meth:`~ShrinkEnvironment.mirrored`
    twin, as the extender builds them, one crossing pass and one column
    window search serve both sides.
    """
    xs = np.asarray(xs, dtype=float)
    lines = np.concatenate([xs - g, xs + g])
    pos, neg = envs[1], envs[-1]
    if neg.mirror_of is pos:
        sides = pos._side_minima(lines, neg)
        windows = pos._column_windows(xs, g)
        return {
            1: (sides[0], pos._column_min(*windows)),
            -1: (sides[1], neg._column_min(*windows)),
        }
    return {
        d: (env.side_minima(lines), env.column_bounds(xs, g))
        for d, env in envs.items()
    }
