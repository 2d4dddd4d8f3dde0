"""Layout decomposition into candidate routing regions.

Sec. III divides "the design according to its layout to compose several
regions"; any decomposition works as long as capacities and adjacencies
are meaningful.  We use a uniform grid clipped to the board outline:
cells overlapping obstacles lose the overlap from their capacity, and a
cell neighbours a trace when it lies within a configurable reach of the
trace's path (constraint (1)'s neighbour validity).

The grid is computed as numpy arrays.  Centre-to-segment distances use
the same elementwise IEEE expressions as ``Segment.project_param`` and
``Segment.point_at``, so every projected point is bit-identical to the
scalar geometry's.  Only the final ``hypot`` differs: ``np.hypot`` and
``math.hypot`` disagree in the last bit on a small share of inputs, so
``np.hypot`` merely filters, and every (cell, trace) pair that lands
near the crossed/neighbour threshold is decided by ``math.hypot`` over
the segments whose ``np.hypot`` is within a margin of the closest one —
the exact value ``Segment.distance_to_point`` gives.

The result stays arrays: no Python object is built per grid cell unless
a caller reads :attr:`Decomposition.regions`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..geometry import EPS, Point, Polygon, rectangle
from ..model import Board, Trace

#: Most (cell, segment) pairs the distance kernel holds at once (and
#: most (trace, cell) pairs its window test does): its work arrays are
#: this long, so this bounds their memory.
BLOCK_PAIRS = 1 << 17

#: Relative margin above the decision threshold within which a pair's
#: ``np.hypot`` distance is replaced by the exact ``math.hypot`` one.
#: The two differ by at most one ulp (~2e-16 relative).
_HYPOT_MARGIN = 1e-12

#: Absolute slack on that margin, for distances so small that one ulp
#: is no longer relative (subnormals).
_HYPOT_FLOOR = 1e-300


@dataclass(frozen=True)
class Region:
    """One candidate routing region (a grid cell)."""

    index: int
    xmin: float
    ymin: float
    xmax: float
    ymax: float
    capacity: float          # usable area after obstacle deduction
    crossed_by: Tuple[str, ...] = ()   # traces whose path enters the cell

    def rect(self) -> Tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    def polygon(self) -> Polygon:
        return rectangle(self.xmin, self.ymin, self.xmax, self.ymax)

    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)


class Pairs(NamedTuple):
    """Every (trace, cell) pair where the trace crosses or neighbours the
    cell, trace by trace in input order, each trace's cells ascending."""

    trace: np.ndarray        # index into Decomposition.traces
    cell: np.ndarray         # cell index
    distance: np.ndarray     # exact centre-to-path distance
    crossed: np.ndarray      # the path enters the cell (bool)
    neighbour: np.ndarray    # the cell lies within reach (bool)


_NO_PAIRS = Pairs(
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
    np.zeros(0),
    np.zeros(0, dtype=bool),
    np.zeros(0, dtype=bool),
)


class _Regions(SequenceABC):
    """``Decomposition.regions``: its length is the cell count, and the
    :class:`Region` objects are built on first element access."""

    def __init__(self, deco: "Decomposition") -> None:
        self._deco = deco
        self._items: Optional[List[Region]] = None

    def _list(self) -> List[Region]:
        if self._items is None:
            self._items = self._deco._build_regions()
        return self._items

    def __len__(self) -> int:
        return len(self._deco.capacity)

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self) -> Iterator[Region]:
        return iter(self._list())

    def __repr__(self) -> str:
        return repr(self._list())


@dataclass
class Decomposition:
    """The grid, plus trace adjacency used by the LP, as arrays.

    Cells are numbered row-major, rows slow.  ``columns`` and ``rows``
    hold each axis's lower and upper cell bounds as Python numbers (an
    upper bound the outline clips is the outline's own number); the
    per-cell :class:`Region` objects, the neighbour lists and the
    distance map are built from the arrays only when read.
    """

    columns: Tuple[List[float], List[float]]
    rows: Tuple[List[float], List[float]]
    capacity: np.ndarray                  # usable area per cell
    traces: Tuple[str, ...]               # trace names, input order
    pairs: Pairs

    @cached_property
    def regions(self) -> Sequence[Region]:
        return _Regions(self)

    @cached_property
    def neighbours(self) -> Dict[str, List[int]]:
        """Trace name -> indices of the cells within reach."""
        pairs = self.pairs
        near = pairs.neighbour
        trace = pairs.trace[near]
        bounds = np.cumsum(np.bincount(trace, minlength=len(self.traces)))[:-1]
        cells = np.split(pairs.cell[near], bounds)
        return {name: c.tolist() for name, c in zip(self.traces, cells)}

    @cached_property
    def distances(self) -> Dict[Tuple[int, str], float]:
        """Exact centre-to-path distance by (region index, trace name),
        for every pair where the trace crosses or neighbours the region."""
        names = self.traces
        pairs = self.pairs
        return {
            (index, names[j]): d
            for j, index, d in zip(
                pairs.trace.tolist(), pairs.cell.tolist(), pairs.distance.tolist()
            )
        }

    def region(self, index: int) -> Region:
        return self.regions[index]

    def rects(self, indices: Iterable[int]) -> List[Tuple[float, float, float, float]]:
        """``Region.rect()`` of each cell, without building the regions."""
        (x0, x1), (y0, y1) = self.columns, self.rows
        ncols = len(x0)
        out = []
        for index in indices:
            iy, ix = divmod(index, ncols)
            out.append((x0[ix], y0[iy], x1[ix], y1[iy]))
        return out

    def _build_regions(self) -> List[Region]:
        crossed: List[List[str]] = [[] for _ in range(len(self.capacity))]
        pairs = self.pairs
        hit = pairs.crossed
        for j, index in zip(pairs.trace[hit].tolist(), pairs.cell[hit].tolist()):
            crossed[index].append(self.traces[j])
        capacities = self.capacity.tolist()
        regions: List[Region] = []
        for y0, y1 in zip(*self.rows):
            for x0, x1 in zip(*self.columns):
                index = len(regions)
                regions.append(
                    Region(
                        index=index,
                        xmin=x0,
                        ymin=y0,
                        xmax=x1,
                        ymax=y1,
                        capacity=capacities[index],
                        crossed_by=tuple(crossed[index]),
                    )
                )
        return regions


def _grid_axis(
    lo: float, hi: float, cell: float
) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Cell bounds along one axis, dropping empty trailing cells.

    The third item repeats the upper bounds as Python numbers, with
    ``hi`` itself (not its float) where the outline clips the cell, as
    ``min(c0 + cell, hi)`` returns it.
    """
    n = max(1, int(math.ceil((hi - lo) / cell)))
    c0 = lo + np.arange(n, dtype=np.float64) * cell
    clipped = c0 + cell > hi
    c1 = np.where(clipped, hi, c0 + cell)
    keep = c1 - c0 > 0
    c0, c1, clipped = c0[keep], c1[keep], clipped[keep]
    upper = [hi if clip else v for v, clip in zip(c1.tolist(), clipped.tolist())]
    return c0, c1, upper


def _half_diagonals(widths: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """``math.hypot(w, h) / 2`` per cell, row-major, evaluated once per
    distinct (width, height)."""
    wu, winv = np.unique(widths, return_inverse=True)
    hu, hinv = np.unique(heights, return_inverse=True)
    table = np.array(
        [[math.hypot(w, h) for w in wu.tolist()] for h in hu.tolist()],
        dtype=np.float64,
    ).reshape(len(hu), len(wu))
    return (table[hinv][:, winv] / 2.0).ravel()


def _segment_arrays(pts: np.ndarray, first: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``a``, ``v = b - a`` and the clamped-projection denominator of
    every segment of the chains stored back to back in ``pts`` (chain
    ``j`` starts at row ``first[j]``): ``Segment.project_param``'s
    terms."""
    starts = np.ones(len(pts), dtype=bool)
    starts[np.r_[first[1:], len(pts)] - 1] = False  # a chain's last point
    a = np.flatnonzero(starts)
    ax, ay = pts[a, 0], pts[a, 1]
    vx = pts[a + 1, 0] - ax
    vy = pts[a + 1, 1] - ay
    den = vx * vx + vy * vy
    degenerate = den <= EPS * EPS
    return ax, ay, vx, vy, np.where(degenerate, 1.0, den), degenerate


def _pair_offsets(
    px: np.ndarray, py: np.ndarray, segs: Tuple[np.ndarray, ...], seg: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per (centre, segment) pair, the offset from the centre's closest
    point on the segment to the centre, bit-identical to
    ``Segment.closest_point(p) - p``."""
    ax, ay, vx, vy, den, degenerate = (arr[seg] for arr in segs)
    t = ((px - ax) * vx + (py - ay) * vy) / den
    t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
    t = np.where(degenerate, 0.0, t)
    return (ax + vx * t) - px, (ay + vy * t) - py


def _exact_min_hypot(
    dx: np.ndarray,
    dy: np.ndarray,
    dist: np.ndarray,
    closest: np.ndarray,
    group: np.ndarray,
) -> np.ndarray:
    """Per group of pairs, ``min(map(math.hypot, dx, dy))``.

    ``group`` numbers each pair's group (non-decreasing), ``dist`` is
    ``np.hypot(dx, dy)`` and ``closest`` its group minimum, repeated per
    pair.  The two hypots differ by an ulp at most, so only the pairs
    whose ``np.hypot`` lies within the margin of the group minimum can
    hold the exact minimum; ``math.hypot`` runs on those alone (usually
    one per group).
    """
    pick = np.flatnonzero(dist <= closest * (1.0 + _HYPOT_MARGIN) + _HYPOT_FLOOR)
    exact = list(map(math.hypot, dx[pick].tolist(), dy[pick].tolist()))
    group_start = np.flatnonzero(np.diff(group[pick], prepend=-1) != 0)
    return np.minimum.reduceat(np.array(exact), group_start)


def decompose(
    board: Board,
    traces: Sequence[Trace],
    cell: float,
    reach: Optional[float] = None,
) -> Decomposition:
    """Grid decomposition of ``board`` for the given traces.

    ``cell`` is the grid pitch; ``reach`` the neighbour-validity distance
    (default: two cells).  Capacity deducts the bounding-box overlap with
    obstacles — an over-estimate of the loss, which only makes the LP more
    conservative.
    """
    if not (math.isfinite(cell) and cell > 0):
        raise ValueError("cell size must be positive and finite")
    reach = reach if reach is not None else 2.0 * cell
    xmin, ymin, xmax, ymax = board.outline.bounds()
    col0, col1, col_upper = _grid_axis(xmin, xmax, cell)
    row0, row1, row_upper = _grid_axis(ymin, ymax, cell)
    ncols, nrows = len(col0), len(row0)
    n = ncols * nrows

    # Row-major cells, rows slow: the scalar loop's iy-outer order.
    cx0 = np.tile(col0, nrows)
    cx1 = np.tile(col1, nrows)
    cy0 = np.repeat(row0, ncols)
    cy1 = np.repeat(row1, ncols)
    area = (cx1 - cx0) * (cy1 - cy0)
    blocked = np.zeros(n)
    for obstacle in board.obstacles:  # accumulated in board order
        oxmin, oymin, oxmax, oymax = obstacle.bounds()
        ox = np.maximum(0.0, np.minimum(cx1, oxmax) - np.maximum(cx0, oxmin))
        oy = np.maximum(0.0, np.minimum(cy1, oymax) - np.maximum(cy0, oymin))
        blocked += ox * oy
    capacity = np.maximum(0.0, area - blocked)
    mx = (cx0 + cx1) / 2.0
    my = (cy0 + cy1) / 2.0
    half_diag = _half_diagonals(col1 - col0, row1 - row0)
    # A pair can only matter below max(half_diag, reach); fmax keeps the
    # scalar loop's behaviour for a NaN reach (never a neighbour).
    threshold = np.fmax(half_diag, reach)
    cutoff = threshold * (1.0 + _HYPOT_MARGIN)
    return Decomposition(
        columns=(col0.tolist(), col_upper),
        rows=(row0.tolist(), row_upper),
        capacity=capacity,
        traces=tuple(t.name for t in traces),
        pairs=_trace_pairs(
            traces, mx, my, half_diag, cutoff, reach, (xmin, ymin, xmax, ymax)
        ),
    )


def _trace_pairs(
    traces: Sequence[Trace],
    mx: np.ndarray,
    my: np.ndarray,
    half_diag: np.ndarray,
    cutoff: np.ndarray,
    reach: float,
    outline: Tuple[float, float, float, float],
) -> Pairs:
    """The (trace, cell) pairs of every trace at once: the cells in each
    trace's padded bounding box, then one row per trace segment."""
    n = len(mx)
    if not traces or not n:
        return _NO_PAIRS
    # Every trace's points back to back; chain j starts at row first[j].
    pts = np.array(
        [(p.x, p.y) for t in traces for p in t.path.points], dtype=np.float64
    )
    n_points = np.array([len(t.path.points) for t in traces])
    first = np.cumsum(n_points) - n_points
    segs = _segment_arrays(pts, first)
    n_segs = n_points - 1
    first_seg = np.cumsum(n_segs) - n_segs
    # Cells whose centre is farther than the band from a trace's bounding
    # box cannot be within it; the slack covers the rounding of a
    # projected point past the box.
    band = float(cutoff.max())
    tmin = np.minimum.reduceat(pts, first, axis=0)
    tmax = np.maximum.reduceat(pts, first, axis=0)
    scale = 1.0 + max(abs(v) for v in outline)
    scale = scale + np.maximum.reduceat(np.abs(pts).max(axis=1), first)
    pad = band + 1e-9 * (band + scale)
    lo_x, lo_y = tmin[:, 0] - pad, tmin[:, 1] - pad
    hi_x, hi_y = tmax[:, 0] + pad, tmax[:, 1] + pad

    found: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    per_block = max(1, BLOCK_PAIRS // n)
    for t0 in range(0, len(traces), per_block):
        window = slice(t0, t0 + per_block)
        inside = (
            (mx >= lo_x[window, None])
            & (mx <= hi_x[window, None])
            & (my >= lo_y[window, None])
            & (my <= hi_y[window, None])
        )
        pair_trace, pair_cell = np.nonzero(inside)  # trace-major, cells ascending
        pair_trace += t0
        rows = n_segs[pair_trace]
        ends = np.cumsum(rows)
        lo = done = 0
        while lo < len(pair_trace):
            hi = max(lo + 1, int(np.searchsorted(ends, done + BLOCK_PAIRS, "right")))
            tr, cells, k = pair_trace[lo:hi], pair_cell[lo:hi], rows[lo:hi]
            group = np.repeat(np.arange(hi - lo), k)
            seg = np.arange(len(group)) - np.repeat(np.cumsum(k) - k - first_seg[tr], k)
            dx, dy = _pair_offsets(mx[cells][group], my[cells][group], segs, seg)
            dist = np.hypot(dx, dy)
            closest = np.minimum.reduceat(dist, np.cumsum(k) - k)
            close = closest <= cutoff[cells]
            if close.any():
                keep = close[group]
                exact = _exact_min_hypot(
                    dx[keep], dy[keep], dist[keep], closest[group][keep], group[keep]
                )
                found.append((tr[close], cells[close], exact))
            done = int(ends[hi - 1])
            lo = hi
    if not found:
        return _NO_PAIRS
    tr, cells, dist = (np.concatenate(parts) for parts in zip(*found))
    crossed = dist <= half_diag[cells]
    neighbour = dist <= reach
    keep = crossed | neighbour
    return Pairs(tr[keep], cells[keep], dist[keep], crossed[keep], neighbour[keep])
