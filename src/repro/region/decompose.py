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
the trace's segments — the exact value ``Segment.distance_to_point``
gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import EPS, Point, Polygon, rectangle
from ..model import Board, Trace

#: Cells per block of the per-trace distance kernel.  Its work arrays
#: are (block cells x trace segments), so this bounds their memory.
BLOCK_CELLS = 256

#: Relative margin above the decision threshold within which a pair's
#: ``np.hypot`` distance is replaced by the exact ``math.hypot`` one.
#: The two differ by at most one ulp (~2e-16 relative).
_HYPOT_MARGIN = 1e-12


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


@dataclass
class Decomposition:
    """The grid, plus trace adjacency used by the LP."""

    regions: List[Region]
    neighbours: Dict[str, List[int]]   # trace name -> region indices
    #: Exact centre-to-path distance by (region index, trace name), for
    #: every pair where the trace crosses or neighbours the region.
    distances: Dict[Tuple[int, str], float] = field(default_factory=dict)

    def region(self, index: int) -> Region:
        return self.regions[index]


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


def _segment_arrays(pts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``a``, ``v = b - a`` and the clamped-projection denominator of
    every segment of the chain ``pts`` (``Segment.project_param``'s
    terms)."""
    ax, ay = pts[:-1, 0], pts[:-1, 1]
    vx = pts[1:, 0] - ax
    vy = pts[1:, 1] - ay
    den = vx * vx + vy * vy
    degenerate = den <= EPS * EPS
    return ax, ay, vx, vy, np.where(degenerate, 1.0, den), degenerate


def _block_offsets(
    px: np.ndarray, py: np.ndarray, segs: Tuple[np.ndarray, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """(cells x segments) offsets from each centre's closest point on
    each segment to the centre, bit-identical to
    ``Segment.closest_point(p) - p``."""
    ax, ay, vx, vy, den, degenerate = segs
    px = px[:, None]
    py = py[:, None]
    t = ((px - ax) * vx + (py - ay) * vy) / den
    t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
    t = np.where(degenerate, 0.0, t)
    return (ax + vx * t) - px, (ay + vy * t) - py


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
    band = float(cutoff.max()) if n else 0.0

    crossed: List[List[str]] = [[] for _ in range(n)]
    neighbours: Dict[str, List[int]] = {t.name: [] for t in traces}
    distances: Dict[Tuple[int, str], float] = {}
    for trace in traces:
        pts = np.array([(p.x, p.y) for p in trace.path.points], dtype=np.float64)
        segs = _segment_arrays(pts)
        (txmin, tymin), (txmax, tymax) = pts.min(axis=0), pts.max(axis=0)
        # Cells whose centre is farther than the band from the trace's
        # bounding box cannot be within it; the slack covers the rounding
        # of a projected point past the box.
        scale = 1.0 + max(abs(xmin), abs(ymin), abs(xmax), abs(ymax))
        scale += float(np.abs(pts).max())
        pad = band + 1e-9 * (band + scale)
        window = np.flatnonzero(
            (mx >= txmin - pad)
            & (mx <= txmax + pad)
            & (my >= tymin - pad)
            & (my <= tymax + pad)
        )
        near_cells: List[np.ndarray] = []
        exact: List[float] = []
        for start in range(0, len(window), BLOCK_CELLS):
            block = window[start:start + BLOCK_CELLS]
            dx, dy = _block_offsets(mx[block], my[block], segs)
            near = np.hypot(dx, dy).min(axis=1) <= cutoff[block]
            if not near.any():
                continue
            near_cells.append(block[near])
            exact.extend(
                min(map(math.hypot, rx, ry))
                for rx, ry in zip(dx[near].tolist(), dy[near].tolist())
            )
        if not exact:
            continue
        cells = np.concatenate(near_cells)
        dist = np.array(exact)
        is_crossed = dist <= half_diag[cells]
        is_neighbour = dist <= reach
        name = trace.name
        for index in cells[is_crossed].tolist():
            crossed[index].append(name)
        neighbours[name] = cells[is_neighbour].tolist()
        keep = is_crossed | is_neighbour
        for index, d in zip(cells[keep].tolist(), dist[keep].tolist()):
            distances[(index, name)] = d

    capacities = capacity.tolist()
    regions: List[Region] = []
    for y0, y1 in zip(row0.tolist(), row_upper):
        for x0, x1 in zip(col0.tolist(), col_upper):
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
    return Decomposition(regions=regions, neighbours=neighbours, distances=distances)
