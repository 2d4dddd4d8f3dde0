"""Composite geometric operations.

Hosts the algorithms that combine the primitive classes: polyline
offsetting (differential-pair restoration), polyline containment, and
rectilinear cell-union boundary extraction (routable areas built from
region-assignment cells).
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .polygon import ROUND_REL, Polygon
from .polyline import Polyline
from .primitives import EPS, Point
from .segment import Segment


def offset_polyline(line: Polyline, distance: float) -> Polyline:
    """Parallel curve of ``line`` at signed ``distance``.

    Positive distance offsets to the *left* of the direction of travel.
    Joints are mitered (offset lines intersected), matching how a
    differential pair straddles its median trace; near-straight joints fall
    back to the plain normal offset to avoid ill-conditioned intersections.
    """
    if abs(distance) <= EPS:
        return line
    pts = line.points
    n = len(pts)
    out: List[Point] = []
    normals = []
    for i in range(n - 1):
        seg = Segment(pts[i], pts[i + 1])
        if seg.is_degenerate():
            normals.append(normals[-1] if normals else Point(0.0, 1.0))
        else:
            normals.append(seg.normal())
    out.append(pts[0] + normals[0] * distance)
    for i in range(1, n - 1):
        n1, n2 = normals[i - 1], normals[i]
        bisector = n1 + n2
        bl = bisector.norm()
        if bl <= EPS:
            # U-turn: cannot miter; insert both square offsets.
            out.append(pts[i] + n1 * distance)
            out.append(pts[i] + n2 * distance)
            continue
        bisector = bisector / bl
        cos_half = bisector.dot(n1)
        if cos_half <= 0.05:
            out.append(pts[i] + n1 * distance)
            out.append(pts[i] + n2 * distance)
            continue
        out.append(pts[i] + bisector * (distance / cos_half))
    out.append(pts[-1] + normals[-1] * distance)
    return Polyline(out)


def polyline_inside_polygon(line: Polyline, poly: Polygon, eps: float = EPS) -> bool:
    """True when the whole polyline lies inside ``poly``.

    Checks every node for containment and every segment against boundary
    crossings, which is exact for simple polygons.  Only (segment, edge)
    pairs whose boxes come within :func:`_intersection_reach` of each
    other get the exact intersection test: a pair farther apart cannot
    report an intersection, so the verdict is the all-pairs one.
    """
    if any(not poly.contains_point(p, eps) for p in line.points):
        return False
    segs = line.segments()
    if not segs:
        return True
    edges = poly.edges()
    boxes, _, _, poly_scale = poly._edge_boxes()
    ex0, ey0, ex1, ey1 = np.array(boxes).T
    pts = np.array([(p.x, p.y) for p in line.points])
    a, b = pts[:-1], pts[1:]
    sx0, sy0 = np.minimum(a[:, 0], b[:, 0]), np.minimum(a[:, 1], b[:, 1])
    sx1, sy1 = np.maximum(a[:, 0], b[:, 0]), np.maximum(a[:, 1], b[:, 1])
    scale = max(poly_scale, float(np.abs(pts).max()))
    reach = _intersection_reach(np.hypot(ex1 - ex0, ey1 - ey0), scale, eps)
    near = (
        (sx0[:, None] <= ex1 + reach)
        & (ex0 - reach <= sx1[:, None])
        & (sy0[:, None] <= ey1 + reach)
        & (ey0 - reach <= sy1[:, None])
    )
    for si, ei in zip(*np.nonzero(near)):
        seg = segs[si]
        if edges[ei].intersection(seg, eps) is None:
            continue
        # Touching the boundary is fine; crossing it is not.  Probe a
        # point slightly inside each half of the segment.
        for t in (0.25, 0.5, 0.75):
            if not poly.contains_point(seg.point_at(t), eps):
                return False
    return True


def _intersection_reach(edge_lengths, scale: float, eps: float):
    """Per edge, a distance beyond which ``edge.intersection(seg, eps)``
    is ``None`` for every segment, given all coordinates are at most
    ``scale`` in magnitude.  Without a positive ``eps`` there is no such
    distance to prove, so every pair is kept.

    Crossing lines count only where they meet within ``eps`` of both
    segments, misplaced by rounding by about ``2**-46 * scale / eps``
    (the cross product they divide by is at least ``eps`` times both
    lengths), far below ``ROUND_REL * scale / eps``.  Near-parallel
    pairs go to the collinear test, which accepts ends within
    ``eps * max(1, 1 / L)`` of the edge's line and parameters ``eps``
    past its ends, i.e. ``eps * L`` along it; an edge shorter than
    ``eps`` accepts points within ``eps`` of its start.
    """
    if eps <= 0:
        return np.inf
    lengths = np.maximum(edge_lengths, eps)
    return eps * (2.0 + lengths + 1.0 / lengths) + scale * ROUND_REL / eps


# -- rectilinear cell unions ----------------------------------------------------


#: ``math.atan2`` of the unit vector of each direction code of the union
#: walk: 0 is +x, 1 is +y, 2 is -x, 3 is -y.
_ANGLES = tuple(
    math.atan2(dy, dx) for dx, dy in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
)

#: ``_TURN[prev][d]``: how far left a step in direction ``d`` turns after
#: a step in ``prev``; the walk takes the largest (the left-most turn).
_TURN = tuple(
    tuple((angle - prev + math.pi) % (2 * math.pi) for angle in _ANGLES)
    for prev in _ANGLES
)

#: A cell's four sides in CCW order as (runs along y, fixed bound, from
#: bound, to bound), each bound an index into (xmin, ymin, xmax, ymax).
_SIDES = np.array(
    [(0, 1, 0, 2), (1, 2, 1, 3), (0, 3, 2, 0), (1, 0, 3, 1)], dtype=np.int64
)


def cells_union_boundary(
    cells: Iterable[Tuple[float, float, float, float]]
) -> List[Polygon]:
    """Boundary polygons of a union of axis-aligned rectangles.

    The rectangles must be non-overlapping (region-assignment cells are).
    Every side of every cell is split at the union's cut coordinates
    into unit edges, walked CCW, so partially overlapping boundaries of
    unequal cells cancel exactly: a unit edge added against a surviving
    opposite one cancels it, and the survivors keep the order in which
    they (last) appeared.  The boundary is then walked from its lowest
    node, turning left-most where several edges leave a node, so holes
    separate from shells (outer boundaries CCW, holes CW).  Every node
    keeps the number object of the cell bound it came from.
    """
    return cells_union_boundaries([cells])[0]


def cells_union_boundaries(
    unions: Sequence[Iterable[Tuple[float, float, float, float]]]
) -> List[List[Polygon]]:
    """:func:`cells_union_boundary` of each union, the edge work done
    for all of them in one pass of array operations."""
    cells = [list(group) for group in unions]
    sizes = [len(group) for group in cells]
    n = sum(sizes)
    if not n:
        return [[] for _ in sizes]
    # Every bound rounded to 9 decimals, each distinct bound object once
    # (``cells`` keeps them alive while their ids key the memo).
    raw = [
        v
        for group in cells
        for (xmin, ymin, xmax, ymax) in group
        for v in (xmin, ymin, xmax, ymax)
    ]
    memo = {id(v): v for v in raw}
    memo = {key: round(v, 9) for key, v in memo.items()}
    objs = [memo[id(v)] for v in raw]  # number objects, 4 per cell
    bounds = np.array(objs, dtype=np.float64).reshape(n, 4)
    union = np.repeat(np.arange(len(sizes)), sizes)

    # Each union's cuts per axis, numbered across unions in (union,
    # value) order; a cut's number object is its first occurrence among
    # the union's lower bounds, then its upper bounds.
    grid = np.empty((n, 4), dtype=np.int64)
    cut_obj = []
    for axis in (0, 1):
        value = np.concatenate((bounds[:, axis], bounds[:, axis + 2]))
        owner = np.concatenate((union, union))
        order = np.lexsort((value, owner))
        new_cut = np.r_[True, (np.diff(value[order]) != 0) | (np.diff(owner[order]) != 0)]
        cut = np.empty(2 * n, dtype=np.int64)
        cut[order] = np.cumsum(new_cut) - 1
        grid[:, axis], grid[:, axis + 2] = cut[:n], cut[n:]
        first = order[new_cut]
        cut_obj.append(np.where(first < n, 4 * first + axis, 4 * (first - n) + axis + 2))
    nx, ny = len(cut_obj[0]), len(cut_obj[1])
    cut_obj = np.concatenate(cut_obj)  # x cuts, then y cuts

    # One row per cell side, cell by cell, then one per unit edge along it.
    vertical = np.tile(_SIDES[:, 0], n).astype(bool)
    bound_obj = 4 * np.arange(n)[:, None]
    fixed_obj = (bound_obj + _SIDES[:, 1]).ravel()
    from_obj = (bound_obj + _SIDES[:, 2]).ravel()
    to_obj = (bound_obj + _SIDES[:, 3]).ravel()
    fixed = grid[:, _SIDES[:, 1]].ravel()
    begin = grid[:, _SIDES[:, 2]].ravel()
    span = grid[:, _SIDES[:, 3]].ravel() - begin
    length = np.abs(span)
    side = np.repeat(np.arange(4 * n), length)
    step = np.sign(span)[side]
    k = np.arange(len(side)) - np.repeat(np.cumsum(length) - length, length)
    a = begin[side] + k * step
    b = a + step
    vert = vertical[side]
    fix = fixed[side]
    unit = np.where(
        vert,
        nx * ny + fix * ny + np.minimum(a, b),
        fix * nx + np.minimum(a, b),
    )

    # Signed count per unit edge (+1 along the axis): the running count
    # leaving zero (re)inserts the edge, and the survivors are the edges
    # whose count ends non-zero, at their last insertion.
    order = np.argsort(unit, kind="stable")
    signs = step[order]
    starts = np.flatnonzero(np.diff(unit[order], prepend=-1) != 0)
    ends = np.r_[starts[1:], len(order)] - 1
    total = np.cumsum(signs)
    running = total - np.repeat(total[starts] - signs[starts], ends - starts + 1)
    entered = np.where(running == signs, np.arange(len(order)), -1)
    net = running[ends]
    alive = net != 0
    first_seen = order[np.maximum.reduceat(entered, starts)[alive]]
    by_insertion = np.argsort(first_seen)
    edge = np.repeat(first_seen[by_insertion], np.abs(net[alive])[by_insertion])

    # Per surviving edge, union by union: its nodes (x cut * ny + y cut),
    # direction and the number objects of its coordinates.
    side, k, vert, fix, a, b = side[edge], k[edge], vert[edge], fix[edge], a[edge], b[edge]
    src = np.where(vert, fix * ny + a, a * ny + fix).tolist()
    dst = np.where(vert, fix * ny + b, b * ny + fix).tolist()
    direction = (vert + 1 - step[edge]).tolist()
    fixed_at = fixed_obj[side]
    along_a = np.where(k == 0, from_obj[side], cut_obj[a + vert * nx])
    along_b = np.where(k == length[side] - 1, to_obj[side], cut_obj[b + vert * nx])
    # Number objects of each edge's start (x, y) and end (x, y).
    ends_obj = np.where(
        vert, (fixed_at, along_a, fixed_at, along_b), (along_a, fixed_at, along_b, fixed_at)
    )
    last = np.cumsum(np.bincount(union[side // 4], minlength=len(sizes))).tolist()

    # Walk each union's edges; a walk is its start edge's start node
    # (stored as ~edge), then the end node of every edge it takes.
    walks: List[List[int]] = []
    per_union: List[int] = []
    first = 0
    for stop in last:
        outgoing: Dict[int, List[int]] = {}
        for e in range(first, stop):
            outgoing.setdefault(src[e], []).append(e)
        # A walk starts at the coordinates of its node's first edge.
        start_edge = {node: es[0] for node, es in outgoing.items()}
        count = len(walks)
        while outgoing:
            start = min(outgoing)
            walk = [~start_edge[start]]
            cur = start
            prev: Optional[int] = None
            while True:
                nxts = outgoing.get(cur)
                if not nxts:
                    break
                if prev is not None and len(nxts) > 1:
                    turn = _TURN[prev]
                    nxts.sort(key=lambda e: turn[direction[e]])
                e = nxts.pop()
                if not nxts:
                    del outgoing[cur]
                prev = direction[e]
                cur = dst[e]
                if cur == start:
                    break
                walk.append(e)
            if len(walk) >= 3:
                walks.append(walk)
        per_union.append(len(walks) - count)
        first = stop
    polygons = iter(_merge_collinear(walks, objs, bounds.ravel(), ends_obj))
    return [list(islice(polygons, count)) for count in per_union]


def _merge_collinear(
    walks: List[List[int]],
    objs: List[float],
    values: np.ndarray,
    ends_obj: np.ndarray,
    eps: float = EPS,
) -> List[Polygon]:
    """One polygon per walk, without the nodes collinear with both
    neighbours (``(b - a).cross(c - b)`` within ``eps``); a polygon
    that would keep fewer than three nodes keeps them all.

    A walk holds edge numbers: ``~e`` is edge ``e``'s start node, ``e``
    its end node; ``ends_obj`` gives each edge's (start x, start y, end
    x, end y) as indices into ``objs``, whose floats ``values`` holds.
    The cross product is the loop's float arithmetic on those floats.
    """
    if not walks:
        return []
    lengths = np.array([len(walk) for walk in walks])
    starts = np.cumsum(lengths) - lengths
    ref = np.fromiter(chain.from_iterable(walks), dtype=np.int64, count=int(lengths.sum()))
    at_end = ref >= 0
    edge = np.where(at_end, ref, ~ref)
    xi = np.where(at_end, ends_obj[2, edge], ends_obj[0, edge])
    yi = np.where(at_end, ends_obj[3, edge], ends_obj[1, edge])
    x, y = values[xi], values[yi]
    # Each node's neighbours, cyclically within its walk.
    begin = np.repeat(starts, lengths)
    pos = np.arange(len(ref)) - begin
    size = np.repeat(lengths, lengths)
    before = begin + (pos - 1) % size
    after = begin + (pos + 1) % size
    cross = (x - x[before]) * (y[after] - y) - (y - y[before]) * (x[after] - x)
    keep = np.abs(cross) > eps
    keep |= np.repeat(np.add.reduceat(keep.astype(np.int64), starts) < 3, lengths)
    counts = np.add.reduceat(keep.astype(np.int64), starts).tolist()
    points = map(
        Point,
        map(objs.__getitem__, xi[keep].tolist()),
        map(objs.__getitem__, yi[keep].tolist()),
    )
    return [Polygon(islice(points, count)) for count in counts]
