"""Composite geometric operations.

Hosts the algorithms that combine the primitive classes: polyline
offsetting (differential-pair restoration), clearance computations between
polylines (DRC), and rectilinear cell-union boundary extraction (routable
areas built from region-assignment cells).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

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


def polyline_min_clearance(
    a: Polyline, b: Polyline
) -> float:
    """Minimum distance between two polylines (centreline to centreline)."""
    best = math.inf
    for sa in a.segments():
        for sb in b.segments():
            d = sa.distance_to_segment(sb)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


def polyline_self_clearance(
    line: Polyline, skip_adjacent: int = 1
) -> float:
    """Minimum distance between non-adjacent segments of one polyline.

    ``skip_adjacent`` is the number of neighbouring segments on each side
    exempt from the check (adjacent segments share a node, so their mutual
    distance is always 0 and is not a violation).  This is the self-DRC
    oracle for meandered traces.
    """
    segs = line.segments()
    best = math.inf
    n = len(segs)
    for i in range(n):
        for j in range(i + skip_adjacent + 1, n):
            d = segs[i].distance_to_segment(segs[j])
            if d < best:
                best = d
    return best


def polyline_to_polygon_clearance(line: Polyline, poly: Polygon) -> float:
    """Minimum distance between a polyline and a polygon (0 on overlap)."""
    best = math.inf
    for seg in line.segments():
        d = poly.distance_to_segment(seg)
        if d < best:
            best = d
            if best == 0.0:
                return 0.0
    return best


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


def cells_union_boundary(
    cells: Iterable[Tuple[float, float, float, float]]
) -> List[Polygon]:
    """Boundary polygons of a union of axis-aligned rectangles.

    The rectangles must be non-overlapping (region-assignment cells are).
    Every edge is pre-split at the global cut coordinates so partially
    overlapping boundaries of unequal cells cancel exactly; the union
    boundary is then found by cancelling shared directed edges and walking
    the survivors (outer boundaries CCW, holes CW).
    """
    rounded = [
        (round(xmin, 9), round(ymin, 9), round(xmax, 9), round(ymax, 9))
        for (xmin, ymin, xmax, ymax) in cells
    ]
    edge_count: Dict[Tuple[Tuple[float, float], Tuple[float, float]], int] = {}

    xs = sorted({c[0] for c in rounded} | {c[2] for c in rounded})
    ys = sorted({c[1] for c in rounded} | {c[3] for c in rounded})

    def add_edge(a: Tuple[float, float], b: Tuple[float, float]) -> None:
        if (b, a) in edge_count:
            edge_count[(b, a)] -= 1
            if edge_count[(b, a)] == 0:
                del edge_count[(b, a)]
        else:
            edge_count[(a, b)] = edge_count.get((a, b), 0) + 1

    def stops(cuts: List[float], u: float, v: float) -> List[float]:
        """``u``, the sorted cuts strictly between ``u`` and ``v``, ``v``."""
        lo, hi = (u, v) if u < v else (v, u)
        inner = cuts[bisect_right(cuts, lo) : bisect_left(cuts, hi)]
        if u > v:
            inner.reverse()
        return [u, *inner, v] if u != v else [u]

    def add_split(a: Tuple[float, float], b: Tuple[float, float]) -> None:
        """Add edge a->b split at every global cut it spans."""
        if a[1] == b[1]:  # horizontal
            run = stops(xs, a[0], b[0])
            for u, v in zip(run, run[1:]):
                add_edge((u, a[1]), (v, a[1]))
        else:  # vertical
            run = stops(ys, a[1], b[1])
            for u, v in zip(run, run[1:]):
                add_edge((a[0], u), (a[0], v))

    for (xmin, ymin, xmax, ymax) in rounded:
        a, b = (xmin, ymin), (xmax, ymin)
        c, d = (xmax, ymax), (xmin, ymax)
        # CCW winding for every cell.
        add_split(a, b)
        add_split(b, c)
        add_split(c, d)
        add_split(d, a)

    # Split collinear boundary edges at shared nodes so the walks close.
    outgoing: Dict[Tuple[float, float], List[Tuple[float, float]]] = {}
    for (a, b), cnt in edge_count.items():
        for _ in range(cnt):
            outgoing.setdefault(a, []).append(b)

    polygons: List[Polygon] = []
    while outgoing:
        start = min(outgoing)
        walk = [start]
        cur = start
        prev_dir: Optional[Tuple[float, float]] = None
        while True:
            nxts = outgoing.get(cur)
            if not nxts:
                break
            if prev_dir is None or len(nxts) == 1:
                nxt = nxts.pop()
            else:
                # Prefer the left-most turn so holes separate from shells.
                def turn_key(candidate: Tuple[float, float]) -> float:
                    dx, dy = candidate[0] - cur[0], candidate[1] - cur[1]
                    ang = math.atan2(dy, dx)
                    prev_ang = math.atan2(prev_dir[1], prev_dir[0])
                    rel = (ang - prev_ang + math.pi) % (2 * math.pi)
                    return rel

                nxts.sort(key=turn_key)
                nxt = nxts.pop()
            if not outgoing[cur]:
                del outgoing[cur]
            prev_dir = (nxt[0] - cur[0], nxt[1] - cur[1])
            cur = nxt
            if cur == start:
                break
            walk.append(cur)
        if len(walk) >= 3:
            poly = Polygon(Point(x, y) for x, y in walk)
            polygons.append(_merge_collinear(poly))
    return polygons


def _merge_collinear(poly: Polygon, eps: float = EPS) -> Polygon:
    """Remove boundary nodes collinear with both neighbours."""
    pts = list(poly.points)
    out: List[Point] = []
    n = len(pts)
    for i in range(n):
        a = pts[(i - 1) % n]
        b = pts[i]
        c = pts[(i + 1) % n]
        cross = (b - a).cross(c - b)
        if abs(cross) > eps:
            out.append(b)
    if len(out) < 3:
        return poly
    return Polygon(out)


def resample_polyline(line: Polyline, step: float) -> List[Point]:
    """Points along ``line`` every ``step`` of arc length, including ends."""
    if step <= 0:
        raise ValueError("step must be positive")
    total = line.length()
    count = max(1, int(math.ceil(total / step)))
    return [line.point_at_arclength(total * i / count) for i in range(count + 1)]
