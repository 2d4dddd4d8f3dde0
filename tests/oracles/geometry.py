"""Scalar geometry predicates (test oracles) and test-only polygon helpers.

:func:`contains_point`, :func:`polyline_inside_polygon` and
:func:`cells_union_boundary` are the loops production replaced with
early-outs and arrays: every boundary edge gets the exact distance test,
every (segment, edge) pair the exact intersection test, every cell edge
a scan of every global cut and a dict of directed edges, every walked
node a ``Point``.  The equivalence suite
(``tests/geometry/test_early_outs.py``) diffs production against them:
the same verdicts and, for the cell unions, the same polygons by
``repr``.

:func:`contains_polygon` and :func:`distance_to_polygon` were
``Polygon`` methods that nothing in the pipeline calls; the polygon unit
tests keep them here.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.geometry import EPS, Point, Polygon, Polyline, Segment, orientation


def contains_point(poly: Polygon, p: Point, eps: float = EPS) -> bool:
    """Ray-casting containment test; boundary points count as inside."""
    # Boundary first: the crossing count is unreliable exactly on edges.
    for e in poly.edges():
        if e.distance_to_point(p) <= eps:
            return True
    inside = False
    n = len(poly.points)
    x, y = p.x, p.y
    j = n - 1
    for i in range(n):
        xi, yi = poly.points[i].x, poly.points[i].y
        xj, yj = poly.points[j].x, poly.points[j].y
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def polyline_inside_polygon(line: Polyline, poly: Polygon, eps: float = EPS) -> bool:
    """True when the whole polyline lies inside ``poly``.

    Checks every node for containment and every segment against boundary
    crossings, which is exact for simple polygons.
    """
    if any(not contains_point(poly, p, eps) for p in line.points):
        return False
    for seg in line.segments():
        for edge in poly.edges():
            inter = edge.intersection(seg, eps)
            if inter is None:
                continue
            # Touching the boundary is fine; crossing it is not.  Probe a
            # point slightly inside each half of the segment.
            for t in (0.25, 0.5, 0.75):
                probe = seg.point_at(t)
                if not contains_point(poly, probe, eps):
                    return False
    return True


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
    cell_list = list(cells)
    edge_count: Dict[Tuple[Tuple[float, float], Tuple[float, float]], int] = {}

    def key(x: float, y: float) -> Tuple[float, float]:
        return (round(x, 9), round(y, 9))

    xs = sorted({key(c[0], 0)[0] for c in cell_list} | {key(c[2], 0)[0] for c in cell_list})
    ys = sorted({key(0, c[1])[1] for c in cell_list} | {key(0, c[3])[1] for c in cell_list})

    def add_edge(a: Tuple[float, float], b: Tuple[float, float]) -> None:
        if (b, a) in edge_count:
            edge_count[(b, a)] -= 1
            if edge_count[(b, a)] == 0:
                del edge_count[(b, a)]
        else:
            edge_count[(a, b)] = edge_count.get((a, b), 0) + 1

    def add_split(a: Tuple[float, float], b: Tuple[float, float]) -> None:
        """Add edge a->b split at every global cut it spans."""
        if a[1] == b[1]:  # horizontal
            cuts = [x for x in xs if min(a[0], b[0]) < x < max(a[0], b[0])]
            stops = sorted({a[0], b[0], *cuts}, reverse=a[0] > b[0])
            for u, v in zip(stops, stops[1:]):
                add_edge((u, a[1]), (v, a[1]))
        else:  # vertical
            cuts = [y for y in ys if min(a[1], b[1]) < y < max(a[1], b[1])]
            stops = sorted({a[1], b[1], *cuts}, reverse=a[1] > b[1])
            for u, v in zip(stops, stops[1:]):
                add_edge((a[0], u), (a[0], v))

    for (xmin, ymin, xmax, ymax) in cell_list:
        a, b = key(xmin, ymin), key(xmax, ymin)
        c, d = key(xmax, ymax), key(xmin, ymax)
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
            if prev_dir is None:
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


# -- test-only polygon helpers ---------------------------------------------------


def contains_polygon(poly: Polygon, other: Polygon, eps: float = EPS) -> bool:
    """True when ``other`` lies entirely inside ``poly``."""
    if any(not poly.contains_point(p, eps) for p in other.points):
        return False
    # Edge crossings can still pull part of `other` outside a concave
    # region even when all its nodes are inside.
    for e in poly.edges():
        for f in other.edges():
            if _segments_cross_properly(e, f, eps):
                return False
    return True


def distance_to_polygon(poly: Polygon, other: Polygon) -> float:
    """Distance between two polygons (0 on overlap)."""
    if poly.intersects_polygon(other):
        return 0.0
    return min(e.distance_to_segment(f) for e in poly.edges() for f in other.edges())


def _segments_cross_properly(e: Segment, f: Segment, eps: float) -> bool:
    """True when segments cross at a point interior to both."""
    o1 = orientation(e.a, e.b, f.a, eps)
    o2 = orientation(e.a, e.b, f.b, eps)
    o3 = orientation(f.a, f.b, e.a, eps)
    o4 = orientation(f.a, f.b, e.b, eps)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)
