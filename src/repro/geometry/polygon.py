"""Simple polygons: containment, distance, inflation.

Obstacles, routable areas and URAs are all simple polygons.  The paper's
Alg. 2 reasons about polygons purely through their *node points* and *edge
intersections*, which is exactly the interface this class exposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .primitives import EPS, Point, centroid, orientation
from .segment import Segment, segments_intersect

#: Relative rounding pad for box early-outs: ``ROUND_REL * scale`` is
#: thousands of ulps of any coordinate no larger than ``scale``, far
#: above the few ulps a segment parameter, distance or intersection
#: rounds by.
ROUND_REL = 2.0**-40


@dataclass(frozen=True)
class Polygon:
    """An immutable simple polygon given by its boundary nodes.

    The boundary is implicitly closed (last node connects back to the
    first).  Orientation may be either way; use :meth:`oriented_ccw` when a
    canonical orientation is required.
    """

    points: Tuple[Point, ...]

    def __init__(self, points: Iterable[Point]):
        pts = tuple(points)
        if len(pts) < 3:
            raise ValueError("a polygon needs at least three nodes")
        object.__setattr__(self, "points", pts)

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def edges(self) -> List[Segment]:
        """Boundary edges, closing back to the first node."""
        n = len(self.points)
        return [Segment(self.points[i], self.points[(i + 1) % n]) for i in range(n)]

    def bounds(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box (xmin, ymin, xmax, ymax)."""
        xs = [p.x for p in self.points]
        ys = [p.y for p in self.points]
        return (min(xs), min(ys), max(xs), max(ys))

    # -- measures -----------------------------------------------------------

    def signed_area(self) -> float:
        """Shoelace area; positive for counter-clockwise orientation."""
        total = 0.0
        n = len(self.points)
        for i in range(n):
            p, q = self.points[i], self.points[(i + 1) % n]
            total += p.cross(q)
        return total / 2.0

    def area(self) -> float:
        """Unsigned enclosed area."""
        return abs(self.signed_area())

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(e.length() for e in self.edges())

    def centroid(self) -> Point:
        """Arithmetic mean of the nodes (sufficient for our convex shapes)."""
        return centroid(self.points)

    def is_ccw(self) -> bool:
        """True when nodes are in counter-clockwise order."""
        return self.signed_area() > 0

    def oriented_ccw(self) -> "Polygon":
        """This polygon with counter-clockwise node order."""
        if self.is_ccw():
            return self
        return Polygon(reversed(self.points))

    def is_convex(self, eps: float = EPS) -> bool:
        """True when every boundary turn has the same sign (or is straight)."""
        n = len(self.points)
        sign = 0
        for i in range(n):
            o = orientation(
                self.points[i],
                self.points[(i + 1) % n],
                self.points[(i + 2) % n],
                eps,
            )
            if o == 0:
                continue
            if sign == 0:
                sign = o
            elif o != sign:
                return False
        return True

    # -- predicates -----------------------------------------------------------

    def contains_point(self, p: Point, eps: float = EPS) -> bool:
        """Ray-casting containment test; boundary points count as inside.

        This is the `T(R)` primitive of the paper's complexity analysis
        (Sec. IV-D): an O(n) crossing-number walk along the boundary.
        """
        # Boundary first: the crossing count is unreliable exactly on
        # edges.  Only edges whose box, padded by ``pad``, holds p get the
        # exact distance test: the closest point of an edge lies in its
        # box up to a few ulps of ``scale``, and the rounded distance is
        # never below the rounded |dx| or |dy|, so an edge farther than
        # ``pad`` in x or y cannot pass ``<= eps``.
        boxes, xs, ys, scale = self._edge_boxes()
        x, y = p.x, p.y
        pad = 2.0 * eps + (scale + abs(x) + abs(y)) * ROUND_REL
        xlo, xhi, ylo, yhi = x - pad, x + pad, y - pad, y + pad
        pts = self.points
        n = len(pts)
        for i, (x0, y0, x1, y1) in enumerate(boxes):
            if x0 <= xhi and xlo <= x1 and y0 <= yhi and ylo <= y1:
                if Segment(pts[i], pts[(i + 1) % n]).distance_to_point(p) <= eps:
                    return True
        inside = False
        xj, yj = xs[-1], ys[-1]
        for xi, yi in zip(xs, ys):
            if (yi > y) != (yj > y):
                x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_cross:
                    inside = not inside
            xj, yj = xi, yi
        return inside

    def _edge_boxes(self):
        """Per-edge ``(xmin, ymin, xmax, ymax)`` boxes in edge order, the
        node abscissas and ordinates, and the largest coordinate
        magnitude; computed once per polygon."""
        cached = self.__dict__.get("_boxes")
        if cached is None:
            xs = tuple(p.x for p in self.points)
            ys = tuple(p.y for p in self.points)
            xs2, ys2 = xs[1:] + xs[:1], ys[1:] + ys[:1]
            boxes = tuple(
                (min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb))
                for xa, ya, xb, yb in zip(xs, ys, xs2, ys2)
            )
            scale = max(max(map(abs, xs)), max(map(abs, ys)))
            cached = (boxes, xs, ys, scale)
            self.__dict__["_boxes"] = cached
        return cached

    def intersects_segment(self, seg: Segment, eps: float = EPS) -> bool:
        """True when ``seg`` touches the boundary or lies inside."""
        for e in self.edges():
            if segments_intersect(e, seg, eps):
                return True
        return self.contains_point(seg.a, eps)

    def intersects_polygon(self, other: "Polygon", eps: float = EPS) -> bool:
        """True when the two polygon areas share at least one point."""
        for e in self.edges():
            for f in other.edges():
                if segments_intersect(e, f, eps):
                    return True
        return self.contains_point(other.points[0], eps) or other.contains_point(
            self.points[0], eps
        )

    # -- distances --------------------------------------------------------------

    def distance_to_point(self, p: Point) -> float:
        """Distance from the boundary/interior to ``p`` (0 when inside)."""
        if self.contains_point(p):
            return 0.0
        return min(e.distance_to_point(p) for e in self.edges())

    def distance_to_segment(self, seg: Segment) -> float:
        """Distance between the polygon and a segment (0 on overlap)."""
        if self.intersects_segment(seg):
            return 0.0
        return min(e.distance_to_segment(seg) for e in self.edges())

    # -- constructions -------------------------------------------------------------

    def translated(self, delta: Point) -> "Polygon":
        """The polygon rigidly shifted by ``delta``."""
        return Polygon(p + delta for p in self.points)

    def inflated(self, margin: float) -> "Polygon":
        """Offset outward by ``margin`` with miter joins.

        Exact for convex polygons (all benchmark obstacles: pads, vias,
        rectangles).  For concave polygons the miter construction can
        self-intersect, so callers guard with :meth:`is_convex`.
        """
        if margin == 0.0:
            return self
        poly = self.oriented_ccw()
        n = len(poly.points)
        out: List[Point] = []
        for i in range(n):
            prev_pt = poly.points[(i - 1) % n]
            cur = poly.points[i]
            nxt = poly.points[(i + 1) % n]
            d1 = (cur - prev_pt).normalized()
            d2 = (nxt - cur).normalized()
            # Outward normals of a CCW boundary point right of travel.
            n1 = Point(d1.y, -d1.x)
            n2 = Point(d2.y, -d2.x)
            bisector = n1 + n2
            bl = bisector.norm()
            if bl <= EPS:
                # 180-degree turn; fall back to the single normal.
                out.append(cur + n1 * margin)
                continue
            bisector = bisector / bl
            cos_half = bisector.dot(n1)
            if cos_half <= 0.1:
                # Extremely sharp spike: cap the miter rather than shoot to
                # infinity; use the two offset corners instead.
                out.append(cur + n1 * margin)
                out.append(cur + n2 * margin)
                continue
            out.append(cur + bisector * (margin / cos_half))
        return Polygon(out)

    def rounded(self, digits: int = 9) -> "Polygon":
        """Polygon with coordinates rounded (stable hashing in caches)."""
        return Polygon(p.round_to(digits) for p in self.points)


# -- common constructors ---------------------------------------------------------


def rectangle(xmin: float, ymin: float, xmax: float, ymax: float) -> Polygon:
    """Axis-aligned rectangle polygon (CCW)."""
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("rectangle needs positive extents")
    return Polygon(
        [Point(xmin, ymin), Point(xmax, ymin), Point(xmax, ymax), Point(xmin, ymax)]
    )


def regular_polygon(center: Point, radius: float, sides: int, phase: float = 0.0) -> Polygon:
    """Regular ``sides``-gon; ``sides=8`` makes the octagonal via pads."""
    if sides < 3:
        raise ValueError("need at least three sides")
    pts = [
        center
        + Point(
            radius * math.cos(phase + 2 * math.pi * k / sides),
            radius * math.sin(phase + 2 * math.pi * k / sides),
        )
        for k in range(sides)
    ]
    return Polygon(pts)


def oriented_rectangle(seg: Segment, half_width: float) -> Polygon:
    """Rectangle of half-width ``half_width`` around a segment.

    This is precisely the paper's URA of a single segment: "a rectangle
    whose border is half of d_gap away from the segment" — here generalised
    to any inflation so it also builds trace bodies (half the trace width)
    and obstacle clearance hulls.
    """
    d = seg.direction()
    n = d.perpendicular()
    a = seg.a - d * half_width
    b = seg.b + d * half_width
    return Polygon(
        [
            a + n * half_width,
            a - n * half_width,
            b - n * half_width,
            b + n * half_width,
        ]
    )


def convex_hull(points: Sequence[Point]) -> Polygon:
    """Andrew's monotone-chain convex hull of at least three points."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        raise ValueError("hull needs at least three distinct points")

    def half(points_iter):
        chain: List[Tuple[float, float]] = []
        for p in points_iter:
            while len(chain) >= 2:
                ox = chain[-1][0] - chain[-2][0]
                oy = chain[-1][1] - chain[-2][1]
                px = p[0] - chain[-2][0]
                py = p[1] - chain[-2][1]
                if ox * py - oy * px <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("degenerate hull (collinear input)")
    return Polygon(Point(x, y) for x, y in hull)
