"""Line segments: intersection, projection and distance predicates.

Segments are the primitive of both traces (a trace path is a chain of
segments) and polygon boundaries, so every DRC predicate in the library
ultimately reduces to the functions in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .primitives import EPS, Point, clamp


@dataclass(frozen=True, slots=True)
class Segment:
    """A directed straight segment from ``a`` to ``b``."""

    a: Point
    b: Point

    # -- basic measures ----------------------------------------------------

    def length(self) -> float:
        """Euclidean length."""
        return self.a.distance_to(self.b)

    def is_degenerate(self, eps: float = EPS) -> bool:
        """True when the endpoints coincide within ``eps``."""
        return self.a.almost_equals(self.b, eps)

    def vector(self) -> Point:
        """The displacement vector ``b - a``."""
        return self.b - self.a

    def direction(self) -> Point:
        """Unit vector from ``a`` toward ``b``."""
        return self.vector().normalized()

    def normal(self) -> Point:
        """Unit left normal (direction rotated +90 degrees)."""
        return self.direction().perpendicular()

    def midpoint(self) -> Point:
        """The point halfway along the segment."""
        return (self.a + self.b) / 2.0

    def reversed(self) -> "Segment":
        """The same segment traversed the other way."""
        return Segment(self.b, self.a)

    def point_at(self, t: float) -> Point:
        """Point at parameter ``t`` in [0, 1] (0 -> a, 1 -> b)."""
        return self.a + self.vector() * t

    def bounds(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box as (xmin, ymin, xmax, ymax)."""
        return (
            min(self.a.x, self.b.x),
            min(self.a.y, self.b.y),
            max(self.a.x, self.b.x),
            max(self.a.y, self.b.y),
        )

    # -- projection / distance ---------------------------------------------

    def project_param(self, p: Point) -> float:
        """Parameter of the orthogonal projection of ``p``, clamped to [0, 1]."""
        v = self.vector()
        denom = v.norm_sq()
        if denom <= EPS * EPS:
            return 0.0
        return clamp((p - self.a).dot(v) / denom, 0.0, 1.0)

    def closest_point(self, p: Point) -> Point:
        """The point of the segment closest to ``p``."""
        return self.point_at(self.project_param(p))

    def distance_to_point(self, p: Point) -> float:
        """Minimum distance from the segment to ``p``."""
        return self.closest_point(p).distance_to(p)

    def distance_to_segment(self, other: "Segment") -> float:
        """Minimum distance between two segments (0 when they intersect)."""
        if self.intersects(other):
            return 0.0
        return min(
            self.distance_to_point(other.a),
            self.distance_to_point(other.b),
            other.distance_to_point(self.a),
            other.distance_to_point(self.b),
        )

    # -- intersection --------------------------------------------------------

    def contains_point(self, p: Point, eps: float = EPS) -> bool:
        """True when ``p`` lies on the segment within ``eps``."""
        return self.distance_to_point(p) <= eps

    def intersects(self, other: "Segment", eps: float = EPS) -> bool:
        """Segment/segment intersection predicate (touching counts)."""
        return segments_intersect(self, other, eps)

    def intersection(self, other: "Segment", eps: float = EPS) -> Optional[Point]:
        """Proper intersection point of two segments, or None.

        For collinear overlapping segments an arbitrary shared point (the
        midpoint of the overlap) is returned; callers that need the full
        overlap should use :func:`collinear_overlap`.
        """
        return segment_intersection_point(self, other, eps)


def segments_intersect(s1: Segment, s2: Segment, eps: float = EPS) -> bool:
    """True when the closed segments share at least one point.

    Uses the classic orientation test with collinear special cases; robust
    for touching endpoints, which DRC treats as an intersection.  The
    predicate is symmetric by construction: the arguments are put into a
    canonical order first, so borderline eps decisions (which otherwise
    depend on which segment supplies the reference line) cannot disagree
    between ``(s1, s2)`` and ``(s2, s1)``.
    """
    if (s2.a.x, s2.a.y, s2.b.x, s2.b.y) < (s1.a.x, s1.a.y, s1.b.x, s1.b.y):
        s1, s2 = s2, s1
    p, r = s1.a, s1.vector()
    q, s = s2.a, s2.vector()
    rxs = r.cross(s)
    qp = q - p
    qpxr = qp.cross(r)
    r_norm, s_norm = r.norm(), s.norm()
    # Angle-based parallel test: |r x s| <= eps |r||s| iff the directions
    # agree within ~eps radians.  Symmetric in (s1, s2) and independent of
    # the segments' absolute lengths.
    if abs(rxs) <= eps * max(r_norm * s_norm, eps):
        # Non-collinear parallels cannot intersect; collinearity requires
        # *both* endpoints of s2 within eps (a distance) of s1's line — a
        # one-endpoint test lets a segment that merely starts near the
        # line fall into the collinear interval test and over-report.
        if r_norm > eps:
            for endpoint in (s2.a, s2.b):
                off = endpoint - p
                if abs(off.cross(r)) > eps * max(off.norm(), 1.0) * r_norm:
                    return False
        elif not s2.contains_point(s1.a, eps):
            return False
        # Collinear: compare projected intervals in *distance* units so the
        # eps slack does not scale with segment length.
        rr = r.norm_sq()
        if rr <= eps * eps:
            return s2.contains_point(s1.a, eps)
        d0 = qp.dot(r) / r_norm
        d1 = d0 + s.dot(r) / r_norm
        lo, hi = min(d0, d1), max(d0, d1)
        return hi >= -eps and lo <= r_norm + eps
    t = qp.cross(s) / rxs
    u = qpxr / rxs
    pad = eps / max(r_norm, eps)
    pad_u = eps / max(s_norm, eps)
    return -pad <= t <= 1.0 + pad and -pad_u <= u <= 1.0 + pad_u


def segment_intersection_point(
    s1: Segment, s2: Segment, eps: float = EPS
) -> Optional[Point]:
    """Intersection point of two closed segments, or None when disjoint."""
    p, r = s1.a, s1.vector()
    q, s = s2.a, s2.vector()
    rxs = r.cross(s)
    qp = q - p
    if abs(rxs) <= eps * max(r.norm() * s.norm(), eps):
        overlap = collinear_overlap(s1, s2, eps)
        if overlap is None:
            return None
        return overlap.midpoint()
    t = qp.cross(s) / rxs
    u = qp.cross(r) / rxs
    pad = eps / max(r.norm(), eps)
    pad_u = eps / max(s.norm(), eps)
    if -pad <= t <= 1.0 + pad and -pad_u <= u <= 1.0 + pad_u:
        return s1.point_at(clamp(t, 0.0, 1.0))
    return None


def collinear_overlap(s1: Segment, s2: Segment, eps: float = EPS) -> Optional[Segment]:
    """Shared sub-segment of two collinear segments, or None.

    Returns None when the segments are not collinear or do not overlap.
    A single shared endpoint yields a degenerate segment.
    """
    r = s1.vector()
    rr = r.norm_sq()
    if rr <= eps * eps:
        if s2.contains_point(s1.a, eps):
            return Segment(s1.a, s1.a)
        return None
    if abs((s2.a - s1.a).cross(r)) > eps * max(1.0, r.norm()) or abs(
        (s2.b - s1.a).cross(r)
    ) > eps * max(1.0, r.norm()):
        return None
    t0 = (s2.a - s1.a).dot(r) / rr
    t1 = (s2.b - s1.a).dot(r) / rr
    lo, hi = min(t0, t1), max(t0, t1)
    lo = max(lo, 0.0)
    hi = min(hi, 1.0)
    if hi < lo - eps:
        return None
    return Segment(s1.point_at(clamp(lo, 0.0, 1.0)), s1.point_at(clamp(hi, 0.0, 1.0)))
