"""Rigid planar transforms and segment-local frames.

The reason the router handles *any-direction* traces is this module: every
segment extension is computed in the segment's local frame, where the
segment lies on the x-axis from the origin to ``(length, 0)`` and the
candidate extension direction is +y.  The URA of a pattern is then an
axis-aligned rectangle union regardless of the segment's world direction,
so the paper's Alg. 2 applies verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

from .polygon import Polygon
from .polyline import Polyline
from .primitives import Point
from .segment import Segment


@dataclass(frozen=True)
class Frame:
    """A rigid (rotation + translation, optionally mirrored) planar map.

    The map sends a world point ``p`` to ``R(p - origin)`` where ``R`` is
    rotation by ``-angle`` followed, when ``mirror`` is set, by a flip of
    the y-axis.  The inverse sends local coordinates back to the world.
    """

    origin: Point
    cos_a: float
    sin_a: float
    mirror: bool = False

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity() -> "Frame":
        return Frame(Point(0.0, 0.0), 1.0, 0.0, False)

    @staticmethod
    def from_segment(seg: Segment, direction: int = 1) -> "Frame":
        """Local frame of ``seg`` for extension direction ``direction``.

        ``direction=+1`` maps the segment's *left* side (its direction
        rotated +90 degrees) to local +y; ``direction=-1`` mirrors the
        frame so the right side becomes +y.  In both frames the segment
        runs along the x-axis from (0, 0) to (L, 0), which lets the DP and
        the shrinker treat both pattern directions identically.
        """
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        d = seg.direction()
        return Frame(seg.a, d.x, d.y, mirror=(direction == -1))

    # -- mapping ----------------------------------------------------------

    def to_local(self, p: Point) -> Point:
        """World -> local."""
        dx = p.x - self.origin.x
        dy = p.y - self.origin.y
        x = dx * self.cos_a + dy * self.sin_a
        y = -dx * self.sin_a + dy * self.cos_a
        if self.mirror:
            y = -y
        return Point(x, y)

    def to_world(self, p: Point) -> Point:
        """Local -> world (exact inverse of :meth:`to_local`)."""
        y = -p.y if self.mirror else p.y
        dx = p.x * self.cos_a - y * self.sin_a
        dy = p.x * self.sin_a + y * self.cos_a
        return Point(self.origin.x + dx, self.origin.y + dy)

    # -- bulk helpers --------------------------------------------------------

    def polygon_to_local(self, poly: Polygon) -> Polygon:
        return Polygon(self.to_local(p) for p in poly.points)

    def polygon_to_world(self, poly: Polygon) -> Polygon:
        return Polygon(self.to_world(p) for p in poly.points)

    def polyline_to_local(self, line: Polyline) -> Polyline:
        return Polyline(self.to_local(p) for p in line.points)

    def polyline_to_world(self, line: Polyline) -> Polyline:
        return Polyline(self.to_world(p) for p in line.points)

    def points_to_world(self, points: Iterable[Point]) -> List[Point]:
        return [self.to_world(p) for p in points]

    # -- sanity ---------------------------------------------------------------

    def angle(self) -> float:
        """Rotation angle of the frame's x-axis in the world, radians."""
        return math.atan2(self.sin_a, self.cos_a)

    def is_valid(self) -> bool:
        """True when the rotation part is a unit vector (numerically)."""
        return abs(self.cos_a * self.cos_a + self.sin_a * self.sin_a - 1.0) < 1e-6


def rotation_about(center: Point, angle: float) -> "Rotation":
    """A convenience rotation transform used by design generators."""
    return Rotation(center, math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class Rotation:
    """Counter-clockwise rotation by a fixed angle about a fixed center."""

    center: Point
    cos_a: float
    sin_a: float

    def apply(self, p: Point) -> Point:
        dx = p.x - self.center.x
        dy = p.y - self.center.y
        return Point(
            self.center.x + dx * self.cos_a - dy * self.sin_a,
            self.center.y + dx * self.sin_a + dy * self.cos_a,
        )

    def apply_polyline(self, line: Polyline) -> Polyline:
        return Polyline(self.apply(p) for p in line.points)
