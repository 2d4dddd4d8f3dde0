"""Planar points and vectors.

Everything in the library works on a flat 2-D plane in board units
(millimetres by convention).  :class:`Point` doubles as a vector; the
distinction is purely semantic.  All geometry modules share the tolerance
:data:`EPS` for "equal up to floating noise" decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

#: Absolute tolerance (board units) below which two coordinates are
#: considered equal.  Board units are millimetres, so 1e-7 mm is four
#: orders of magnitude below any manufacturable feature.
EPS = 1e-7


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval [lo, hi]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable 2-D point / vector.

    Supports the arithmetic needed for routing geometry: addition,
    subtraction, scalar multiplication, dot/cross products, rotation and
    normalisation.  Instances are hashable so they can key caches.
    """

    x: float
    y: float

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point":
        return Point(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # -- products --------------------------------------------------------

    def dot(self, other: "Point") -> float:
        """Scalar (dot) product."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """z-component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    # -- metrics ---------------------------------------------------------

    def norm(self) -> float:
        """Euclidean length of the vector."""
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        """Squared Euclidean length (avoids the sqrt for comparisons)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` (the paper's ``d(a, b)``)."""
        return math.hypot(self.x - other.x, self.y - other.y)

    # -- directions ------------------------------------------------------

    def normalized(self) -> "Point":
        """Unit vector in the same direction.

        Raises :class:`ZeroDivisionError` semantics via ValueError for the
        zero vector, which is always a logic error upstream.
        """
        n = self.norm()
        if n <= EPS:
            raise ValueError("cannot normalise a (near-)zero vector")
        return Point(self.x / n, self.y / n)

    def perpendicular(self) -> "Point":
        """The vector rotated +90 degrees (counter-clockwise)."""
        return Point(-self.y, self.x)

    def rotated(self, angle: float) -> "Point":
        """The vector rotated by ``angle`` radians counter-clockwise."""
        c, s = math.cos(angle), math.sin(angle)
        return Point(self.x * c - self.y * s, self.x * s + self.y * c)

    def angle(self) -> float:
        """Polar angle in radians, in (-pi, pi]."""
        return math.atan2(self.y, self.x)

    # -- comparisons -----------------------------------------------------

    def almost_equals(self, other: "Point", eps: float = EPS) -> bool:
        """Component-wise closeness test."""
        return abs(self.x - other.x) <= eps and abs(self.y - other.y) <= eps


#: The origin, used as a default reference all over the tests.
ORIGIN = Point(0.0, 0.0)


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points.

    This is the paper's overline-X operator in Eq. (18): the point with the
    average coordinate of all points in X.
    """
    pts = list(points)
    if not pts:
        raise ValueError("centroid of an empty point collection")
    sx = sum(p.x for p in pts)
    sy = sum(p.y for p in pts)
    return Point(sx / len(pts), sy / len(pts))


def orientation(a: Point, b: Point, c: Point, eps: float = EPS) -> int:
    """Orientation of the ordered triple (a, b, c).

    Returns +1 for counter-clockwise, -1 for clockwise and 0 for collinear
    (within ``eps`` of signed area).
    """
    cross = (b - a).cross(c - a)
    if cross > eps:
        return 1
    if cross < -eps:
        return -1
    return 0
