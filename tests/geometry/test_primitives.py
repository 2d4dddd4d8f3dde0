"""Unit tests for repro.geometry.primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import ORIGIN, Point, centroid, clamp, orientation

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestPointArithmetic:
    def test_add(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)

    def test_sub(self):
        assert Point(5, 5) - Point(2, 3) == Point(3, 2)

    def test_scalar_mul(self):
        assert Point(1, -2) * 3 == Point(3, -6)

    def test_rmul(self):
        assert 3 * Point(1, -2) == Point(3, -6)

    def test_div(self):
        assert Point(4, 6) / 2 == Point(2, 3)

    def test_neg(self):
        assert -Point(1, -2) == Point(-1, 2)

    def test_iter_unpacks(self):
        x, y = Point(7, 8)
        assert (x, y) == (7, 8)

    def test_hashable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2


class TestProducts:
    def test_dot(self):
        assert Point(1, 2).dot(Point(3, 4)) == 11

    def test_dot_orthogonal(self):
        assert Point(1, 0).dot(Point(0, 5)) == 0

    def test_cross_sign(self):
        assert Point(1, 0).cross(Point(0, 1)) > 0
        assert Point(0, 1).cross(Point(1, 0)) < 0

    def test_cross_parallel_is_zero(self):
        assert Point(2, 2).cross(Point(4, 4)) == 0


class TestMetrics:
    def test_norm(self):
        assert Point(3, 4).norm() == 5

    def test_norm_sq(self):
        assert Point(3, 4).norm_sq() == 25

    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5

    def test_distance_symmetry(self):
        a, b = Point(1.5, -2.0), Point(-3.0, 7.0)
        assert a.distance_to(b) == b.distance_to(a)


class TestDirections:
    def test_normalized(self):
        n = Point(3, 4).normalized()
        assert math.isclose(n.norm(), 1.0)

    def test_normalized_zero_raises(self):
        with pytest.raises(ValueError):
            Point(0, 0).normalized()

    def test_perpendicular_is_orthogonal(self):
        v = Point(3, 4)
        assert v.dot(v.perpendicular()) == 0

    def test_perpendicular_is_left(self):
        assert Point(1, 0).perpendicular() == Point(0, 1)

    def test_rotated_quarter(self):
        r = Point(1, 0).rotated(math.pi / 2)
        assert r.almost_equals(Point(0, 1), 1e-12)

    def test_angle(self):
        assert math.isclose(Point(0, 2).angle(), math.pi / 2)


class TestHelpers:
    def test_clamp(self):
        assert clamp(5, 0, 3) == 3
        assert clamp(-1, 0, 3) == 0
        assert clamp(2, 0, 3) == 2

    def test_centroid(self):
        c = centroid([Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)])
        assert c.almost_equals(Point(1, 1))

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_orientation_ccw(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(1, 1)) == 1

    def test_orientation_cw(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(1, -1)) == -1

    def test_orientation_collinear(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == 0

    def test_origin(self):
        assert ORIGIN == Point(0.0, 0.0)


class TestPointProperties:
    @given(points, points)
    def test_distance_nonnegative_and_symmetric(self, a, b):
        assert a.distance_to(b) >= 0
        assert math.isclose(a.distance_to(b), b.distance_to(a), abs_tol=1e-9)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(points)
    def test_add_sub_roundtrip(self, p):
        q = Point(3.25, -7.5)
        assert (p + q - q).almost_equals(p, 1e-6)

    @given(points)
    def test_cross_antisymmetric(self, p):
        q = Point(2.0, 5.0)
        assert math.isclose(p.cross(q), -q.cross(p), abs_tol=1e-3)

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    def test_rotation_preserves_norm(self, angle):
        v = Point(3.0, 4.0)
        assert math.isclose(v.rotated(angle).norm(), 5.0, rel_tol=1e-9)
