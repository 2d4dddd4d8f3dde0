"""Unit tests for repro.geometry.transform — the any-direction machinery."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Frame, Point, Polygon, Polyline, Segment, rectangle, rotation_about

angles = st.floats(min_value=-math.pi, max_value=math.pi)
coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def seg_at(angle: float, length: float = 10.0, origin: Point = Point(0, 0)) -> Segment:
    d = Point(math.cos(angle), math.sin(angle))
    return Segment(origin, origin + d * length)


class TestFrameBasics:
    def test_identity(self):
        f = Frame.identity()
        p = Point(3, 4)
        assert f.to_local(p) == p and f.to_world(p) == p

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            Frame.from_segment(seg_at(0.0), direction=2)

    def test_segment_maps_to_x_axis(self):
        s = seg_at(math.radians(37), 8.0)
        f = Frame.from_segment(s, 1)
        assert f.to_local(s.a).almost_equals(Point(0, 0), 1e-9)
        assert f.to_local(s.b).almost_equals(Point(8, 0), 1e-9)

    def test_left_side_is_positive_y(self):
        s = Segment(Point(0, 0), Point(10, 0))
        f = Frame.from_segment(s, 1)
        assert f.to_local(Point(5, 3)).y > 0

    def test_mirrored_frame_flips_side(self):
        s = Segment(Point(0, 0), Point(10, 0))
        f = Frame.from_segment(s, -1)
        assert f.to_local(Point(5, -3)).y > 0

    def test_angle(self):
        f = Frame.from_segment(seg_at(math.radians(30)), 1)
        assert math.isclose(f.angle(), math.radians(30), abs_tol=1e-12)


class TestRoundTrips:
    @given(angles, coords, coords)
    def test_point_roundtrip(self, angle, x, y):
        f = Frame.from_segment(seg_at(angle, 10.0, Point(3, -7)), 1)
        p = Point(x, y)
        assert f.to_world(f.to_local(p)).almost_equals(p, 1e-6)

    @given(angles, coords, coords)
    def test_mirrored_roundtrip(self, angle, x, y):
        f = Frame.from_segment(seg_at(angle, 5.0), -1)
        p = Point(x, y)
        assert f.to_world(f.to_local(p)).almost_equals(p, 1e-6)

    @given(angles)
    def test_distances_preserved(self, angle):
        f = Frame.from_segment(seg_at(angle), 1)
        a, b = Point(1, 2), Point(-4, 7)
        assert math.isclose(
            f.to_local(a).distance_to(f.to_local(b)), a.distance_to(b), rel_tol=1e-9
        )

    def test_polygon_roundtrip(self):
        f = Frame.from_segment(seg_at(0.7), 1)
        poly = rectangle(1, 1, 4, 3)
        back = f.polygon_to_world(f.polygon_to_local(poly))
        for p, q in zip(poly.points, back.points):
            assert p.almost_equals(q, 1e-9)

    def test_area_preserved_under_mirror(self):
        f = Frame.from_segment(seg_at(0.3), -1)
        poly = rectangle(0, 0, 3, 2)
        assert math.isclose(f.polygon_to_local(poly).area(), poly.area(), rel_tol=1e-9)


class TestRotation:
    def test_rotation_about_center(self):
        rot = rotation_about(Point(1, 1), math.pi / 2)
        assert rot.apply(Point(2, 1)).almost_equals(Point(1, 2), 1e-12)

    def test_rotation_preserves_distances(self):
        rot = rotation_about(Point(5, -3), 0.77)
        a, b = Point(0, 0), Point(3, 4)
        assert math.isclose(
            rot.apply(a).distance_to(rot.apply(b)), 5.0, rel_tol=1e-12
        )

    def test_rotation_polyline_length(self):
        rot = rotation_about(Point(0, 0), 1.0)
        line = Polyline([Point(0, 0), Point(3, 0), Point(3, 4)])
        assert math.isclose(rot.apply_polyline(line).length(), line.length(), rel_tol=1e-12)
