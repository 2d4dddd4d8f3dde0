"""Unit tests for repro.geometry.segment."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    Point,
    Segment,
    collinear_overlap,
    segment_intersection_point,
    segments_intersect,
)

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


def seg(ax, ay, bx, by) -> Segment:
    return Segment(Point(ax, ay), Point(bx, by))


class TestBasics:
    def test_length(self):
        assert seg(0, 0, 3, 4).length() == 5

    def test_degenerate(self):
        assert seg(1, 1, 1, 1).is_degenerate()
        assert not seg(0, 0, 1, 0).is_degenerate()

    def test_direction(self):
        assert seg(0, 0, 5, 0).direction() == Point(1, 0)

    def test_normal_is_left(self):
        assert seg(0, 0, 1, 0).normal().almost_equals(Point(0, 1))

    def test_midpoint(self):
        assert seg(0, 0, 4, 2).midpoint() == Point(2, 1)

    def test_reversed(self):
        s = seg(0, 0, 1, 2).reversed()
        assert s.a == Point(1, 2) and s.b == Point(0, 0)

    def test_point_at(self):
        assert seg(0, 0, 10, 0).point_at(0.3).almost_equals(Point(3, 0))

    def test_bounds(self):
        assert seg(3, -1, 0, 4).bounds() == (0, -1, 3, 4)


class TestProjection:
    def test_project_interior(self):
        assert math.isclose(seg(0, 0, 10, 0).project_param(Point(4, 5)), 0.4)

    def test_project_clamps_before(self):
        assert seg(0, 0, 10, 0).project_param(Point(-5, 2)) == 0.0

    def test_project_clamps_after(self):
        assert seg(0, 0, 10, 0).project_param(Point(15, 2)) == 1.0

    def test_closest_point(self):
        assert seg(0, 0, 10, 0).closest_point(Point(4, 5)).almost_equals(Point(4, 0))

    def test_distance_to_point(self):
        assert math.isclose(seg(0, 0, 10, 0).distance_to_point(Point(5, 3)), 3)

    def test_distance_to_point_beyond_end(self):
        assert math.isclose(seg(0, 0, 10, 0).distance_to_point(Point(13, 4)), 5)


class TestIntersection:
    def test_crossing(self):
        assert segments_intersect(seg(0, 0, 2, 2), seg(0, 2, 2, 0))

    def test_disjoint(self):
        assert not segments_intersect(seg(0, 0, 1, 0), seg(0, 1, 1, 1))

    def test_touching_endpoint_counts(self):
        assert segments_intersect(seg(0, 0, 1, 0), seg(1, 0, 2, 5))

    def test_parallel_non_collinear(self):
        assert not segments_intersect(seg(0, 0, 5, 0), seg(0, 1, 5, 1))

    def test_collinear_overlapping(self):
        assert segments_intersect(seg(0, 0, 5, 0), seg(3, 0, 8, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect(seg(0, 0, 2, 0), seg(3, 0, 5, 0))

    def test_t_junction(self):
        assert segments_intersect(seg(0, 0, 10, 0), seg(5, -1, 5, 0))

    def test_intersection_point_crossing(self):
        p = segment_intersection_point(seg(0, 0, 2, 2), seg(0, 2, 2, 0))
        assert p.almost_equals(Point(1, 1))

    def test_intersection_point_none(self):
        assert segment_intersection_point(seg(0, 0, 1, 0), seg(0, 1, 1, 1)) is None

    def test_intersection_point_collinear_mid(self):
        p = segment_intersection_point(seg(0, 0, 10, 0), seg(4, 0, 6, 0))
        assert p is not None and seg(4, 0, 6, 0).contains_point(p)

    def test_symmetry(self):
        a, b = seg(0, 0, 2, 2), seg(0, 2, 2, 0)
        assert segments_intersect(a, b) == segments_intersect(b, a)


class TestCollinearOverlap:
    def test_overlap_segment(self):
        ov = collinear_overlap(seg(0, 0, 10, 0), seg(4, 0, 15, 0))
        assert ov is not None
        assert ov.a.almost_equals(Point(4, 0)) and ov.b.almost_equals(Point(10, 0))

    def test_no_overlap(self):
        assert collinear_overlap(seg(0, 0, 2, 0), seg(5, 0, 9, 0)) is None

    def test_not_collinear(self):
        assert collinear_overlap(seg(0, 0, 2, 0), seg(0, 1, 2, 1)) is None

    def test_shared_endpoint_degenerate(self):
        ov = collinear_overlap(seg(0, 0, 2, 0), seg(2, 0, 5, 0))
        assert ov is not None and ov.length() <= 1e-9


class TestDistances:
    def test_distance_intersecting_zero(self):
        assert seg(0, 0, 2, 2).distance_to_segment(seg(0, 2, 2, 0)) == 0.0

    def test_distance_parallel(self):
        assert math.isclose(seg(0, 0, 5, 0).distance_to_segment(seg(0, 3, 5, 3)), 3)

    def test_distance_skew(self):
        assert math.isclose(seg(0, 0, 1, 0).distance_to_segment(seg(4, 0, 5, 0)), 3)


class TestSegmentProperties:
    @given(points, points, points)
    def test_distance_to_point_bounded_by_endpoints(self, a, b, p):
        s = Segment(a, b)
        d = s.distance_to_point(p)
        assert d <= a.distance_to(p) + 1e-6
        assert d <= b.distance_to(p) + 1e-6

    @given(points, points)
    def test_self_intersection(self, a, b):
        s = Segment(a, b)
        assert segments_intersect(s, s)

    @given(points, points, points, points)
    def test_intersection_symmetry(self, a, b, c, d):
        s1, s2 = Segment(a, b), Segment(c, d)
        assert segments_intersect(s1, s2) == segments_intersect(s2, s1)

    def test_intersection_symmetry_near_parallel_regression(self):
        # Hypothesis falsifying example: two steep, nearly-parallel
        # segments whose true minimum distance (~2e-7) just exceeds EPS.
        # One argument order used to fall into the collinear interval
        # test (reporting an intersection) while the other did not; the
        # predicate must be symmetric, and here correctly disjoint.
        s1 = Segment(Point(0.0, 1.0), Point(1e-05, -49.0))
        s2 = Segment(Point(0.0, 0.0), Point(1e-05, -100.0))
        assert segments_intersect(s1, s2) == segments_intersect(s2, s1)
        assert not segments_intersect(s1, s2)

    @given(points, points, st.floats(min_value=0, max_value=1))
    def test_point_at_on_segment(self, a, b, t):
        s = Segment(a, b)
        assert s.distance_to_point(s.point_at(t)) <= 1e-6 * max(1.0, s.length())
