"""Unit tests for repro.geometry.polygon."""

import math

import pytest
from hypothesis import given, strategies as st

from oracles.geometry import contains_polygon, distance_to_polygon
from repro.geometry import (
    Point,
    Polygon,
    Segment,
    convex_hull,
    oriented_rectangle,
    rectangle,
    regular_polygon,
)


@pytest.fixture
def unit_square() -> Polygon:
    return rectangle(0, 0, 1, 1)


@pytest.fixture
def l_shape() -> Polygon:
    """A concave L: the unit square minus its top-right quadrant."""
    return Polygon(
        [
            Point(0, 0),
            Point(2, 0),
            Point(2, 1),
            Point(1, 1),
            Point(1, 2),
            Point(0, 2),
        ]
    )


class TestConstruction:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 0)])

    def test_rectangle_validates(self):
        with pytest.raises(ValueError):
            rectangle(0, 0, 0, 1)

    def test_regular_polygon_sides(self):
        assert len(regular_polygon(Point(0, 0), 1.0, 8)) == 8

    def test_regular_polygon_validates(self):
        with pytest.raises(ValueError):
            regular_polygon(Point(0, 0), 1.0, 2)


class TestMeasures:
    def test_square_area(self, unit_square):
        assert unit_square.area() == 1.0

    def test_l_shape_area(self, l_shape):
        assert l_shape.area() == 3.0

    def test_signed_area_ccw_positive(self, unit_square):
        assert unit_square.signed_area() > 0

    def test_orientation_flip(self, unit_square):
        cw = Polygon(reversed(unit_square.points))
        assert cw.signed_area() < 0
        assert cw.oriented_ccw().signed_area() > 0

    def test_bounds(self, l_shape):
        assert l_shape.bounds() == (0, 0, 2, 2)

    def test_centroid_square(self, unit_square):
        assert unit_square.centroid().almost_equals(Point(0.5, 0.5))

    def test_convexity(self, unit_square, l_shape):
        assert unit_square.is_convex()
        assert not l_shape.is_convex()

    def test_octagon_area_close_to_circle(self):
        oct_area = regular_polygon(Point(0, 0), 1.0, 64).area()
        assert math.isclose(oct_area, math.pi, rel_tol=0.01)


class TestContainment:
    def test_interior(self, unit_square):
        assert unit_square.contains_point(Point(0.5, 0.5))

    def test_exterior(self, unit_square):
        assert not unit_square.contains_point(Point(1.5, 0.5))

    def test_boundary_counts(self, unit_square):
        assert unit_square.contains_point(Point(1.0, 0.5))

    def test_vertex_counts(self, unit_square):
        assert unit_square.contains_point(Point(0, 0))

    def test_concave_notch_outside(self, l_shape):
        assert not l_shape.contains_point(Point(1.5, 1.5))

    def test_concave_arm_inside(self, l_shape):
        assert l_shape.contains_point(Point(0.5, 1.5))
        assert l_shape.contains_point(Point(1.5, 0.5))


class TestSegmentInteraction:
    def test_crossing_segment(self, unit_square):
        assert unit_square.intersects_segment(Segment(Point(-1, 0.5), Point(2, 0.5)))

    def test_contained_segment(self, unit_square):
        assert unit_square.intersects_segment(Segment(Point(0.2, 0.2), Point(0.8, 0.8)))

    def test_outside_segment(self, unit_square):
        assert not unit_square.intersects_segment(Segment(Point(2, 2), Point(3, 3)))

    def test_distance_to_segment_outside(self, unit_square):
        d = unit_square.distance_to_segment(Segment(Point(2, 0), Point(2, 1)))
        assert math.isclose(d, 1.0)

    def test_distance_zero_when_crossing(self, unit_square):
        assert unit_square.distance_to_segment(Segment(Point(-1, 0.5), Point(2, 0.5))) == 0


class TestPolygonInteraction:
    def test_overlapping(self, unit_square):
        other = rectangle(0.5, 0.5, 2, 2)
        assert unit_square.intersects_polygon(other)

    def test_disjoint(self, unit_square):
        other = rectangle(3, 3, 4, 4)
        assert not unit_square.intersects_polygon(other)

    def test_nested(self, unit_square):
        inner = rectangle(0.25, 0.25, 0.75, 0.75)
        assert unit_square.intersects_polygon(inner)
        assert contains_polygon(unit_square, inner)

    def test_contains_rejects_crossing(self, unit_square):
        other = rectangle(0.5, 0.5, 2, 2)
        assert not contains_polygon(unit_square, other)

    def test_distance_between_polygons(self, unit_square):
        other = rectangle(3, 0, 4, 1)
        assert math.isclose(distance_to_polygon(unit_square, other), 2.0)

    def test_point_distance_inside_zero(self, unit_square):
        assert unit_square.distance_to_point(Point(0.5, 0.5)) == 0.0

    def test_point_distance_outside(self, unit_square):
        assert math.isclose(unit_square.distance_to_point(Point(3, 0.5)), 2.0)


class TestInflation:
    def test_square_inflated_area(self, unit_square):
        big = unit_square.inflated(0.5)
        # Miter inflation of a square grows it to a square of side 2.
        assert math.isclose(big.area(), 4.0)

    def test_inflation_contains_original(self, unit_square):
        big = unit_square.inflated(0.3)
        assert contains_polygon(big, unit_square)

    def test_zero_inflation_identity(self, unit_square):
        assert unit_square.inflated(0.0) is unit_square

    def test_octagon_inflation_distance(self):
        octagon = regular_polygon(Point(0, 0), 2.0, 8)
        big = octagon.inflated(0.5)
        # Every original vertex must now be at least 0.5 inside.
        for p in octagon.points:
            assert big.contains_point(p)

    def test_inflation_of_cw_polygon(self):
        cw = Polygon(reversed(rectangle(0, 0, 1, 1).points))
        big = cw.inflated(0.5)
        assert math.isclose(big.area(), 4.0)


class TestOrientedRectangle:
    def test_axis_aligned(self):
        r = oriented_rectangle(Segment(Point(0, 0), Point(10, 0)), 1.0)
        assert math.isclose(r.area(), 12 * 2)  # extended by half-width at both ends

    def test_contains_segment_band(self):
        s = Segment(Point(0, 0), Point(10, 10))
        r = oriented_rectangle(s, 1.0)
        assert r.contains_point(s.midpoint())
        assert r.contains_point(s.a) and r.contains_point(s.b)

    def test_clearance_semantics(self):
        s = Segment(Point(0, 0), Point(10, 0))
        r = oriented_rectangle(s, 2.0)
        assert r.contains_point(Point(5, 1.9))
        assert not r.contains_point(Point(5, 2.1))


class TestConvexHull:
    def test_square_hull(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1), Point(0.5, 0.5)]
        hull = convex_hull(pts)
        assert math.isclose(hull.area(), 1.0)

    def test_hull_is_convex(self):
        pts = [Point(0, 0), Point(4, 1), Point(2, 5), Point(-1, 2), Point(1, 1)]
        assert convex_hull(pts).is_convex()

    def test_collinear_raises(self):
        with pytest.raises(ValueError):
            convex_hull([Point(0, 0), Point(1, 1), Point(2, 2)])


coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


class TestPolygonProperties:
    @given(
        st.lists(st.tuples(coords, coords), min_size=4, max_size=20).filter(
            lambda pts: len({(round(x, 6), round(y, 6)) for x, y in pts}) >= 4
        )
    )
    def test_hull_contains_all_points(self, pts):
        points = [Point(x, y) for x, y in pts]
        try:
            hull = convex_hull(points)
        except ValueError:
            return  # collinear input
        for p in points:
            assert hull.contains_point(p, 1e-6)

    @given(coords, coords, st.floats(min_value=0.1, max_value=10))
    def test_square_containment_vs_bounds(self, cx, cy, half):
        sq = rectangle(cx - half, cy - half, cx + half, cy + half)
        assert sq.contains_point(Point(cx, cy))
        assert not sq.contains_point(Point(cx + 3 * half, cy))
