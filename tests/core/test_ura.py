"""Unit tests for the URA geometry (Fig. 6)."""

import math

import pytest

from repro.core import URA
from repro.geometry import Frame, Point, Segment


@pytest.fixture
def ura() -> URA:
    # Feet at 4 and 12, clearance half-width 2, outer border at 10.
    return URA(x_left=4.0, x_right=12.0, g=2.0, h_ob=10.0)


class TestBorders:
    def test_outer_rect(self, ura):
        assert ura.outer_rect() == (2.0, 0.0, 14.0, 10.0)

    def test_inner_rect(self, ura):
        assert ura.inner_rect() == (6.0, 0.0, 10.0, 6.0)

    def test_pattern_height_eq10(self, ura):
        assert ura.pattern_height() == 8.0

    def test_pattern_height_clamped_at_zero(self):
        assert URA(0, 4, 3.0, 2.0).pattern_height() == 0.0

    def test_validates_feet(self):
        with pytest.raises(ValueError):
            URA(5, 5, 1, 10)

    def test_validates_g(self):
        with pytest.raises(ValueError):
            URA(0, 5, 0, 10)


class TestPointClassification:
    def test_strictly_inside_outer(self, ura):
        assert ura.point_inside_outer(Point(8, 5))

    def test_touching_outer_not_inside(self, ura):
        assert not ura.point_inside_outer(Point(2.0, 5))
        assert not ura.point_inside_outer(Point(8, 10.0))

    def test_below_axis_not_inside(self, ura):
        assert not ura.point_inside_outer(Point(8, -1))

    def test_inside_inner(self, ura):
        assert ura.point_inside_inner(Point(8, 3))

    def test_touching_inner_counts(self, ura):
        assert ura.point_inside_inner(Point(6.0, 3))

    def test_arm_strip_not_inside_inner(self, ura):
        assert not ura.point_inside_inner(Point(4, 3))

    def test_above_inner_top_not_inside(self, ura):
        assert not ura.point_inside_inner(Point(8, 7))


class TestPolygons:
    def test_three_arm_polygons(self, ura):
        assert len(ura.arm_polygons()) == 3

    def test_arm_union_covers_legs_and_hat(self, ura):
        arms = ura.arm_polygons()
        h = ura.pattern_height()

        def union_contains(p: Point) -> bool:
            return any(a.contains_point(p) for a in arms)

        assert union_contains(Point(4, h / 2))          # left leg
        assert union_contains(Point(12, h / 2))         # right leg
        assert union_contains(Point(8, h))              # hat
        assert not union_contains(Point(8, h / 2 - 2))  # inner hole

    def test_outer_polygon_area(self, ura):
        assert math.isclose(ura.outer_polygon().area(), 12 * 10)

    def test_to_world_applies_frame(self, ura):
        f = Frame.from_segment(Segment(Point(0, 0), Point(0, 20)), 1)
        world = ura.to_world(f)
        assert len(world) == 3
        # The segment runs along +y, so local +x maps to world +y.
        b = world[0].bounds()
        assert b[3] > b[1]
