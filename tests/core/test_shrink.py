"""Unit tests for URA shrinking (Alg. 2, Eqs. 10-13).

All scenarios are in a segment-local frame: the segment runs along the
x-axis, patterns extend into +y, and the routable boundary (when present)
is a large rectangle around everything.
"""

import math

import pytest

from repro.core import ShrinkEnvironment
from repro.geometry import Point, Polygon, rectangle

G = 2.0       # clearance half-width
H_MIN = 1.0   # minimum useful height
BIG = 50.0    # generous initial height


def env_of(*polys) -> ShrinkEnvironment:
    return ShrinkEnvironment.from_polygons(list(polys))


def column_bound(env, x: float, g: float) -> float:
    return float(env.column_bounds([x], g)[0])


def boundary(height: float = 40.0) -> Polygon:
    return rectangle(-20.0, -height, 120.0, height)


class TestFreeSpace:
    def test_empty_env_returns_h_init(self):
        h = env_of().max_pattern_height(10, 20, G, 8.0, H_MIN)
        assert h == 8.0

    def test_boundary_limits_height(self):
        # Outer border may reach the boundary edge at y=40: h = 40 - g.
        h = env_of(boundary(40.0)).max_pattern_height(10, 20, G, BIG, H_MIN)
        assert math.isclose(h, 40.0 - G)

    def test_h_min_respected(self):
        h = env_of(boundary(2.5)).max_pattern_height(10, 20, G, BIG, H_MIN)
        # 2.5 - 2.0 = 0.5 < h_min -> no pattern.
        assert h == 0.0

    def test_h_init_below_h_min(self):
        assert env_of().max_pattern_height(10, 20, G, 0.5, H_MIN) == 0.0


class TestSidesShrinking:
    def test_obstacle_crossing_left_side(self):
        # Box crossing the vertical line x = 10 - g = 8 at y in [5, 7].
        box = rectangle(6.0, 5.0, 9.0, 7.0)
        h = env_of(boundary(), box).max_pattern_height(10, 20, G, BIG, H_MIN)
        # h_ob shrinks to the lowest crossing ordinate (5): h = 5 - 2 = 3.
        assert math.isclose(h, 3.0)

    def test_obstacle_crossing_right_side(self):
        box = rectangle(21.0, 6.0, 25.0, 9.0)
        h = env_of(boundary(), box).max_pattern_height(10, 20, G, BIG, H_MIN)
        assert math.isclose(h, 4.0)

    def test_obstacle_outside_sides_ignored(self):
        box = rectangle(30.0, 2.0, 35.0, 6.0)
        h = env_of(boundary(), box).max_pattern_height(10, 20, G, 20.0, H_MIN)
        assert math.isclose(h, 20.0)

    def test_touching_side_does_not_shrink(self):
        # Box whose right edge lies exactly on the left side line x=8.
        box = rectangle(5.0, 2.0, 8.0, 6.0)
        h = env_of(boundary(), box).max_pattern_height(10, 20, G, 20.0, H_MIN)
        assert math.isclose(h, 20.0)


class TestHatShrinking:
    def test_straddling_polygon_shrinks_to_lowest_inside_node(self):
        # Tall box over the middle: bottom nodes at y=6 inside, top outside.
        box = rectangle(13.0, 6.0, 17.0, 100.0)
        h = env_of(boundary(), box).max_pattern_height(10, 20, G, 30.0, H_MIN)
        # h_ob <= 6 -> h = 4.
        assert math.isclose(h, 4.0)

    def test_iterative_shrinking_fig8(self):
        # First a straddler pulls h_ob to 20; that drops the inner top to
        # 20 - 2g = 16, newly exposing the second box (top at 17) which was
        # legally enclosed before; shrink below it entirely.
        tall = rectangle(14.0, 20.0, 16.0, 100.0)
        mid = rectangle(13.0, 12.0, 17.0, 17.0)
        h = env_of(boundary(), tall, mid).max_pattern_height(10, 20, G, 30.0, H_MIN)
        # h_ob <= 12 (below the whole mid box) -> h = 10.
        assert math.isclose(h, 10.0)


class TestInnerBorder:
    def test_enclosed_obstacle_allowed(self):
        # Small box strictly inside the inner border: pattern routes around.
        box = rectangle(13.0, 2.0, 17.0, 5.0)
        h = env_of(boundary(), box).max_pattern_height(10, 20, G, 20.0, H_MIN)
        assert math.isclose(h, 20.0)

    def test_enclosed_obstacle_rejected_without_dp_mode(self):
        box = rectangle(13.0, 2.0, 17.0, 5.0)
        h = env_of(boundary(), box).max_pattern_height(
            10, 20, G, 20.0, H_MIN, allow_enclosed=False
        )
        # Must shrink below the box: h_ob <= 2 -> h = 0 < h_min.
        assert h == 0.0

    def test_obstacle_in_arm_strip_shrinks(self):
        # Box in the left arm column [8, 12] above the foot.
        box = rectangle(9.0, 6.0, 11.0, 9.0)
        h = env_of(boundary(), box).max_pattern_height(10, 20, G, 20.0, H_MIN)
        # Whole polygon must go above the URA: h_ob <= 6 -> h = 4.
        assert math.isclose(h, 4.0)

    def test_narrow_pattern_cannot_enclose(self):
        # Feet only 2 apart (< 2g): no inner region, so the box (bottom at
        # y=2) forces h_ob <= 2, i.e. h = 0 — no pattern fits here.
        box = rectangle(10.5, 2.0, 11.5, 4.0)
        h = env_of(boundary(), box).max_pattern_height(10, 12, G, 20.0, H_MIN)
        assert h == 0.0

    def test_obstacle_below_axis_ignored(self):
        # "The area below line AD need not be checked."
        box = rectangle(12.0, -8.0, 18.0, -2.0)
        h = env_of(boundary(), box).max_pattern_height(10, 20, G, 20.0, H_MIN)
        assert math.isclose(h, 20.0)


class TestNonMonotonicity:
    """A valid height does not validate smaller heights (Sec. IV-B)."""

    OBSTACLE = rectangle(13.0, 3.0, 17.0, 6.0)

    def test_large_h_encloses(self):
        h = env_of(boundary(), self.OBSTACLE).max_pattern_height(
            10, 20, G, 20.0, H_MIN
        )
        assert math.isclose(h, 20.0)  # obstacle inside the inner border

    def test_small_h_init_forces_below(self):
        # Asking for h ~ 7 puts the hat *through* the obstacle: with
        # h_init=7, h_ob=9 and the inner top is 5 < box top 6 -> the box
        # violates the inner border -> shrink below it: h_ob <= 3 -> h=1.
        h = env_of(boundary(), self.OBSTACLE).max_pattern_height(
            10, 20, G, 7.0, H_MIN
        )
        assert math.isclose(h, 1.0)

    def test_h_init_just_above_enclosure_threshold(self):
        # h = 8 puts the inner top exactly at the box top (6 <= 6 with
        # tolerance): still enclosed.
        h = env_of(boundary(), self.OBSTACLE).max_pattern_height(
            10, 20, G, 8.0, H_MIN
        )
        assert math.isclose(h, 8.0)


class TestColumnBound:
    def test_bound_sees_arm_nodes(self):
        box = rectangle(9.0, 6.0, 11.0, 9.0)
        env = env_of(boundary(), box)
        assert math.isclose(column_bound(env, 10.0, G), 6.0)

    def test_bound_ignores_far_nodes(self):
        box = rectangle(30.0, 6.0, 35.0, 9.0)
        env = env_of(box)
        assert column_bound(env, 10.0, G) == math.inf

    def test_bound_is_admissible(self):
        # The exact height never exceeds the column bound minus g.
        box = rectangle(9.0, 6.0, 11.0, 9.0)
        env = env_of(boundary(), box)
        h = env.max_pattern_height(10, 20, G, BIG, H_MIN)
        assert h <= column_bound(env, 10.0, G) - G + 1e-9

    def test_bound_ignores_nodes_below_axis(self):
        box = rectangle(9.0, -9.0, 11.0, -6.0)
        env = env_of(box)
        assert column_bound(env, 10.0, G) == math.inf


class TestSideBound:
    def test_side_bound_finds_lowest_crossing(self):
        box = rectangle(6.0, 5.0, 9.0, 7.0)
        env = env_of(box)
        assert math.isclose(env.side_bound(8.0, 50.0), 5.0)

    def test_side_bound_none(self):
        env = env_of(rectangle(30.0, 5.0, 35.0, 7.0))
        assert env.side_bound(8.0, 50.0) == 50.0
