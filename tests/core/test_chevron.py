"""Tests for the chevron finishing stage (sub-pattern residual closing)."""

import math

import pytest

from oracles.extension import context_scene
from repro.core import ExtensionConfig, TraceExtender
from repro.drc import check_obstacle_clearance, check_segment_lengths, check_self_clearance
from repro.geometry import Point, Polyline, offset_polyline, rectangle
from repro.model import DesignRules, Trace, via

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
AREA = rectangle(-20.0, -40.0, 120.0, 40.0)


def extender(obstacles=(), other=(), **cfg) -> TraceExtender:
    return TraceExtender(
        RULES,
        AREA,
        context_scene(obstacles, other),
        ExtensionConfig(**cfg),
    )


def straight(length=100.0) -> Trace:
    return Trace("t", Polyline([Point(0, 0), Point(length, 0)]), width=1.0)


class TestDeadZoneResiduals:
    @pytest.mark.parametrize("residual", [0.5, 1.0, 2.5, 3.9])
    def test_sub_pattern_residuals_closed_exactly(self, residual):
        # Any need below 2*d_protect = 4 is unreachable by patterns alone.
        result = extender().extend(straight(), 100.0 + residual)
        assert math.isclose(result.achieved, 100.0 + residual, abs_tol=1e-6)

    def test_chevron_segments_respect_dprotect(self):
        result = extender().extend(straight(), 101.0)
        assert check_segment_lengths(result.trace, RULES).is_clean()

    def test_chevron_corners_obtuse(self):
        result = extender().extend(straight(), 101.0)
        for angle in result.trace.path.node_angles():
            assert angle > math.pi / 2

    def test_chevron_avoids_obstacles(self):
        # Vias hugging the longest segment force the chevron elsewhere or
        # to the far side.
        vias = [via(Point(50, 4.0), 1.5)]
        result = extender(obstacles=vias).extend(straight(), 101.0)
        assert math.isclose(result.achieved, 101.0, abs_tol=1e-6)
        assert check_obstacle_clearance(result.trace, vias, RULES).is_clean()

    def test_combined_with_patterns(self):
        # 100 -> 141.0: patterns cover 40, a chevron the odd 1.0.
        result = extender().extend(straight(), 141.0)
        assert math.isclose(result.achieved, 141.0, abs_tol=1e-6)
        assert check_self_clearance(result.trace, RULES).is_clean()


class TestMirroredChevrons:
    def test_offset_skew_free(self):
        # The mirrored pair cancels offset-skew exactly; a single chevron
        # does not.
        single = extender().extend(straight(), 101.5)
        paired = extender(mirrored_chevrons=True).extend(straight(), 101.5)

        def offset_skew(trace):
            left = offset_polyline(trace.path, +1.0).length()
            right = offset_polyline(trace.path, -1.0).length()
            return abs(left - right)

        assert offset_skew(paired.trace) <= 1e-9
        assert offset_skew(single.trace) > 1e-6

    def test_paired_still_exact(self):
        result = extender(mirrored_chevrons=True).extend(straight(), 101.5)
        assert math.isclose(result.achieved, 101.5, abs_tol=1e-6)

    def test_falls_back_to_single_on_short_trace(self):
        short = Trace("t", Polyline([Point(0, 0), Point(14, 0)]), width=1.0)
        result = extender(mirrored_chevrons=True).extend(short, 15.0)
        assert math.isclose(result.achieved, 15.0, abs_tol=1e-6)


class TestPlocalFlag:
    def test_plocal_increases_capacity(self):
        corridor = rectangle(-5.0, -8.0, 105.0, 8.0)
        with_p = TraceExtender(
            RULES, corridor, config=ExtensionConfig()
        ).extension_upper_bound(straight())
        without = TraceExtender(
            RULES, corridor, config=ExtensionConfig(allow_plocal=False)
        ).extension_upper_bound(straight())
        assert with_p.achieved > without.achieved

    def test_no_plocal_means_no_shared_feet(self):
        corridor = rectangle(-5.0, -8.0, 105.0, 8.0)
        result = TraceExtender(
            RULES, corridor, config=ExtensionConfig(allow_plocal=False)
        ).extension_upper_bound(straight())
        # Without plocal no leg may cross the original axis (a crossing
        # leg only arises from two connected opposite patterns).
        for seg in result.trace.path.segments():
            assert not (seg.a.y > 1e-9 and seg.b.y < -1e-9)
            assert not (seg.a.y < -1e-9 and seg.b.y > 1e-9)
