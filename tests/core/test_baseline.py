"""Unit tests for the fixed-track (no-DP) baseline — the Table II ablation."""

import math

import pytest

from repro.core import (
    ClearanceScene,
    ExtensionConfig,
    FixedTrackConfig,
    FixedTrackMeander,
    TraceExtender,
)
from repro.drc import check_segment_lengths, check_self_clearance
from repro.geometry import Point, Polyline, rectangle
from repro.model import DesignRules, Trace, via

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
AREA = rectangle(-20.0, -40.0, 120.0, 40.0)


def baseline(obstacles=(), area=AREA, fixed=None) -> FixedTrackMeander:
    return FixedTrackMeander(
        rules=RULES,
        area=area,
        scene=ClearanceScene(obstacles),
        config=ExtensionConfig(),
        fixed=fixed or FixedTrackConfig(),
    )


def straight(length=100.0) -> Trace:
    return Trace("t", Polyline([Point(0, 0), Point(length, 0)]), width=1.0)


class TestBasics:
    def test_extends_in_free_space(self):
        result = baseline().extend(straight(), 140.0)
        assert result.achieved >= 135.0  # quantized, may fall just short

    def test_never_overshoots(self):
        result = baseline().extend(straight(), 140.0)
        assert result.achieved <= 140.0 + 1e-6

    def test_endpoints_preserved(self):
        result = baseline().extend(straight(), 130.0)
        assert result.trace.path.start == Point(0, 0)
        assert result.trace.path.end == Point(100, 0)

    def test_result_is_drc_clean(self):
        result = baseline().extend(straight(), 150.0)
        assert check_self_clearance(result.trace, RULES).is_clean()
        assert check_segment_lengths(result.trace, RULES).is_clean()

    def test_upper_bound_positive(self):
        ub = baseline().extension_upper_bound(straight())
        assert ub.achieved > 150.0


class TestRigidity:
    def test_no_enclosure_of_obstacles(self):
        # A via close to the trace: the DP encloses/skirts it, the fixed-
        # track router must stay strictly below it.
        vias = [via(Point(50, 6), 1.5)]
        dp_ub = TraceExtender(
            RULES, AREA, ClearanceScene(vias), ExtensionConfig()
        ).extension_upper_bound(straight())
        fixed_ub = baseline(obstacles=vias).extension_upper_bound(straight())
        assert fixed_ub.achieved < dp_ub.achieved

    def test_single_pass_only(self):
        # Iterations are bounded by the segment count (one pass), unlike
        # the DP loop which re-queues new segments.
        result = baseline().extension_upper_bound(straight())
        assert result.iterations <= 2

    def test_heights_quantized(self):
        fixed = FixedTrackConfig(track_step=3.0)
        result = baseline(fixed=fixed).extension_upper_bound(straight())
        heights = set()
        pts = result.trace.path.points
        for p in pts:
            if abs(p.y) > 1e-9:
                heights.add(round(abs(p.y), 6))
        assert heights
        assert all(math.isclose(h % 3.0, 0.0, abs_tol=1e-6) or math.isclose(h % 3.0, 3.0, abs_tol=1e-6) for h in heights)

    def test_constant_pattern_width(self):
        fixed = FixedTrackConfig(pattern_width=4.0)
        result = baseline(fixed=fixed).extension_upper_bound(straight())
        # All pattern tops have the configured width.
        segs = result.trace.path.segments()
        tops = [s for s in segs if abs(s.a.y) > 1e-9 and abs(s.a.y - s.b.y) < 1e-9]
        assert tops
        assert all(math.isclose(t.length(), 4.0, abs_tol=0.6) for t in tops)


class TestAblationContrast:
    def test_dp_dominates_in_dense_field(self):
        from repro.bench.designs import make_table2_design

        board, trace = make_table2_design(4.0)
        rules = board.rules.rules_for_points(trace.path.points)
        area = board.member_routable_area(trace)
        dp = TraceExtender(
            rules,
            area,
            ClearanceScene(board.obstacles),
            ExtensionConfig(max_iterations=800),
        ).extension_upper_bound(trace)
        fixed = FixedTrackMeander(
            rules, area, ClearanceScene(board.obstacles), ExtensionConfig()
        ).extension_upper_bound(trace)
        assert dp.achieved > fixed.achieved * 1.5
