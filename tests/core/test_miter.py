"""Tests for d_miter corner mitering (Fig. 1's fourth DRC distance)."""

import math

import pytest

from repro.core import ExtensionConfig, LengthMatchingRouter, RouterConfig, TraceExtender
from repro.drc import check_segment_lengths
from repro.geometry import Point, Polyline, rectangle
from repro.model import Board, DesignRules, MatchGroup, Trace

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0, dmiter=0.8)
AREA = rectangle(-20.0, -40.0, 120.0, 40.0)


def extender(rules=RULES) -> TraceExtender:
    return TraceExtender(rules, AREA, config=ExtensionConfig())


def straight(length=100.0) -> Trace:
    return Trace("t", Polyline([Point(0, 0), Point(length, 0)]), width=1.0)


def corner_angles(path: Polyline):
    return path.node_angles()


class TestExtendMitered:
    def test_reaches_target(self):
        result = extender().extend_mitered(straight(), 140.0)
        assert math.isclose(result.achieved, 140.0, abs_tol=1e-3)

    def test_all_corners_obtuse(self):
        result = extender().extend_mitered(straight(), 150.0)
        for angle in corner_angles(result.trace.path):
            assert angle > math.pi / 2 + 1e-9

    def test_unmitered_has_right_angles(self):
        result = extender().extend(straight(), 150.0)
        assert any(
            math.isclose(a, math.pi / 2, abs_tol=1e-9)
            for a in corner_angles(result.trace.path)
        )

    def test_no_miter_rule_is_passthrough(self):
        rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0, dmiter=0.0)
        r1 = extender(rules).extend_mitered(straight(), 140.0)
        r2 = extender(rules).extend(straight(), 140.0)
        assert r1.trace.path.points == r2.trace.path.points

    def test_miter_cuts_exempt_from_dprotect(self):
        result = extender().extend_mitered(straight(), 150.0)
        assert check_segment_lengths(result.trace, RULES).is_clean()

    def test_miter_cut_length(self):
        result = extender().extend_mitered(straight(), 150.0)
        cut = math.sqrt(2.0) * RULES.dmiter
        cuts = [
            s.length()
            for s in result.trace.path.segments()
            if s.length() < RULES.dprotect
        ]
        assert cuts  # miters exist
        assert all(math.isclose(c, cut, rel_tol=0.02) for c in cuts)

    def test_endpoints_preserved(self):
        result = extender().extend_mitered(straight(), 150.0)
        assert result.trace.path.start == Point(0, 0)
        assert result.trace.path.end == Point(100, 0)


class TestRouterIntegration:
    def test_router_applies_miter(self):
        board = Board.with_rect_outline(-10, -30, 120, 30, RULES)
        t = board.add_trace(straight())
        group = MatchGroup("g", members=[t], target_length=140.0)
        board.add_group(group)
        config = RouterConfig(apply_miter=True)
        report = LengthMatchingRouter(board, config).match_group(group)
        assert math.isclose(report.members[0].length_after, 140.0, abs_tol=1e-3)
        for angle in corner_angles(board.trace_by_name("t").path):
            assert angle > math.pi / 2 + 1e-9
