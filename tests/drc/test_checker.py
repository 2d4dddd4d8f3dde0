"""Unit tests for the DRC engine — the library's correctness oracle."""

import math

import pytest

from repro.drc import (
    ViolationKind,
    check_board,
    check_containment,
    check_endpoints_preserved,
    check_obstacle_clearance,
    check_pair_coupling,
    check_segment_lengths,
    check_self_clearance,
    check_trace_pair_clearance,
    segments_parallel_conflict,
)
from repro.geometry import Point, Polygon, Polyline, Segment, rectangle
from repro.model import Board, DesignRules, DifferentialPair, Obstacle, Trace, via


RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)


def trace_of(*pts, name="t", width=1.0) -> Trace:
    return Trace(name, Polyline([Point(x, y) for x, y in pts]), width=width)


class TestSegmentLengths:
    def test_clean(self):
        rep = check_segment_lengths(trace_of((0, 0), (10, 0)), RULES)
        assert rep.is_clean()

    def test_short_segment_flagged(self):
        rep = check_segment_lengths(trace_of((0, 0), (1, 0), (10, 0)), RULES)
        assert len(rep.of_kind(ViolationKind.SHORT_SEGMENT)) == 1

    def test_exact_length_passes(self):
        rep = check_segment_lengths(trace_of((0, 0), (2, 0), (10, 0)), RULES)
        assert rep.is_clean()

    def test_violation_carries_measurements(self):
        rep = check_segment_lengths(trace_of((0, 0), (0.5, 0), (10, 0)), RULES)
        v = rep.violations[0]
        assert math.isclose(v.measured, 0.5) and v.required == 2.0
        assert v.margin() > 0


class TestParallelConflict:
    def test_parallel_overlapping_close(self):
        a = Segment(Point(0, 0), Point(10, 0))
        b = Segment(Point(2, 1), Point(8, 1))
        assert segments_parallel_conflict(a, b, required=2.0)

    def test_parallel_far_apart(self):
        a = Segment(Point(0, 0), Point(10, 0))
        b = Segment(Point(0, 5), Point(10, 5))
        assert not segments_parallel_conflict(a, b, required=2.0)

    def test_perpendicular_exempt(self):
        a = Segment(Point(0, 0), Point(10, 0))
        b = Segment(Point(5, 0.5), Point(5, 10))
        assert not segments_parallel_conflict(a, b, required=2.0)

    def test_collinear_no_overlap_exempt(self):
        a = Segment(Point(0, 0), Point(4, 0))
        b = Segment(Point(5, 0), Point(9, 0))
        assert not segments_parallel_conflict(a, b, required=2.0)

    def test_antiparallel_counts(self):
        a = Segment(Point(0, 0), Point(10, 0))
        b = Segment(Point(8, 1), Point(2, 1))
        assert segments_parallel_conflict(a, b, required=2.0)


class TestSelfClearance:
    def test_legal_serpentine_clean(self):
        # Pattern legs 2 apart (= d_protect), tops fine.
        t = trace_of((0, 0), (4, 0), (4, 5), (6, 5), (6, 0), (10, 0))
        assert check_self_clearance(t, RULES).is_clean()

    def test_crossing_copper_flagged(self):
        t = trace_of((0, 0), (10, 0), (10, 5), (0.5, 5), (0.5, 0.5), (9, 0.5))
        rep = check_self_clearance(t, RULES)
        assert len(rep.of_kind(ViolationKind.SELF_CLEARANCE)) >= 1

    def test_custom_floor(self):
        # Two parallel runs 3 apart: fine at the d_protect floor, flagged
        # when the caller demands d_gap.
        t = trace_of((0, 0), (10, 0), (10, 3), (0, 3), (0, 6), (10, 6))
        assert check_self_clearance(t, RULES).is_clean()
        rep = check_self_clearance(t, RULES, required=RULES.dgap + 1.0)
        assert not rep.is_clean()


class TestTracePairClearance:
    def test_far_apart_clean(self):
        a = trace_of((0, 0), (10, 0), name="a")
        b = trace_of((0, 10), (10, 10), name="b")
        assert check_trace_pair_clearance(a, b, RULES).is_clean()

    def test_too_close_flagged(self):
        a = trace_of((0, 0), (10, 0), name="a")
        b = trace_of((0, 3), (10, 3), name="b")
        rep = check_trace_pair_clearance(a, b, RULES)
        assert len(rep.of_kind(ViolationKind.TRACE_CLEARANCE)) == 1

    def test_exactly_at_rule_passes(self):
        a = trace_of((0, 0), (10, 0), name="a", width=1.0)
        b = trace_of((0, 5), (10, 5), name="b", width=1.0)  # 4 + 0.5 + 0.5
        assert check_trace_pair_clearance(a, b, RULES).is_clean()


class TestObstacleClearance:
    def test_clear(self):
        t = trace_of((0, 0), (20, 0))
        rep = check_obstacle_clearance(t, [via(Point(10, 10), 1.0)], RULES)
        assert rep.is_clean()

    def test_too_close(self):
        t = trace_of((0, 0), (20, 0))
        rep = check_obstacle_clearance(t, [via(Point(10, 2.0), 1.0)], RULES)
        assert len(rep.of_kind(ViolationKind.OBSTACLE_CLEARANCE)) == 1

    def test_required_includes_width(self):
        t = trace_of((0, 0), (20, 0), width=2.0)
        rep = check_obstacle_clearance(t, [via(Point(10, 3.5), 1.0)], RULES)
        # clearance = 3.5 - 1.0 = 2.5 < d_obs + w/2 = 3.0
        assert not rep.is_clean()


class TestContainmentAndEndpoints:
    def test_containment_ok(self):
        t = trace_of((1, 1), (9, 1))
        assert check_containment(t, rectangle(0, 0, 10, 10)).is_clean()

    def test_escape_flagged(self):
        t = trace_of((1, 1), (12, 1))
        rep = check_containment(t, rectangle(0, 0, 10, 10))
        assert len(rep.of_kind(ViolationKind.OUTSIDE_AREA)) == 1

    def test_endpoints_preserved(self):
        before = trace_of((0, 0), (10, 0))
        after = trace_of((0, 0), (5, 0), (5, 2), (7, 2), (7, 0), (10, 0))
        assert check_endpoints_preserved(before, after).is_clean()

    def test_endpoint_moved_flagged(self):
        before = trace_of((0, 0), (10, 0))
        after = trace_of((0, 0), (10, 1))
        rep = check_endpoints_preserved(before, after)
        assert len(rep.of_kind(ViolationKind.ENDPOINT_MOVED)) == 1


class TestPairCoupling:
    def test_coupled_clean(self):
        p = trace_of((0, 1), (50, 1), name="d_P", width=0.6)
        n = trace_of((0, -1), (50, -1), name="d_N", width=0.6)
        pair = DifferentialPair("d", p, n, rule=2.0)
        assert check_pair_coupling(pair, max_deviation=0.1).is_clean()

    def test_decoupled_flagged(self):
        p = trace_of((0, 1), (50, 1), name="d_P", width=0.6)
        n = trace_of((0, -1), (25, -1), (30, -4), (35, -1), (50, -1), name="d_N", width=0.6)
        pair = DifferentialPair("d", p, n, rule=2.0)
        rep = check_pair_coupling(pair, max_deviation=0.5)
        assert len(rep.of_kind(ViolationKind.PAIR_DECOUPLED)) == 1


class TestBoardCheck:
    def test_clean_board(self):
        board = Board.with_rect_outline(0, 0, 100, 100, RULES)
        board.add_trace(trace_of((5, 10), (95, 10), name="a"))
        board.add_trace(trace_of((5, 30), (95, 30), name="b"))
        assert check_board(board).is_clean()

    def test_detects_cross_trace_violation(self):
        board = Board.with_rect_outline(0, 0, 100, 100, RULES)
        board.add_trace(trace_of((5, 10), (95, 10), name="a"))
        board.add_trace(trace_of((5, 12), (95, 12), name="b"))
        assert not check_board(board).is_clean()

    def test_pair_members_exempt_from_dgap(self):
        board = Board.with_rect_outline(0, 0, 100, 100, RULES)
        p = trace_of((5, 11), (95, 11), name="d_P", width=0.6)
        n = trace_of((5, 9), (95, 9), name="d_N", width=0.6)
        board.add_pair(DifferentialPair("d", p, n, rule=2.0))
        assert check_board(board).is_clean()

    def test_respects_routable_area(self):
        board = Board.with_rect_outline(0, 0, 100, 100, RULES)
        board.add_trace(trace_of((5, 10), (95, 10), name="a"))
        board.set_routable_area("a", rectangle(0, 0, 50, 50))
        rep = check_board(board)
        assert len(rep.of_kind(ViolationKind.OUTSIDE_AREA)) == 1

    def test_report_formatting(self):
        board = Board.with_rect_outline(0, 0, 100, 100, RULES)
        board.add_trace(trace_of((5, 10), (95, 10), name="a"))
        board.add_trace(trace_of((5, 12), (95, 12), name="b"))
        rep = check_board(board)
        assert "trace_clearance" in str(rep)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteGeometry:
    """A NaN or infinite coordinate has no distance a box test can bound,
    so ``check_board`` refuses it instead of reporting the board clean."""

    def _board(self):
        board = Board.with_rect_outline(0, 0, 100, 100, RULES)
        board.add_trace(trace_of((5, 10), (50, 10), (95, 10), name="a"))
        board.add_trace(trace_of((5, 10.1), (95, 10.1), name="b"))
        board.add_obstacle(via(Point(50, 10), 1.0, name="v"))
        return board

    def test_finite_board_is_dirty(self):
        report = check_board(self._board())
        assert len(report.of_kind(ViolationKind.TRACE_CLEARANCE)) == 1
        assert len(report.of_kind(ViolationKind.OBSTACLE_CLEARANCE)) == 2

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("coord", ["x", "y"])
    def test_trace_point_refused(self, bad, coord):
        board = self._board()
        a = board.trace_by_name("a")
        pts = list(a.path.points)
        pts[1] = Point(bad, pts[1].y) if coord == "x" else Point(pts[1].x, bad)
        board.replace_trace(a.with_path(Polyline(pts)))
        with pytest.raises(ValueError, match="trace 'a'"):
            check_board(board)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_obstacle_vertex_refused(self, bad):
        board = self._board()
        v = board.obstacles[0]
        pts = list(v.polygon.points)
        pts[3] = Point(pts[3].x, bad)
        board.obstacles[0] = Obstacle(Polygon(pts), kind=v.kind, name=v.name)
        with pytest.raises(ValueError, match="obstacle 'v'"):
            check_board(board)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_pair_sub_trace_refused(self, bad):
        board = Board.with_rect_outline(0, 0, 100, 100, RULES)
        p = trace_of((5, 11), (95, 11), name="d_P", width=0.6)
        n = trace_of((5, 9), (bad, 9), name="d_N", width=0.6)
        board.add_pair(DifferentialPair("d", p, n, rule=2.0))
        with pytest.raises(ValueError, match="trace 'd_N'"):
            check_board(board)
