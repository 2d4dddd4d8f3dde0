"""Unit tests for the top-level LengthMatchingRouter."""

import math

import pytest

from repro.core import LengthMatchingRouter, RouterConfig
from repro.drc import check_board
from repro.geometry import Point, Polyline, rectangle
from repro.model import Board, DesignRules, DifferentialPair, MatchGroup, Trace

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)


def board_with_traces(lengths, pitch=20.0) -> Board:
    board = Board.with_rect_outline(-10, -15, 130, pitch * len(lengths) + 15, RULES)
    group = MatchGroup("g")
    for k, length in enumerate(lengths):
        t = board.add_trace(
            Trace(f"t{k}", Polyline([Point(0, k * pitch), Point(length, k * pitch)]), width=1.0)
        )
        group.add(t)
    board.add_group(group)
    return board


class TestGroupMatching:
    def test_matches_to_longest(self):
        board = board_with_traces([80.0, 100.0, 90.0])
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        assert report.target == 100.0
        assert report.max_error() <= 1e-5

    def test_explicit_target(self):
        board = board_with_traces([80.0, 100.0])
        board.groups[0].target_length = 120.0
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        assert all(
            math.isclose(m.length_after, 120.0, abs_tol=1e-3) for m in report.members
        )

    def test_board_updated(self):
        board = board_with_traces([80.0, 100.0])
        LengthMatchingRouter(board).match_group(board.groups[0])
        assert math.isclose(board.trace_by_name("t0").length(), 100.0, abs_tol=1e-3)

    def test_result_drc_clean(self):
        board = board_with_traces([80.0, 95.0, 100.0])
        LengthMatchingRouter(board).match_group(board.groups[0])
        assert check_board(board).is_clean()

    def test_initial_error_metrics(self):
        board = board_with_traces([80.0, 100.0])
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        assert math.isclose(report.initial_max_error(), 0.2)

    def test_member_reports_populated(self):
        board = board_with_traces([80.0, 100.0])
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        m = report.members[0]
        assert m.kind == "trace" and m.runtime >= 0 and m.patterns > 0

    def test_match_single_trace_by_name(self):
        board = board_with_traces([80.0])
        report = LengthMatchingRouter(board).match_trace("t0", 110.0)
        assert math.isclose(report.length_after, 110.0, abs_tol=1e-3)


class TestEmptyGroupReport:
    """Regression: error metrics on a memberless report must not raise."""

    def test_empty_report_errors_are_zero(self):
        from repro.core import GroupReport

        report = GroupReport(group="empty", target=100.0)
        assert report.max_error() == 0.0
        assert report.avg_error() == 0.0
        assert report.initial_max_error() == 0.0


class TestMemberObserver:
    def test_on_member_called_per_member(self):
        board = board_with_traces([80.0, 100.0, 90.0])
        seen = []
        LengthMatchingRouter(board).match_group(
            board.groups[0], on_member=lambda m: seen.append(m.name)
        )
        assert seen == ["t0", "t1", "t2"]


class TestSequentialAwareness:
    def test_members_avoid_each_other(self):
        # Tight pitch: the first trace's meanders consume shared space and
        # the second must still clear them.
        board = board_with_traces([70.0, 100.0], pitch=14.0)
        LengthMatchingRouter(board).match_group(board.groups[0])
        assert check_board(board).is_clean()


class TestPairMatching:
    def make_pair_board(self):
        board = Board.with_rect_outline(-10, -30, 130, 30, RULES)
        p = Trace("d_P", Polyline([Point(0, 1.0), Point(100, 1.0)]), width=0.6)
        n = Trace("d_N", Polyline([Point(0, -1.0), Point(100, -1.0)]), width=0.6)
        pair = board.add_pair(DifferentialPair("d", p, n, rule=2.0))
        group = MatchGroup("g", members=[pair], target_length=130.0)
        board.add_group(group)
        return board, pair

    def test_pair_reaches_target(self):
        board, _ = self.make_pair_board()
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        m = report.members[0]
        assert m.kind == "pair"
        assert math.isclose(m.length_after, 130.0, abs_tol=1e-3)

    def test_pair_endpoints_preserved(self):
        board, pair = self.make_pair_board()
        starts = (pair.trace_p.start, pair.trace_n.start)
        LengthMatchingRouter(board).match_group(board.groups[0])
        new_pair = board.pairs[0]
        assert new_pair.trace_p.start.almost_equals(starts[0], 1e-6)
        assert new_pair.trace_n.start.almost_equals(starts[1], 1e-6)

    def test_pair_skew_compensated(self):
        board, _ = self.make_pair_board()
        LengthMatchingRouter(board).match_group(board.groups[0])
        assert board.pairs[0].skew() <= 1e-6

    def test_pair_gap_preserved(self):
        board, _ = self.make_pair_board()
        LengthMatchingRouter(board).match_group(board.groups[0])
        new_pair = board.pairs[0]
        gaps = new_pair.coupling_gaps(samples=60)
        # Straights hold the rule exactly; at right-angle corners the
        # outer curve's corner measures up to rule * sqrt(2) to the inner.
        assert min(gaps) >= 2.0 - 1e-6
        assert max(gaps) <= 2.0 * math.sqrt(2.0) + 1e-6
        straight_gaps = [g for g in gaps if abs(g - 2.0) < 1e-6]
        assert len(straight_gaps) > len(gaps) * 0.6

    def test_match_single_pair_by_name(self):
        board, _ = self.make_pair_board()
        report = LengthMatchingRouter(board).match_pair("d", 125.0)
        assert math.isclose(report.length_after, 125.0, abs_tol=1e-3)

    def test_compensation_can_be_disabled(self):
        board, _ = self.make_pair_board()
        cfg = RouterConfig(compensate_pairs=False)
        LengthMatchingRouter(board, cfg).match_group(board.groups[0])
        # Straight pair with patterns only: offsets are symmetric, so skew
        # stays zero even without compensation.
        assert board.pairs[0].skew() <= 1e-6
