"""End-to-end pipeline tests: design -> (assign) -> match -> verify."""

import math

import pytest

from repro import (
    Board,
    DesignRules,
    DifferentialPair,
    LengthMatchingRouter,
    MatchGroup,
    Trace,
    check_board,
)
from repro.bench import (
    make_any_direction_design,
    make_msdtw_case,
    make_table1_case,
    make_table2_design,
)
from repro.core import (
    ClearanceScene,
    ExtensionConfig,
    FixedTrackMeander,
    TraceExtender,
)
from repro.geometry import Point, Polyline
from repro.region import apply_assignment, assign_regions


class TestTable1Pipeline:
    @pytest.mark.parametrize("case", [1, 4])
    def test_dense_single_ended_case(self, case):
        board, spec = make_table1_case(case)
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        assert report.max_error() < 0.06          # far better than initial
        assert report.max_error() >= -1e-9        # never overshoots
        assert check_board(board).is_clean()

    def test_differential_case(self):
        board, spec = make_table1_case(5)
        original_skew = {p.name: p.skew() for p in board.pairs}
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        assert report.max_error() < 0.03
        for pair in board.pairs:
            # Routed pairs come back skew-free; members already at target
            # keep their original routing (and its legal tiny-pattern skew).
            assert pair.skew() <= max(1e-6, original_skew[pair.name])

    def test_endpoints_never_move(self):
        board, _ = make_table1_case(2)
        before = {t.name: (t.start, t.end) for t in board.traces}
        LengthMatchingRouter(board).match_group(board.groups[0])
        for t in board.traces:
            s, e = before[t.name]
            assert t.start.almost_equals(s, 1e-6) and t.end.almost_equals(e, 1e-6)

    def test_traces_stay_in_their_corridors(self):
        from repro.geometry import polyline_inside_polygon

        board, _ = make_table1_case(3)
        LengthMatchingRouter(board).match_group(board.groups[0])
        for t in board.traces:
            assert polyline_inside_polygon(t.path, board.routable_areas[t.name])


class TestTable2Pipeline:
    def test_dp_beats_fixed_tracks_when_tight(self):
        results = {}
        for dgap in (2.5, 5.0):
            board, trace = make_table2_design(dgap)
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
            results[dgap] = (dp.achieved, fixed.achieved)
        # DP wins at every d_gap, and its relative advantage grows as the
        # DRC tightens — the Table II trend.
        for dgap, (dp_l, fx_l) in results.items():
            assert dp_l > fx_l
        ratio_loose = results[2.5][0] / results[2.5][1]
        ratio_tight = results[5.0][0] / results[5.0][1]
        assert ratio_tight > ratio_loose * 0.9

    def test_upper_bound_decreases_with_dgap(self):
        bounds = []
        for dgap in (2.5, 4.0, 5.0):
            board, trace = make_table2_design(dgap)
            rules = board.rules.rules_for_points(trace.path.points)
            ext = TraceExtender(
                rules,
                board.member_routable_area(trace),
                ClearanceScene(board.obstacles),
                ExtensionConfig(max_iterations=800),
            ).extension_upper_bound(trace)
            bounds.append(ext.achieved)
        assert bounds[0] > bounds[1] > bounds[2]


class TestShowcases:
    def test_any_direction_group_matches(self):
        board = make_any_direction_design()
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        assert report.max_error() <= 1e-5
        assert check_board(board).is_clean()

    def test_msdtw_pipeline(self):
        board, pair = make_msdtw_case()
        report = LengthMatchingRouter(board).match_group(board.groups[0])
        m = report.members[0]
        assert abs(m.error()) < 0.01
        assert board.pairs[0].skew() <= 1e-6


class TestRegionAssignmentPipeline:
    def test_full_stack(self):
        rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
        board = Board.with_rect_outline(0, 0, 120, 70, rules)
        group = MatchGroup("bus", target_length=140.0)
        traces = []
        for k, length in enumerate((95.0, 110.0, 100.0)):
            t = board.add_trace(
                Trace(
                    f"s{k}",
                    Polyline([Point(5, 15 + 20 * k), Point(5 + length, 15 + 20 * k)]),
                    width=1.0,
                )
            )
            traces.append(t)
            group.add(t)
        board.add_group(group)

        assignment = assign_regions(
            board, traces, {t.name: 140.0 for t in traces}, cell=8.0
        )
        apply_assignment(board, assignment)
        report = LengthMatchingRouter(board).match_group(group)
        assert report.max_error() <= 1e-5
        assert check_board(board).is_clean()
