"""Unit tests for the queue-driven extension loop (Alg. 1)."""

import math

import pytest

from oracles.extension import context_scene, trim_total_reference
from repro.api import RoutingSession, SessionConfig
from repro.core import ClearanceScene, ExtensionConfig, TraceExtender
from repro.drc import check_obstacle_clearance, check_segment_lengths, check_self_clearance
from repro.geometry import Point, Polyline, rectangle
from repro.model import DesignRules, Trace, via
from repro.scenarios import generate

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
AREA = rectangle(-20.0, -40.0, 120.0, 40.0)


def extender(obstacles=(), other=(), area=AREA, rules=RULES, **cfg) -> TraceExtender:
    return TraceExtender(
        rules=rules,
        area=area,
        scene=context_scene(obstacles, other),
        config=ExtensionConfig(**cfg),
    )


def straight(length=100.0, name="t", width=1.0) -> Trace:
    return Trace(name, Polyline([Point(0, 0), Point(length, 0)]), width=width)


class TestExactMatching:
    def test_hits_target_exactly_in_free_space(self):
        result = extender().extend(straight(), 140.0)
        assert math.isclose(result.achieved, 140.0, abs_tol=1e-6)

    def test_small_extension(self):
        result = extender().extend(straight(), 104.5)
        assert math.isclose(result.achieved, 104.5, abs_tol=1e-3)

    def test_large_extension_in_tight_corridor(self):
        # On a single free segment one DP pass is already optimal (plocal
        # chains at full amplitude), so a target near the upper bound is
        # still met exactly.
        corridor = rectangle(-5.0, -8.0, 105.0, 8.0)
        result = extender(area=corridor).extend(straight(), 500.0)
        assert math.isclose(result.achieved, 500.0, abs_tol=1e-3)

    def test_dense_via_field_forces_iterations(self):
        # In a dense via field the first pass leaves gains on the table;
        # the queue re-visits the new component segments (Alg. 1's loop)
        # and meanders on the meanders.
        from repro.bench.designs import make_table2_design

        board, trace = make_table2_design(2.5)
        rules = board.rules.rules_for_points(trace.path.points)
        ext = TraceExtender(
            rules=rules,
            area=board.member_routable_area(trace),
            scene=ClearanceScene(board.obstacles),
            config=ExtensionConfig(max_iterations=800),
        )
        result = ext.extension_upper_bound(trace)
        assert result.iterations > 10
        assert result.achieved > 3.0 * trace.length()

    def test_target_below_length_rejected(self):
        with pytest.raises(ValueError):
            extender().extend(straight(), 50.0)

    def test_target_equal_noop(self):
        result = extender().extend(straight(), 100.0)
        assert result.achieved == 100.0
        assert result.patterns_applied == 0

    def test_endpoints_preserved(self):
        result = extender().extend(straight(), 160.0)
        assert result.trace.path.start == Point(0, 0)
        assert result.trace.path.end == Point(100, 0)

    def test_gain_property(self):
        result = extender().extend(straight(), 130.0)
        assert math.isclose(result.gain, 30.0, abs_tol=1e-6)

    def test_error_metric(self):
        result = extender().extend(straight(), 140.0)
        assert abs(result.error()) <= 1e-6


class TestAnyDirection:
    @pytest.mark.parametrize("angle_deg", [0, 17, 45, 90, 133, 218, 305])
    def test_rotation_invariant_gain(self, angle_deg):
        angle = math.radians(angle_deg)
        d = Point(math.cos(angle), math.sin(angle))
        trace = Trace("t", Polyline([Point(0, 0), d * 100.0]), width=1.0)
        area = rectangle(-150, -150, 150, 150)
        result = extender(area=area).extend(trace, 150.0)
        assert math.isclose(result.achieved, 150.0, abs_tol=1e-3)

    def test_diagonal_result_is_drc_clean(self):
        angle = math.radians(30)
        d = Point(math.cos(angle), math.sin(angle))
        trace = Trace("t", Polyline([Point(0, 0), d * 100.0]), width=1.0)
        area = rectangle(-150, -150, 150, 150)
        result = extender(area=area).extend(trace, 170.0)
        assert check_self_clearance(result.trace, RULES).is_clean()
        assert check_segment_lengths(result.trace, RULES).is_clean()


class TestObstacles:
    def test_routes_around_via(self):
        vias = [via(Point(50, 7), 2.0)]
        result = extender(obstacles=vias).extend(straight(), 150.0)
        assert math.isclose(result.achieved, 150.0, abs_tol=1e-3)
        assert check_obstacle_clearance(result.trace, vias, RULES).is_clean()

    def test_dense_field_still_clean(self):
        # Via rows at y in {9, 7, 5}: the closest leaves 3.5 of clearance
        # to the untouched trace, so the original layout is DRC-clean.
        vias = [via(Point(20 + 15 * k, 9 - 2 * (k % 3)), 1.5) for k in range(5)]
        result = extender(obstacles=vias).extend(straight(), 160.0)
        assert result.achieved > 100.0
        assert check_obstacle_clearance(result.trace, vias, RULES).is_clean()
        assert check_self_clearance(result.trace, RULES).is_clean()

    def test_blocked_space_reports_shortfall(self):
        # A tight area allows only limited meandering.
        tight = rectangle(-5.0, -4.0, 105.0, 4.0)
        result = extender(area=tight).extend(straight(), 400.0)
        assert result.achieved < 400.0 - ExtensionConfig().tolerance


class TestOtherTraces:
    def test_keeps_clearance_to_neighbour(self):
        neighbour = Trace(
            "n", Polyline([Point(0, 10), Point(100, 10)]), width=1.0
        )
        result = extender(other=[neighbour]).extend(straight(), 140.0)
        from repro.drc import check_trace_pair_clearance

        rep = check_trace_pair_clearance(result.trace, neighbour, RULES)
        assert rep.is_clean()

    def test_neighbour_reduces_capacity(self):
        # Hemmed in by traces on both sides, upper bound shrinks.
        n1 = Trace("n1", Polyline([Point(0, 8), Point(100, 8)]), width=1.0)
        n2 = Trace("n2", Polyline([Point(0, -8), Point(100, -8)]), width=1.0)
        free = extender().extension_upper_bound(straight())
        hemmed = extender(other=[n1, n2]).extension_upper_bound(straight())
        assert hemmed.achieved < free.achieved


class TestUpperBound:
    def test_upper_bound_exceeds_targeted_run(self):
        ub = extender().extension_upper_bound(straight())
        assert ub.achieved > 300.0

    def test_upper_bound_respects_area(self):
        small = rectangle(-5.0, -10.0, 105.0, 10.0)
        ub = extender(area=small).extension_upper_bound(straight())
        from repro.geometry import polyline_inside_polygon

        assert polyline_inside_polygon(ub.trace.path, small)

    def test_drc_clean_at_upper_bound(self):
        ub = extender().extension_upper_bound(straight())
        assert check_self_clearance(ub.trace, RULES).is_clean()
        assert check_segment_lengths(ub.trace, RULES).is_clean()


class TestMultiSegmentTraces:
    def test_bent_trace_extends(self):
        trace = Trace(
            "t", Polyline([Point(0, 0), Point(50, 0), Point(50, 30)]), width=1.0
        )
        area = rectangle(-30, -30, 90, 70)
        result = extender(area=area).extend(trace, 120.0)
        assert math.isclose(result.achieved, 120.0, abs_tol=1e-3)
        assert check_self_clearance(result.trace, RULES).is_clean()

    def test_135_degree_trace(self):
        trace = Trace(
            "t",
            Polyline([Point(0, 0), Point(40, 0), Point(70, 30), Point(110, 30)]),
            width=1.0,
        )
        area = rectangle(-30, -40, 150, 80)
        result = extender(area=area).extend(trace, 200.0)
        assert math.isclose(result.achieved, 200.0, abs_tol=1e-3)
        assert check_segment_lengths(result.trace, RULES).is_clean()


class TestConfig:
    def test_max_iterations_caps_work(self):
        result = extender(max_iterations=1).extend(straight(), 500.0)
        assert result.iterations <= 1

    def test_node_feet_flag_respected(self):
        # Very short trace where only node-to-node patterns fit.
        short = straight(7.0)
        with_feet = extender().extend(short, 12.0)
        without = extender(allow_node_feet=False).extend(short, 12.0)
        assert with_feet.achieved > without.achieved

    def test_custom_ldisc(self):
        result = extender(ldisc=1.0).extend(straight(), 130.0)
        assert math.isclose(result.achieved, 130.0, abs_tol=1e-3)


def recorded_trims(family, seed, monkeypatch):
    """Every ``_trim_total`` call of a ``fast`` route: its arguments and
    the patterns it returned."""
    calls = []
    production = TraceExtender._trim_total

    def recording(self, patterns, target_total, tol, envs, dp_cfg):
        args = (list(patterns), target_total, tol, envs, dp_cfg)
        out = production(self, patterns, target_total, tol, envs, dp_cfg)
        calls.append((args, list(out)))
        return out

    monkeypatch.setattr(TraceExtender, "_trim_total", recording)
    board = generate(family, seed=seed)
    RoutingSession(board, config=SessionConfig.preset("fast")).run()
    monkeypatch.undo()
    return calls


class TestTrim:
    @pytest.mark.parametrize(
        "family, seed", [("serpentine_bus", 0), ("tiled", 1), ("obstacle_maze", 2)]
    )
    def test_same_patterns_as_resumming_trim(self, family, seed, monkeypatch):
        # The gains list re-sums with sum() exactly where the old trim
        # re-summed every pattern's gain, so every recorded call returns
        # the same patterns, bit for bit.
        calls = recorded_trims(family, seed, monkeypatch)
        assert any(len(args[0]) != len(out) for args, out in calls)
        for args, out in calls:
            assert repr(trim_total_reference(*args)) == repr(out)
