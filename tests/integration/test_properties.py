"""Cross-cutting property-based tests on the routing invariants."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ExtensionConfig, TraceExtender
from repro.drc import check_segment_lengths, check_self_clearance
from repro.dtw import convert_pair, restore_pair
from repro.geometry import Point, Polyline, rectangle, rotation_about
from repro.model import DesignRules, DifferentialPair, Trace

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)

slow = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def free_extender() -> TraceExtender:
    return TraceExtender(
        rules=RULES,
        area=rectangle(-200, -200, 300, 300),
        config=ExtensionConfig(),
    )


class TestExtensionInvariants:
    @slow
    @given(
        st.floats(min_value=40.0, max_value=120.0),
        st.floats(min_value=1.05, max_value=2.5),
    )
    def test_length_accounting_exact(self, length, factor):
        """achieved == original + sum of applied pattern gains == target."""
        trace = Trace("t", Polyline([Point(0, 0), Point(length, 0)]), width=1.0)
        target = length * factor
        result = free_extender().extend(trace, target)
        assert math.isclose(result.achieved, result.trace.length(), rel_tol=1e-12)
        assert math.isclose(result.achieved, target, abs_tol=1e-3)

    @slow
    @given(
        st.floats(min_value=0.0, max_value=2 * math.pi),
        st.floats(min_value=1.1, max_value=2.0),
    )
    def test_rotation_equivariance(self, angle, factor):
        """Any-direction: matching a rotated trace gives the rotated result
        of matching the original (up to float noise)."""
        length = 80.0
        base = Trace("t", Polyline([Point(0, 0), Point(length, 0)]), width=1.0)
        rot = rotation_about(Point(0, 0), angle)
        rotated = base.with_path(rot.apply_polyline(base.path))
        target = length * factor

        r0 = free_extender().extend(base, target)
        r1 = free_extender().extend(rotated, target)
        assert math.isclose(r0.achieved, r1.achieved, abs_tol=1e-6)

    @slow
    @given(st.floats(min_value=1.1, max_value=3.0))
    def test_result_always_drc_clean(self, factor):
        trace = Trace("t", Polyline([Point(0, 0), Point(90, 0)]), width=1.0)
        result = free_extender().extend(trace, 90.0 * factor)
        assert check_self_clearance(result.trace, RULES).is_clean()
        assert check_segment_lengths(result.trace, RULES).is_clean()

    @slow
    @given(st.floats(min_value=1.1, max_value=2.0))
    def test_monotone_no_overshoot(self, factor):
        trace = Trace("t", Polyline([Point(0, 0), Point(70, 0)]), width=1.0)
        result = free_extender().extend(trace, 70.0 * factor)
        assert result.achieved <= 70.0 * factor + 1e-6
        assert result.achieved >= 70.0 - 1e-9


class TestPairInvariants:
    @slow
    @given(
        st.floats(min_value=1.5, max_value=3.0),
        st.floats(min_value=1.1, max_value=1.6),
    )
    def test_restoration_keeps_rule_and_skew(self, rule, factor):
        width = rule * 0.4
        p = Trace("d_P", Polyline([Point(0, rule / 2), Point(80, rule / 2)]), width=width)
        n = Trace("d_N", Polyline([Point(0, -rule / 2), Point(80, -rule / 2)]), width=width)
        pair = DifferentialPair("d", p, n, rule=rule)
        conv = convert_pair(pair, RULES)
        ext = TraceExtender(
            rules=conv.virtual_rules,
            area=rectangle(-100, -100, 200, 100),
            config=ExtensionConfig(allow_node_feet=False),
        )
        extended = ext.extend(conv.median, conv.median.length() * factor)
        result = restore_pair(conv, extended.trace)
        assert result.pair.skew() <= 1e-6
        gaps = result.pair.coupling_gaps(samples=48)
        assert min(gaps) >= rule - 1e-6

    @slow
    @given(st.floats(min_value=1.5, max_value=3.0))
    def test_merge_restore_identity(self, rule):
        width = rule * 0.4
        p = Trace("d_P", Polyline([Point(0, rule / 2), Point(60, rule / 2)]), width=width)
        n = Trace("d_N", Polyline([Point(0, -rule / 2), Point(60, -rule / 2)]), width=width)
        pair = DifferentialPair("d", p, n, rule=rule)
        conv = convert_pair(pair, RULES)
        result = restore_pair(conv, conv.median, compensate=False)
        assert result.pair.trace_p.path.start.almost_equals(p.path.start, 1e-6)
        assert result.pair.trace_n.path.end.almost_equals(n.path.end, 1e-6)
        assert math.isclose(result.pair.length(), pair.length(), abs_tol=1e-6)
