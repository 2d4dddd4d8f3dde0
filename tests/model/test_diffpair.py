"""Unit tests for differential pairs."""

import math

import pytest

from repro.geometry import Point, Polyline
from repro.model import DifferentialPair, Trace


def make_pair(center: float = 2.0, width: float = 0.6) -> DifferentialPair:
    p = Trace("d_P", Polyline([Point(0, center / 2), Point(50, center / 2)]), width=width)
    n = Trace("d_N", Polyline([Point(0, -center / 2), Point(50, -center / 2)]), width=width)
    return DifferentialPair("d", p, n, rule=center)


class TestBasics:
    def test_rule_is_center_distance(self):
        pair = make_pair(2.0)
        assert pair.center_distance() == 2.0

    def test_rule_must_exceed_width(self):
        with pytest.raises(ValueError):
            make_pair(center=0.5, width=0.6)

    def test_virtual_width_is_envelope(self):
        pair = make_pair(2.0, width=0.6)
        assert math.isclose(pair.virtual_width(), 2.6)

    def test_length_is_mean(self):
        pair = make_pair()
        assert pair.length() == 50.0

    def test_skew_zero_when_equal(self):
        assert make_pair().skew() == 0.0

    def test_skew_detects_difference(self):
        pair = make_pair()
        longer = pair.trace_n.with_path(
            Polyline([Point(0, -1), Point(25, -1), Point(25, -3), Point(27, -3), Point(27, -1), Point(50, -1)])
        )
        assert make_pair().with_traces(pair.trace_p, longer).skew() == 4.0

    def test_distance_rules_sorted_unique(self):
        pair = make_pair()
        pair = DifferentialPair("d", pair.trace_p, pair.trace_n, rule=2.0, extra_rules=(4.0, 2.0))
        assert pair.distance_rules() == [2.0, 4.0]


class TestCoupling:
    def test_coupled_gap_constant(self):
        pair = make_pair(2.0)
        gaps = pair.coupling_gaps(samples=16)
        assert all(math.isclose(g, 2.0, abs_tol=1e-9) for g in gaps)

    def test_max_decoupling_zero_for_coupled(self):
        assert make_pair().max_decoupling() <= 1e-9

    def test_max_decoupling_detects_bulge(self):
        pair = make_pair(2.0)
        bulged = pair.trace_n.with_path(
            Polyline([Point(0, -1), Point(20, -1), Point(25, -2.5), Point(30, -1), Point(50, -1)])
        )
        pair2 = pair.with_traces(pair.trace_p, bulged)
        assert pair2.max_decoupling() > 1.0

    def test_with_traces_keeps_rule(self):
        pair = make_pair()
        new = pair.with_traces(pair.trace_p, pair.trace_n)
        assert new.rule == pair.rule and new.name == pair.name
