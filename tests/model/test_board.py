"""Unit tests for the board container."""

import pytest

from repro.geometry import Point, Polyline, rectangle
from repro.model import Board, DesignRules, DifferentialPair, MatchGroup, Trace


def make_board() -> Board:
    return Board.with_rect_outline(0, 0, 100, 100, DesignRules(dgap=4))


def make_trace(name="t", y=10.0) -> Trace:
    return Trace(name, Polyline([Point(10, y), Point(90, y)]), width=1.0)


class TestMembership:
    def test_add_trace(self):
        b = make_board()
        t = b.add_trace(make_trace())
        assert b.trace_by_name("t") is t

    def test_duplicate_trace_rejected(self):
        b = make_board()
        b.add_trace(make_trace())
        with pytest.raises(ValueError):
            b.add_trace(make_trace())

    def test_missing_trace_raises(self):
        with pytest.raises(KeyError):
            make_board().trace_by_name("nope")

    def test_add_pair(self):
        b = make_board()
        p = Trace("d_P", Polyline([Point(0, 1), Point(10, 1)]), width=0.5)
        n = Trace("d_N", Polyline([Point(0, -1), Point(10, -1)]), width=0.5)
        pair = b.add_pair(DifferentialPair("d", p, n, rule=2.0))
        assert b.pair_by_name("d") is pair

    def test_pair_cannot_reuse_a_trace_name(self):
        b = make_board()
        b.add_trace(make_trace("bus0"))
        p = Trace("px", Polyline([Point(0, 1), Point(10, 1)]), width=0.5)
        n = Trace("bus0", Polyline([Point(0, -1), Point(10, -1)]), width=0.5)
        with pytest.raises(ValueError, match="duplicate"):
            b.add_pair(DifferentialPair("P0", p, n, rule=2.0))
        pn = Trace("pn", Polyline([Point(0, -1), Point(10, -1)]), width=0.5)
        with pytest.raises(ValueError, match="duplicate"):
            b.add_pair(DifferentialPair("bus0", p, pn, rule=2.0))
        assert b.pairs == []

    def test_trace_cannot_reuse_a_pair_or_sub_trace_name(self):
        b = make_board()
        p = Trace("d_P", Polyline([Point(0, 1), Point(10, 1)]), width=0.5)
        n = Trace("d_N", Polyline([Point(0, -1), Point(10, -1)]), width=0.5)
        b.add_pair(DifferentialPair("d", p, n, rule=2.0))
        for name in ("d", "d_P", "d_N"):
            with pytest.raises(ValueError, match="duplicate"):
                b.add_trace(make_trace(name))
        assert b.traces == []

    def test_pair_names_unique_across_pairs(self):
        b = make_board()
        p = Trace("d_P", Polyline([Point(0, 1), Point(10, 1)]), width=0.5)
        n = Trace("d_N", Polyline([Point(0, -1), Point(10, -1)]), width=0.5)
        b.add_pair(DifferentialPair("d", p, n, rule=2.0))
        q = Trace("e_P", Polyline([Point(0, 5), Point(10, 5)]), width=0.5)
        r = Trace("e_N", Polyline([Point(0, 3), Point(10, 3)]), width=0.5)
        with pytest.raises(ValueError, match="duplicate"):
            b.add_pair(DifferentialPair("e", q, n, rule=2.0))  # reuses d_N
        with pytest.raises(ValueError, match="duplicate"):
            b.add_pair(DifferentialPair("d_P", q, r, rule=2.0))
        with pytest.raises(ValueError, match="duplicate"):
            b.add_pair(DifferentialPair("d", q, r, rule=2.0))
        b.add_pair(DifferentialPair("e", q, r, rule=2.0))
        assert [pair.name for pair in b.pairs] == ["d", "e"]

    def test_pair_sub_traces_must_differ(self):
        b = make_board()
        p = Trace("s", Polyline([Point(0, 1), Point(10, 1)]), width=0.5)
        n = Trace("s", Polyline([Point(0, -1), Point(10, -1)]), width=0.5)
        with pytest.raises(ValueError, match="duplicate"):
            b.add_pair(DifferentialPair("d", p, n, rule=2.0))
        q = Trace("d", Polyline([Point(0, -1), Point(10, -1)]), width=0.5)
        with pytest.raises(ValueError, match="duplicate"):
            b.add_pair(DifferentialPair("d", p, q, rule=2.0))

    def test_duplicate_group_rejected(self):
        b = make_board()
        b.add_group(MatchGroup("g", members=[b.add_trace(make_trace())]))
        with pytest.raises(ValueError):
            b.add_group(MatchGroup("g"))


class TestRoutableAreas:
    def test_defaults_to_outline(self):
        b = make_board()
        t = b.add_trace(make_trace())
        assert b.member_routable_area(t) is b.outline

    def test_explicit_area(self):
        b = make_board()
        t = b.add_trace(make_trace())
        area = rectangle(0, 0, 50, 50)
        b.set_routable_area("t", area)
        assert b.member_routable_area(t) is area


class TestReplace:
    def test_replace_trace_updates_group(self):
        b = make_board()
        t = b.add_trace(make_trace())
        g = MatchGroup("g", members=[t])
        b.add_group(g)
        new = t.with_path(Polyline([Point(10, 10), Point(50, 10), Point(90, 10)]))
        b.replace_trace(new)
        assert b.trace_by_name("t") is new
        assert g.members[0] is new

    def test_replace_unknown_trace_raises(self):
        with pytest.raises(KeyError):
            make_board().replace_trace(make_trace("ghost"))

    def test_replace_pair_updates_group(self):
        b = make_board()
        p = Trace("d_P", Polyline([Point(0, 1), Point(10, 1)]), width=0.5)
        n = Trace("d_N", Polyline([Point(0, -1), Point(10, -1)]), width=0.5)
        pair = b.add_pair(DifferentialPair("d", p, n, rule=2.0))
        g = MatchGroup("g", members=[pair])
        b.add_group(g)
        new = pair.with_traces(p, n)
        b.replace_pair(new)
        assert g.members[0] is new
