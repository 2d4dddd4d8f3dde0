"""Shared fixtures: small boards, traces and shrink environments."""

from __future__ import annotations

import json
import math

import pytest

from repro.geometry import Point, Polygon, Polyline, rectangle
from repro.model import Board, DesignRules, DifferentialPair, MatchGroup, Trace


@pytest.fixture
def decoded():
    """Decodes a daemon envelope or a cache entry the way a client reads
    its bytes: the stored parts either one carries come back as values."""
    from repro.server.app import _json_body

    return lambda value: json.loads(_json_body(getattr(value, "encoded", value)))


@pytest.fixture
def basic_rules() -> DesignRules:
    return DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)


@pytest.fixture
def straight_trace() -> Trace:
    return Trace("t", Polyline([Point(0.0, 0.0), Point(100.0, 0.0)]), width=1.0)


@pytest.fixture
def open_board(basic_rules) -> Board:
    """A large empty board with one straight trace."""
    board = Board.with_rect_outline(-20.0, -50.0, 120.0, 50.0, basic_rules)
    board.add_trace(
        Trace("t", Polyline([Point(0.0, 0.0), Point(100.0, 0.0)]), width=1.0)
    )
    return board


@pytest.fixture
def diagonal_board(basic_rules) -> Board:
    """Same trace rotated 30 degrees — any-direction twin of open_board."""
    angle = math.radians(30.0)
    d = Point(math.cos(angle), math.sin(angle))
    board = Board.with_rect_outline(-60.0, -60.0, 140.0, 110.0, basic_rules)
    board.add_trace(
        Trace("t", Polyline([Point(0.0, 0.0), Point(0.0, 0.0) + d * 100.0]), width=1.0)
    )
    return board


@pytest.fixture
def coupled_pair() -> DifferentialPair:
    """A perfectly coupled straight pair (centre distance 2.0)."""
    p = Trace("p_P", Polyline([Point(0.0, 1.0), Point(60.0, 1.0)]), width=0.6)
    n = Trace("p_N", Polyline([Point(0.0, -1.0), Point(60.0, -1.0)]), width=0.6)
    return DifferentialPair("p", p, n, rule=2.0)
