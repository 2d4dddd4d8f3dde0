"""The numpy decomposition kernel equals the per-cell loop, bit for bit.

``repro.region.decompose`` replaced the scalar loop kept in
:mod:`oracles.region`.  Both are compared by ``repr``: every region (its
bounds, capacity and crossing traces), every neighbour list and every
exact distance the decomposition keeps for the LP.
"""

import importlib
import math
import random

import numpy as np
import pytest

from oracles.digests import SEEDS, corpus_families
from oracles.region import decompose_reference
from repro.geometry import Point, Polyline
from repro.model import Board, DesignRules, Trace, rect_keepout
from repro.region import decompose
from repro.region.capacity import meander_pitch

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)

#: The module (``repro.region.decompose`` is also the function's name).
DECOMPOSE = importlib.import_module("repro.region.decompose")


def assert_same(board, traces, cell, reach=None):
    fast = decompose(board, traces, cell, reach)
    ref = decompose_reference(board, traces, cell, reach)
    assert repr(fast.regions) == repr(ref.regions)
    assert repr(fast.neighbours) == repr(ref.neighbours)
    assert repr(sorted(fast.distances.items())) == repr(sorted(ref.distances.items()))
    return fast


def board_traces(board):
    """Every single-ended trace plus both halves of every pair."""
    traces = list(board.traces)
    for pair in board.pairs:
        traces.extend((pair.trace_p, pair.trace_n))
    return traces


def default_cell(board, traces):
    """The cell the region stage derives when the config leaves it unset."""
    return 3.0 * meander_pitch(board.rules.default, max(t.width for t in traces))


#: (cell factor, reach factor or None): the stage's defaults; a reach
#: below the half-diagonal; a coarse grid with a wide reach.
SETTINGS = [(1.0, None), (0.7, 0.3), (2.3, 5.0)]


@pytest.mark.parametrize("cell_factor, reach_factor", SETTINGS)
@pytest.mark.parametrize("family", corpus_families())
def test_corpus_matches_the_loop(family, cell_factor, reach_factor):
    from repro.scenarios import generate

    for seed in SEEDS:
        board = generate(family, seed=seed)
        traces = board_traces(board)
        cell = cell_factor * default_cell(board, traces)
        reach = None if reach_factor is None else reach_factor * cell
        deco = assert_same(board, traces, cell, reach)
        assert any(deco.neighbours.values()), (family, seed)


def _trace(name, *points):
    return Trace(name, Polyline([Point(x, y) for x, y in points]), width=1.0)


class TestHandMadeBoards:
    def test_zero_length_segments(self):
        board = Board.with_rect_outline(0, 0, 100, 60, RULES)
        traces = [
            _trace("dup", (10, 10), (10, 10), (60, 30)),
            _trace("dot", (40, 40), (40, 40)),
            _trace("tail", (5, 50), (70, 50), (70, 50)),
        ]
        deco = assert_same(board, traces, cell=7.0)
        assert deco.neighbours["dot"]

    def test_last_row_and_column_clipped_by_outline(self):
        board = Board.with_rect_outline(0, 0, 103.7, 45.2, RULES)
        traces = [_trace("t0", (5, 20), (98, 22))]
        deco = assert_same(board, traces, cell=10.0)
        last = deco.regions[-1]
        assert last.xmax - last.xmin < 10.0 and last.ymax - last.ymin < 10.0

    def test_obstacle_crossing_the_outline_edge(self):
        board = Board.with_rect_outline(0, 0, 100, 60, RULES)
        board.add_obstacle(rect_keepout(-5, 20, 15, 35))
        board.add_obstacle(rect_keepout(90, -3, 110, 8))
        board.add_obstacle(rect_keepout(30, 30, 30.5, 30.5))
        traces = [_trace("t0", (5, 10), (95, 50))]
        deco = assert_same(board, traces, cell=6.0)
        assert any(r.capacity < r.area() for r in deco.regions)

    def test_trace_far_from_every_cell(self):
        board = Board.with_rect_outline(0, 0, 100, 60, RULES)
        traces = [
            _trace("near", (5, 10), (95, 10)),
            _trace("far", (500, 500), (600, 520)),
        ]
        deco = assert_same(board, traces, cell=8.0)
        assert deco.neighbours["far"] == []
        assert not any("far" in r.crossed_by for r in deco.regions)

    def test_cell_count_not_a_multiple_of_the_block(self, monkeypatch):
        board = Board.with_rect_outline(0, 0, 100, 60, RULES)
        traces = [
            _trace("t0", (5, 10), (50, 55), (95, 12)),
            _trace("t1", (3, 30), (97, 31)),
            _trace("t2", (20, 5), (20, 5), (80, 50), (10, 40)),
        ]
        # A reach past the board puts every cell in every trace's window;
        # a small pair budget splits the traces into blocks and each
        # block's (cell, segment) pairs into full and partial sub-blocks.
        for block in (1, 7, 100, 1000, DECOMPOSE.BLOCK_PAIRS):
            monkeypatch.setattr(DECOMPOSE, "BLOCK_PAIRS", block)
            deco = assert_same(board, traces, cell=3.3, reach=1e3)
            assert deco.neighbours["t0"] == list(range(len(deco.regions)))
        assert 1000 < len(deco.regions) * len(traces) < DECOMPOSE.BLOCK_PAIRS

    def test_shared_corridor_cells(self):
        board = Board.with_rect_outline(0, 0, 100, 40, RULES)
        traces = [_trace("a", (5, 19), (95, 19)), _trace("b", (5, 21), (95, 21))]
        deco = assert_same(board, traces, cell=10.0)
        assert any(len(r.crossed_by) == 2 for r in deco.regions)


def _hypot_disagreements():
    """(dx, dy) pairs on which ``np.hypot`` rounds above and below
    ``math.hypot``, from a seeded search (``None`` when none is found)."""
    rng = random.Random(0)
    above = below = None
    for _ in range(100_000):
        dx, dy = 1.0 + 2.0 * rng.random(), 1.0 + 2.0 * rng.random()
        approx, exact = float(np.hypot(dx, dy)), math.hypot(dx, dy)
        if approx > exact and above is None:
            above = (dx, dy)
        elif approx < exact and below is None:
            below = (dx, dy)
        if above and below:
            break
    return above, below


class TestExactDistanceAtTheThreshold:
    """A one-cell board centred on the origin and a one-point trace, so
    the centre-to-trace offset is exactly ``(dx, dy)``; ``reach`` sits on
    ``math.hypot(dx, dy)``, where only the exact distance decides."""

    ABOVE, BELOW = _hypot_disagreements()

    @staticmethod
    def _decide(dx, dy, reach):
        board = Board.with_rect_outline(-0.5, -0.5, 0.5, 0.5, RULES)
        trace = _trace("p", (dx, dy), (dx, dy))
        return assert_same(board, [trace], cell=1.0, reach=reach)

    def test_np_hypot_above_math_hypot_still_neighbours(self):
        dx, dy = self.ABOVE or (1.25, 2.5)
        exact = math.hypot(dx, dy)
        deco = self._decide(dx, dy, reach=exact)
        assert deco.neighbours["p"] == [0]
        assert deco.distances[(0, "p")] == exact

    def test_np_hypot_below_math_hypot_does_not_neighbour(self):
        dx, dy = self.BELOW or (1.25, 2.5)
        exact = math.hypot(dx, dy)
        deco = self._decide(dx, dy, reach=math.nextafter(exact, 0.0))
        assert deco.neighbours["p"] == []
        assert deco.distances == {}


@pytest.mark.parametrize("cell", [math.nan, math.inf, 0.0, -1.0])
def test_rejects_bad_cell(cell):
    board = Board.with_rect_outline(0, 0, 100, 60, RULES)
    with pytest.raises(ValueError, match="cell size"):
        decompose(board, [_trace("t0", (5, 10), (95, 10))], cell=cell)


def test_cell_count_builds_no_region(monkeypatch):
    # The region stage (and the benchmark's tracer) reads len(regions)
    # after every decomposition; only reading a region builds them.
    def no_region(**fields):
        raise AssertionError("a Region was built")

    board = Board.with_rect_outline(0, 0, 100, 60, RULES)
    deco = decompose(board, [_trace("t0", (5, 10), (95, 10))], cell=7.0)
    monkeypatch.setattr(DECOMPOSE, "Region", no_region)
    assert len(deco.regions) == 15 * 9
    monkeypatch.undo()
    assert deco.regions[-1].index == 15 * 9 - 1
