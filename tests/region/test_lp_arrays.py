"""The array LP assembly hands HiGHS the problem the dict-and-list
assembly built, and integerises its answer the same way.

``assign_regions`` builds the pins, variables, ``costs``, ``A_ub`` and
``b_ub`` from the decomposition's arrays and integerises with array
operations; :mod:`oracles.region` keeps the loops it replaced.  On every
corpus family and seed with the routable areas cleared, the inputs
``linprog`` receives must equal the loops' bit for bit (the sparse
matrix down to its index arrays), and the cells and LP values must equal
what the loops make of the solution the loops' own ``linprog`` call
(one ``(0, None)`` bound per variable) returns.  Families whose LPs the
closed form solves (``mixed_groups``) are checked both ways: the closed
form's answer against the loops', and, with the closed form switched
off, the inputs HiGHS then receives.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.region.assign as assign
from oracles.digests import SEEDS, corpus_families
from oracles.region import integerise_reference, lp_inputs_reference
from repro.api import RegionAssignmentStage, SessionConfig
from repro.region import assign_regions, decompose


def _bits(array):
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def _assert_same_matrix(got, want):
    assert got.format == want.format == "csc"
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field


#: Corpus families whose region LPs have one variable per cell and no
#: near-tie at any trace's marginal cell, so the closed form solves them.
CLOSED_FORM_FAMILIES = {"mixed_groups"}


@pytest.mark.parametrize("family", corpus_families())
def test_lp_inputs_and_cells_match_the_loops(family, monkeypatch):
    from scipy.optimize import linprog as scipy_linprog
    from repro.scenarios import generate

    config = SessionConfig.preset("default")
    checked = 0
    for seed in SEEDS:
        board = generate(family, seed=seed)
        board.routable_areas.clear()
        traces, targets, cell = RegionAssignmentStage.inputs(board, config)
        if not traces:
            continue  # diffpair_cluster: no single-ended member needs space
        calls = []

        def recording(**kwargs):
            calls.append(kwargs)
            return scipy_linprog(**kwargs)

        def run():
            return assign_regions(
                board,
                traces,
                targets,
                cell=cell,
                safety=config.region.safety,
                reach=config.region.reach,
            )

        monkeypatch.setattr(assign, "linprog", recording)
        got = run()
        assert bool(calls) == (family not in CLOSED_FORM_FAMILIES)
        if not calls:
            with monkeypatch.context() as forced:
                forced.setattr(assign, "_fill_cheapest_first", lambda *args: None)
                run()
        (lp,) = calls
        deco = decompose(board, traces, cell, config.region.reach)
        pinned, variables, costs, a_ub, b_ub = lp_inputs_reference(
            deco, traces, got.requirements
        )
        assert _bits(lp["c"]) == _bits(costs)
        _assert_same_matrix(lp["A_ub"], a_ub)
        assert _bits(lp["b_ub"]) == _bits(b_ub)
        assert lp["bounds"] == (0, None) and lp["method"] == "highs"

        reference = scipy_linprog(
            c=costs,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0, None)] * len(variables),
            method="highs",
        )
        usage, cells = integerise_reference(traces, pinned, variables, reference.x)
        assert repr(got.usage) == repr(usage)
        assert got.cells == cells
        assert list(got.cells) == [t.name for t in traces]
        checked += 1
    if family != "diffpair_cluster":
        assert checked == len(SEEDS)


class TestTies:
    """Ties the corpus never produces: a cell two traces cross at the same
    distance, and a cell two traces use by the same amount.  A stand-in
    solver returns chosen values, so integerisation sees exact ties."""

    @staticmethod
    def _board(names):
        from repro.geometry import Point, Polyline
        from repro.model import Board, DesignRules, Trace

        board = Board.with_rect_outline(0, 0, 60, 20, DesignRules(dgap=4.0, dprotect=2.0))
        # Both paths run 1.0 from the centre line of the first cell row.
        ys = {"low": 4.0, "high": 6.0}
        traces = [
            board.add_trace(
                Trace(name, Polyline([Point(2, ys[name]), Point(58, ys[name])]), width=1.0)
            )
            for name in names
        ]
        return board, traces

    def _assign(self, monkeypatch, names, values):
        from types import SimpleNamespace

        board, traces = self._board(names)
        calls = []

        def solver(**kwargs):
            calls.append(kwargs)
            n = len(kwargs["c"])
            return SimpleNamespace(success=True, message="", x=np.resize(values, n))

        monkeypatch.setattr(assign, "linprog", solver)
        targets = {t.name: 150.0 for t in traces}
        got = assign_regions(board, traces, targets, cell=10.0)
        deco = decompose(board, traces, 10.0)
        pinned, variables, costs, _, _ = lp_inputs_reference(deco, traces, got.requirements)
        assert _bits(calls[0]["c"]) == _bits(costs)
        x = np.resize(np.asarray(values, dtype=np.float64), len(variables))
        return got, integerise_reference(traces, pinned, variables, x), pinned

    @pytest.mark.parametrize("names", [("low", "high"), ("high", "low")])
    def test_equal_distance_pins_to_the_first_trace(self, monkeypatch, names):
        got, (usage, cells), pinned = self._assign(monkeypatch, names, [0.0])
        shared = [i for i, name in pinned.items() if i < 6]
        assert shared and all(pinned[i] == names[0] for i in shared)
        assert got.cells == cells
        assert all(i in got.cells[names[0]] for i in shared)

    @pytest.mark.parametrize("values", [[1.0], [0.5, 0.5, 1.0], [2.0, 0.0, 2.0, 2.0]])
    @pytest.mark.parametrize("names", [("low", "high"), ("high", "low")])
    def test_equal_amounts_go_to_the_first_variable(self, monkeypatch, names, values):
        got, (usage, cells), _ = self._assign(monkeypatch, names, values)
        assert repr(got.usage) == repr(usage)
        assert got.cells == cells
