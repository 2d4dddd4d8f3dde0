"""The closed-form region LP answers as ``linprog(method="highs")`` does.

When every cell has one variable the Sec. III LP splits into one
fractional knapsack per trace, and ``assign_regions`` fills each trace's
cells cheapest first instead of calling HiGHS.  These tests hold that
fill to HiGHS: bit for bit on the corpus and bench boards that take it,
within 1e-9 on generated separable LPs, and they check that every LP the
closed form declines (a near-tie at the margin, a shared cell, a
requirement out of reach) still reaches ``linprog`` with the inputs the
reference assembly builds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.region.assign as assign
from oracles.region import lp_inputs_reference
from repro.api import RegionAssignmentStage, SessionConfig
from repro.geometry import Point, Polyline
from repro.model import Board, DesignRules, Trace
from repro.region import (
    AssignmentInfeasible,
    assign_regions,
    decompose,
    trace_requirement,
)
from repro.scenarios import generate

CONFIG = SessionConfig.preset("default")


def _highs_x(costs, caps, counts, req):
    """``x`` of the separable LP from ``scipy.optimize.linprog``: one
    capacity row per variable, one sufficiency row per needy trace."""
    from scipy.optimize import linprog

    n = len(costs)
    trace_of = np.repeat(np.arange(len(counts)), counts)
    suff = [-(trace_of == j).astype(float) for j in np.flatnonzero(req > 0)]
    a_ub = np.vstack([np.eye(n)] + suff)
    b_ub = np.concatenate((caps, -req[req > 0]))
    result = linprog(c=costs, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert result.success, result.message
    return result.x


def _board_inputs(board):
    traces, targets, cell = RegionAssignmentStage.inputs(board, CONFIG)
    return board, traces, targets, cell


def _assign(board, traces, targets, cell):
    return assign_regions(
        board,
        traces,
        targets,
        cell=cell,
        safety=CONFIG.region.safety,
        reach=CONFIG.region.reach,
    )


def _recording(monkeypatch):
    from scipy.optimize import linprog as scipy_linprog

    calls = []

    def recording(**kwargs):
        calls.append(kwargs)
        return scipy_linprog(**kwargs)

    monkeypatch.setattr(assign, "linprog", recording)
    return calls


def _cleared(family, seed, **params):
    board = generate(family, seed=seed, params=params or None)
    board.routable_areas.clear()
    return board


# The bench --perf region rows (tiled/mixed_groups seed 0 at 6 and 12
# tiles) and the 48 fixed boards of perfbench's unassigned_mixed_12
# (seeds 0-47 at 12 tiles).
SEPARABLE_BOARDS = [("mixed_groups", 0, 6)] + [
    ("mixed_groups", seed, 12) for seed in range(48)
]


@pytest.mark.parametrize(
    "base, seed, tiles",
    SEPARABLE_BOARDS,
    ids=[f"{b}-s{s}-t{t}" for b, s, t in SEPARABLE_BOARDS],
)
def test_bench_boards_take_the_closed_form_with_highs_bits(base, seed, tiles, monkeypatch):
    board, traces, targets, cell = _board_inputs(
        _cleared("tiled", seed, tiles=tiles, base=base)
    )
    calls = _recording(monkeypatch)
    got = _assign(board, traces, targets, cell)
    assert calls == []
    monkeypatch.setattr(assign, "_fill_cheapest_first", lambda *args: None)
    want = _assign(board, traces, targets, cell)
    assert len(calls) == 1
    assert repr(got.usage) == repr(want.usage)
    assert got.cells == want.cells


@st.composite
def separable_lps(draw):
    """Traces of 1-8 cells each with distinct costs 1/16 apart or more,
    capacities that may be zero, and requirements that are zero, land
    exactly on a cumulative capacity in cost order, or fall in between."""
    counts, costs, caps, req = [], [], [], []
    for _ in range(draw(st.integers(1, 4))):
        ks = draw(st.lists(st.integers(0, 64), min_size=1, max_size=8, unique=True))
        cost = 1.0 + np.array(ks) / 16.0
        cap = np.array(
            draw(
                st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 4.0, 7.75]),
                    min_size=len(ks),
                    max_size=len(ks),
                )
            )
        )
        cum = np.cumsum(cap[np.argsort(cost, kind="stable")])
        kind = draw(st.sampled_from(["none", "exact", "between"]))
        if kind == "exact" or cum[-1] == 0:
            need = cum[draw(st.integers(0, len(ks) - 1))]
        elif kind == "between":
            need = cum[-1] * draw(st.floats(0.01, 1.0))
        else:
            need = 0.0
        counts.append(len(ks))
        costs.append(cost)
        caps.append(cap)
        req.append(need)
    return (
        np.concatenate(costs),
        np.concatenate(caps),
        np.array(counts),
        np.array(req),
    )


@settings(max_examples=150, deadline=None)
@given(separable_lps())
def test_fill_matches_highs_on_separable_lps(lp):
    costs, caps, counts, req = lp
    x = assign._fill_cheapest_first(costs, caps, counts, req)
    assert x is not None
    want = _highs_x(costs, caps, counts, req)
    assert np.array_equal(np.flatnonzero(x > 1e-9), np.flatnonzero(want > 1e-9))
    assert np.allclose(x, want, rtol=0.0, atol=1e-9)


class TestDeclines:
    """Inputs the closed form leaves to HiGHS."""

    @pytest.mark.parametrize(
        "costs, req",
        [
            # The marginal cell within the margin of the one before it...
            ([1.0, 1.0 + assign.TIE_MARGIN / 2, 2.0], 1.5),
            # ...or of the one after it.
            ([1.0, 1.0 + assign.TIE_MARGIN / 2, 2.0], 0.5),
            # An exact tie, as obstacle_maze has.
            ([1.0, 1.5, 1.5], 1.5),
        ],
    )
    def test_near_tie_at_the_margin(self, costs, req):
        args = (np.array(costs), np.ones(3), np.array([3]), np.array([req]))
        assert assign._fill_cheapest_first(*args) is None

    def test_gap_above_the_margin_answers(self):
        costs = np.array([1.0, 1.0 + 2 * assign.TIE_MARGIN, 2.0])
        x = assign._fill_cheapest_first(costs, np.ones(3), np.array([3]), np.array([1.5]))
        assert x.tolist() == [1.0, 0.5, 0.0]

    def test_ties_away_from_the_margin_answer(self):
        # Cells filled in full, or left empty, may tie among themselves.
        costs = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
        x = assign._fill_cheapest_first(costs, np.ones(5), np.array([5]), np.array([2.5]))
        assert x.tolist() == [1.0, 1.0, 0.5, 0.0, 0.0]

    def test_requirement_out_of_reach(self):
        args = (np.array([1.0, 2.0]), np.ones(2), np.array([2]), np.array([2.5]))
        assert assign._fill_cheapest_first(*args) is None

    @staticmethod
    def _assert_reference_inputs(lp, board, traces, cell, requirements, reach=None):
        deco = decompose(board, traces, cell, reach)
        _, variables, costs, a_ub, b_ub = lp_inputs_reference(deco, traces, requirements)
        assert lp["c"].tobytes() == costs.tobytes()
        assert lp["A_ub"].toarray().tobytes() == a_ub.toarray().tobytes()
        assert lp["b_ub"].tobytes() == b_ub.tobytes()
        return variables, a_ub

    def test_obstacle_maze_tie_reaches_linprog(self, monkeypatch):
        board, traces, targets, cell = _board_inputs(_cleared("obstacle_maze", 0))
        calls = _recording(monkeypatch)
        got = _assign(board, traces, targets, cell)
        (lp,) = calls
        variables, a_ub = self._assert_reference_inputs(
            lp, board, traces, cell, got.requirements, CONFIG.region.reach
        )
        # Separable (one capacity row per variable), declined for its tie.
        needy = sum(1 for req in got.requirements.values() if req > 0)
        assert a_ub.shape[0] - needy == len(variables)

    @staticmethod
    def _two_traces(ys, target=150.0):
        board = Board.with_rect_outline(0, 0, 60, 20, DesignRules(dgap=4.0, dprotect=2.0))
        traces = [
            board.add_trace(
                Trace(f"t{k}", Polyline([Point(2, y), Point(58, y)]), width=1.0)
            )
            for k, y in enumerate(ys)
        ]
        return board, traces, {t.name: target for t in traces}

    def test_shared_cell_reaches_linprog(self, monkeypatch):
        board, traces, targets = self._two_traces((4.0, 6.0))
        calls = _recording(monkeypatch)
        got = assign_regions(board, traces, targets, cell=10.0)
        (lp,) = calls
        variables, a_ub = self._assert_reference_inputs(
            lp, board, traces, 10.0, got.requirements
        )
        assert a_ub.shape[0] - len(traces) < len(variables)

    def test_infeasible_requirement_keeps_the_highs_message(self, monkeypatch):
        board, traces, targets = self._two_traces((10.0,), target=5000.0)
        calls = _recording(monkeypatch)
        with pytest.raises(AssignmentInfeasible, match="^LP infeasible: "):
            assign_regions(board, traces, targets, cell=10.0)
        (lp,) = calls
        requirements = {"t0": trace_requirement(traces[0], 5000.0, board.rules.default)}
        self._assert_reference_inputs(lp, board, traces, 10.0, requirements)
