"""Equivalence tests: sweep-filtered DRC vs. the all-pairs oracle sweep.

``check_board`` must report the *identical* violation set — same kinds,
subjects, measurements, locations, and order — as
:func:`oracles.drc.check_board_exhaustive` on randomized boards that
actually violate (crossing traces, tight pairs, vias on copper and at
exactly ``d_obs``) and on the clean bench designs, and must beat it
clearly on a routed board.
"""

import random
import time

import pytest

from oracles.drc import check_board_exhaustive
from repro.bench.designs import make_msdtw_case, make_table1_case, make_table2_design
from repro.bench.perf import make_drc_board
from repro.drc import ViolationKind, check_board
from repro.geometry import Point, Polyline
from repro.io import drc_report_to_dict
from repro.model import Board, DesignRules, DifferentialPair, Trace, via


def random_dirty_board(seed, n_traces=6, n_obstacles=5):
    """Random meandering traces + vias + one pair in a 100x100 box.

    No care is taken to avoid violations — that is the point: both sweeps
    must agree on the dirty findings, not just on clean boards.
    """
    rng = random.Random(seed)
    rules = DesignRules(dgap=3.0, dobs=1.5, dprotect=1.0)
    board = Board.with_rect_outline(-10, -10, 110, 110, rules=rules)
    for t in range(n_traces):
        x, y = rng.uniform(0, 20), rng.uniform(0, 100)
        pts = [Point(x, y)]
        for _ in range(rng.randint(2, 12)):
            x += rng.uniform(1.5, 12.0)
            y += rng.uniform(-6.0, 6.0)
            pts.append(Point(x, y))
        board.add_trace(
            Trace(name=f"t{t}", path=Polyline(pts), width=0.5 + rng.random())
        )
    for o in range(n_obstacles):
        board.add_obstacle(
            via(
                Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                radius=1.0 + rng.random(),
                name=f"v{o}",
            )
        )
    y0 = rng.uniform(20, 80)
    board.add_pair(
        DifferentialPair(
            name="pr",
            trace_p=Trace(
                name="pP",
                path=Polyline([Point(0, y0), Point(60, y0 + rng.uniform(-3, 3))]),
                width=0.4,
            ),
            trace_n=Trace(
                name="pN",
                path=Polyline([Point(0, y0 + 1.2), Point(60, y0 + 1.2)]),
                width=0.4,
            ),
            rule=1.2,
        )
    )
    return board


def via_field_panel(seed, rows=9, cols=12):
    """Straight traces threading a via field, dirty on purpose.

    Each via sits on copper, exactly at the ``d_obs`` rule (the octagon's
    top vertex ``d_obs + w/2`` below its row's centreline: clean by the
    checker's slack), or at a random clear spot.  The panel is taller
    than wide, like the bench's DRC boards.
    """
    rng = random.Random(seed)
    rules = DesignRules(dgap=3.0, dobs=1.5, dprotect=1.0)
    board = Board.with_rect_outline(-5, -5, 125, 20 * rows, rules=rules)
    width, radius = 1.0, 1.0
    for r in range(rows):
        y = 10.0 + 20.0 * r
        board.add_trace(
            Trace(
                name=f"row{r}",
                path=Polyline([Point(x, y) for x in (0.0, 40.0, 80.0, 120.0)]),
                width=width,
            )
        )
        for c in range(cols):
            x = 5.0 + 10.0 * c
            kind = rng.choice(["on", "at", "off"])
            if kind == "on":
                center = Point(x + rng.uniform(-1, 1), y + rng.uniform(-1, 1))
            elif kind == "at":
                center = Point(x, y - (rules.dobs + width / 2.0) - radius)
            else:
                center = Point(x + rng.uniform(-3, 3), y + rng.choice([-1, 1]) * rng.uniform(5, 9))
            board.add_obstacle(via(center, radius=radius, name=f"v{r}_{c}_{kind}"))
    return board


def assert_reports_identical(board, check_areas=False):
    fast = check_board(board, check_areas=check_areas)
    exhaustive = check_board_exhaustive(board, check_areas=check_areas)
    assert drc_report_to_dict(fast) == drc_report_to_dict(exhaustive)
    return fast


class TestRandomBoards:
    @pytest.mark.parametrize("seed", range(20))
    def test_dirty_boards_identical(self, seed):
        board = random_dirty_board(seed)
        report = assert_reports_identical(board)
        # The workload must actually exercise violations, not vacuously pass.
        if seed < 12:
            assert len(report) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_via_field_panel_identical(self, seed):
        report = assert_reports_identical(via_field_panel(seed))
        assert report.of_kind(ViolationKind.OBSTACLE_CLEARANCE)

    def test_dense_collision_board(self):
        # Everything on top of everything: worst case for tie ordering.
        rng = random.Random(99)
        rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
        board = Board.with_rect_outline(-5, -5, 45, 45, rules=rules)
        for t in range(8):
            y = 2.0 + t * 1.1  # well inside d_gap of each other
            board.add_trace(
                Trace(
                    name=f"d{t}",
                    path=Polyline(
                        [Point(0, y), Point(20, y + rng.uniform(-0.5, 0.5)), Point(40, y)]
                    ),
                    width=0.8,
                )
            )
        board.add_obstacle(via(Point(20.0, 5.0), radius=2.0, name="hit"))
        report = assert_reports_identical(board)
        assert len(report) > 10


class TestBenchDesigns:
    def test_table1_unrouted(self):
        board, _ = make_table1_case(1)
        assert_reports_identical(board, check_areas=True)

    def test_table1_routed(self):
        from repro.api import RoutingSession, SessionConfig

        board, _ = make_table1_case(1)
        RoutingSession(board, config=SessionConfig.preset("bench")).run()
        report = assert_reports_identical(board, check_areas=True)
        assert report.is_clean()

    def test_table2_via_field(self):
        board, _ = make_table2_design(2.5)
        assert_reports_identical(board, check_areas=True)

    def test_msdtw_pair_with_dras(self):
        board, _ = make_msdtw_case()
        assert_reports_identical(board, check_areas=True)


class TestEmptyAndDegenerate:
    def test_empty_board(self):
        board = Board.with_rect_outline(0, 0, 10, 10)
        assert_reports_identical(board)

    def test_single_trace(self):
        board = Board.with_rect_outline(0, 0, 10, 10)
        board.add_trace(
            Trace(name="solo", path=Polyline([Point(1, 5), Point(9, 5)]), width=1.0)
        )
        assert_reports_identical(board)


class TestSpeed:
    def test_sweep_beats_all_pairs_sweep_at_scale_1(self):
        # The filtered path must already win clearly at the bench's
        # smallest scale.
        board = make_drc_board(1)

        def timed(check):
            t0 = time.perf_counter()
            check(board, check_areas=False)
            return time.perf_counter() - t0

        assert timed(check_board_exhaustive) / timed(check_board) > 5.0
