"""Equivalence tests: the numpy shrink environment vs. the seed oracle.

Production's :class:`repro.core.shrink.ShrinkEnvironment` must be
*bit-identical* to the polygon-and-range-tree
:class:`oracles.shrink.ShrinkEnvironment` — same side bounds, same column
bounds, same shrink fixpoints, same tie resolution — over randomized
polygon soups, in the style of ``tests/dtw/test_dtw_fast.py``.  The
production environment is built from the flat coordinate arrays the
extension loop would hand it, so the tests exercise exactly the
construction path the loop uses.
"""

import math
import random
import warnings

import pytest

import numpy as np

import repro.core.shrink as shrink_mod
from oracles.digests import SEEDS, corpus_families
from oracles.dp_inputs import (
    corpus_dp_inputs,
    fresh_envs,
    oracle_env,
    spread,
    table2_dp_inputs,
)
from oracles.shrink import ShrinkEnvironment as OracleShrinkEnvironment
from repro.core import ShrinkEnvironment
from repro.core.shrink import TOUCH_EPS
from repro.geometry import Point, Polygon


def random_polygons(seed, n_polys=14, span=50.0):
    """Rectangles, triangles and skewed quads scattered around the frame.

    Ordinates span both signs (geometry below the segment must never
    shrink a pattern) and sizes vary from sliver to large, so side lines
    cross edges at many angles and columns see dense and empty windows.
    """
    rng = random.Random(seed)
    polys = []
    for _ in range(n_polys):
        cx = rng.uniform(-span, span)
        cy = rng.uniform(-span / 2.0, span)
        kind = rng.randrange(3)
        if kind == 0:
            w, h = rng.uniform(0.5, 12.0), rng.uniform(0.5, 12.0)
            pts = [
                Point(cx - w, cy - h),
                Point(cx + w, cy - h),
                Point(cx + w, cy + h),
                Point(cx - w, cy + h),
            ]
        elif kind == 1:
            pts = [
                Point(cx + rng.uniform(-8, 8), cy + rng.uniform(-8, 8))
                for _ in range(3)
            ]
        else:
            w, h, skew = rng.uniform(1, 9), rng.uniform(1, 9), rng.uniform(-4, 4)
            pts = [
                Point(cx - w, cy - h),
                Point(cx + w + skew, cy - h),
                Point(cx + w, cy + h),
                Point(cx - w + skew, cy + h),
            ]
        polys.append(Polygon(pts))
    return polys


def both_envs(polys):
    ref = OracleShrinkEnvironment(polys)
    xs = np.array([p.x for poly in polys for p in poly.points])
    ys = np.array([p.y for poly in polys for p in poly.points])
    sizes = np.array([len(poly.points) for poly in polys], dtype=np.intp)
    return ref, ShrinkEnvironment(xs, ys, sizes)


class TestSideBound:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_lines_bit_identical(self, seed):
        polys = random_polygons(seed)
        ref, vec = both_envs(polys)
        rng = random.Random(seed + 1000)
        for _ in range(40):
            x = rng.uniform(-60, 60)
            h_ob = rng.uniform(0.1, 80.0)
            assert vec.side_bound(x, h_ob) == ref.side_bound(x, h_ob)

    @pytest.mark.parametrize("seed", range(8))
    def test_memo_consistent_across_h_ob(self, seed):
        # The DP probes many h_ob values at the same foot abscissas; the
        # memoized crossing minimum must answer each exactly as a fresh
        # reference scan would.
        polys = random_polygons(seed, n_polys=8)
        ref, vec = both_envs(polys)
        rng = random.Random(seed)
        xs = [rng.uniform(-55, 55) for _ in range(6)]
        for h_ob in (0.01, 1.0, 5.0, 20.0, 100.0, math.inf):
            for x in xs:
                assert vec.side_bound(x, h_ob) == ref.side_bound(x, h_ob)

    def test_vertex_on_line_is_skipped(self):
        # An edge endpoint exactly on the side line must not count as a
        # crossing in either backend (the node phase owns that case).
        poly = Polygon([Point(0.0, 1.0), Point(4.0, 1.0), Point(4.0, 5.0)])
        ref, vec = both_envs([poly])
        for x in (0.0, 4.0):
            assert vec.side_bound(x, 10.0) == ref.side_bound(x, 10.0) == 10.0

    def test_empty_environment(self):
        ref, vec = both_envs([])
        assert vec.side_bound(3.0, 7.5) == ref.side_bound(3.0, 7.5) == 7.5


def foot_lines(cfg):
    """The outer side lines of every left and right foot of a DP."""
    xs = np.arange(cfg.n) * cfg.step
    return np.concatenate([xs - cfg.g, xs + cfg.g])


class TestSideMinima:
    """The batch S(x) kernel against the oracle's scalar scan."""

    @pytest.mark.parametrize("source", corpus_families() + ["table2"])
    def test_corpus_foot_lines_match_oracle(self, source):
        # Every DP environment of the corpus (seeds 0-4), plus a spread of
        # the Table II via field's, whose ~600 vertices exercise the
        # line/edge pairing.
        if source == "table2":
            inputs = spread(table2_dp_inputs(), 20)
        else:
            inputs = [dp for seed in SEEDS for dp in corpus_dp_inputs(source, seed)]
        checked = 0
        for cfg, envs in inputs:
            lines = foot_lines(cfg)
            for d, env in fresh_envs(envs).items():
                ref = oracle_env(envs[d])
                assert env.side_minima(lines).tolist() == ref.side_minima(lines)
                checked += 1
        assert checked

    @pytest.mark.parametrize("seed", range(10))
    def test_random_soups_match_oracle(self, seed):
        ref, vec = both_envs(random_polygons(seed))
        xs = np.linspace(-62.0, 62.0, 97)
        assert vec.side_minima(xs).tolist() == ref.side_minima(xs)

    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_do_not_change_the_answer(self, seed, monkeypatch):
        polys = random_polygons(seed)
        xs = np.linspace(-62.0, 62.0, 41)
        whole = both_envs(polys)[1].side_minima(xs)
        monkeypatch.setattr(shrink_mod, "SIDE_BLOCK", 7)
        assert both_envs(polys)[1].side_minima(xs).tolist() == whole.tolist()

    def test_batch_fills_the_side_bound_memo(self, monkeypatch):
        ref, vec = both_envs(random_polygons(3))
        xs = np.linspace(-50.0, 50.0, 13)
        vec.side_minima(xs)

        def no_kernel(self, xs):
            raise AssertionError("memo miss")

        monkeypatch.setattr(ShrinkEnvironment, "_side_block", no_kernel)
        for x in xs.tolist():
            assert vec.side_bound(x, 30.0) == ref.side_bound(x, 30.0)

    def test_vertex_exactly_touch_eps_off_the_line(self):
        # An end exactly TOUCH_EPS from the line is not strictly across
        # it; one at twice that is.
        for off, crosses in ((TOUCH_EPS, False), (2 * TOUCH_EPS, True)):
            poly = Polygon([Point(off, 1.0), Point(-3.0, 5.0), Point(-3.0, 9.0)])
            mirrored = Polygon([Point(-p.x, p.y) for p in poly.points])
            for shape in (poly, mirrored):
                ref, vec = both_envs([shape])
                got = vec.side_minima(np.array([0.0])).tolist()
                assert got == ref.side_minima([0.0])
                assert math.isfinite(got[0]) == crosses

    def test_crossing_at_or_below_touch_eps_is_ignored(self):
        # Crossings at ordinates up to TOUCH_EPS touch the segment's own
        # clearance line; only the higher crossing bounds S.
        for low in (TOUCH_EPS, TOUCH_EPS / 2, -1.0):
            tri = Polygon([Point(-1.0, low), Point(1.0, low), Point(1.0, 6.0)])
            ref, vec = both_envs([tri])
            got = vec.side_minima(np.array([0.0])).tolist()
            assert got == ref.side_minima([0.0]) == [3.0 + low / 2]

    def test_vertical_edge_on_the_line(self):
        box = Polygon(
            [Point(3.0, 1.0), Point(6.0, 1.0), Point(6.0, 4.0), Point(3.0, 4.0)]
        )
        ref, vec = both_envs([box])
        xs = np.array([3.0, 4.5, 6.0])
        got = vec.side_minima(xs).tolist()
        assert got == ref.side_minima(xs) == [math.inf, 1.0, math.inf]

    def test_zero_length_edge(self):
        # A repeated vertex makes a zero-length edge; on the line it must
        # neither cross nor divide by zero.
        on_line = Polygon([Point(1.0, 3.0), Point(1.0, 3.0), Point(4.0, 8.0)])
        across = Polygon([Point(-2.0, 2.0), Point(-2.0, 2.0), Point(4.0, 8.0)])
        for poly, x, expected in ((on_line, 1.0, math.inf), (across, 1.0, 5.0)):
            ref, vec = both_envs([poly])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = vec.side_minima(np.array([x])).tolist()
            assert got == ref.side_minima([x]) == [expected]

    def test_empty_environment(self):
        ref, vec = both_envs([])
        xs = np.array([-1.0, 0.0, 2.5])
        assert vec.side_minima(xs).tolist() == ref.side_minima(xs)
        assert vec.side_minima(xs).tolist() == [math.inf] * 3
        assert vec.side_minima(np.array([])).tolist() == []

    def test_negative_zero(self):
        tri = Polygon([Point(-2.0, 1.0), Point(3.0, 6.0), Point(3.0, 8.0)])
        ref, vec = both_envs([tri])
        got = vec.side_minima(np.array([-0.0, 0.0])).tolist()
        assert got == ref.side_minima([-0.0, 0.0]) == [3.0, 3.0]
        assert vec.side_bound(-0.0, 10.0) == ref.side_bound(-0.0, 10.0) == 3.0


class TestColumnBounds:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("g", [0.3, 1.0, 4.5])
    def test_scalar_queries_bit_identical(self, seed, g):
        polys = random_polygons(seed)
        ref, vec = both_envs(polys)
        rng = random.Random(seed + 2000)
        for _ in range(30):
            x = rng.uniform(-60, 60)
            assert float(vec.column_bounds([x], g)[0]) == ref.column_node_bound(x, g)

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_matches_scalar_loop(self, seed):
        # The DP's one batched call per (segment, direction): every entry
        # must equal the reference's scalar query at the same abscissa,
        # including inf for empty windows.
        polys = random_polygons(seed)
        ref, vec = both_envs(polys)
        xs = np.arange(48) * 2.75 - 60.0
        batch = vec.column_bounds(xs, 1.8)
        assert [float(v) for v in batch] == ref.column_bounds(
            [float(x) for x in xs], 1.8
        )

    def test_empty_window_is_inf(self):
        ref, vec = both_envs([Polygon([Point(50, 5), Point(52, 5), Point(51, 8)])])
        assert float(vec.column_bounds(np.array([0.0]), 1.0)[0]) == math.inf
        assert ref.column_node_bound(0.0, 1.0) == math.inf


class TestNodesInBox:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_ids_same_order(self, seed):
        # Both backends must seed the shrink fixpoint with the same
        # candidate ids in the same (ascending) canonical order.
        polys = random_polygons(seed)
        ref, vec = both_envs(polys)
        rng = random.Random(seed + 3000)
        for _ in range(20):
            x0, y0 = rng.uniform(-60, 50), rng.uniform(-30, 50)
            x1, y1 = x0 + rng.uniform(0, 40), y0 + rng.uniform(0, 40)
            assert list(vec._nodes_in_box(x0, x1, y0, y1)) == list(
                ref._nodes_in_box(x0, x1, y0, y1)
            )


class TestMaxPatternHeight:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("allow_enclosed", [True, False])
    def test_full_shrink_bit_identical(self, seed, allow_enclosed):
        polys = random_polygons(seed)
        ref, vec = both_envs(polys)
        rng = random.Random(seed + 4000)
        g = rng.uniform(0.5, 3.0)
        for _ in range(25):
            xl = rng.uniform(-50, 40)
            xr = xl + rng.uniform(0.5, 30.0)
            h_init = rng.uniform(0.5, 60.0)
            h_min = rng.uniform(0.1, 3.0)
            assert vec.max_pattern_height(
                xl, xr, g, h_init, h_min, allow_enclosed=allow_enclosed
            ) == ref.max_pattern_height(
                xl, xr, g, h_init, h_min, allow_enclosed=allow_enclosed
            )

    def test_poly_points_round_trip(self):
        # The vector backend reconstructs Point tuples lazily from its
        # arrays; the fixpoint compares them against borders, so they
        # must be the reference's floats exactly.
        polys = random_polygons(5)
        ref, vec = both_envs(polys)
        for pid in range(len(polys)):
            assert vec._poly_points(pid) == ref._poly_points(pid)
