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
    region_dp_inputs,
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

    def test_window_is_open_at_both_ends(self):
        # Nodes exactly at x - g + TOUCH_EPS and x + g - TOUCH_EPS bound
        # no foot: the shrink counts neither (outside the outer border on
        # one side, inside the inner border on the other).
        x, g = 10.0, 2.0
        lo, hi = x - g + TOUCH_EPS, x + g - TOUCH_EPS
        ends = [
            Polygon([Point(lo, 1.0), Point(lo - 1, 9), Point(lo - 2, 9)]),
            Polygon([Point(hi, 2.0), Point(hi + 1, 9), Point(hi + 2, 9)]),
        ]
        ref, vec = both_envs(ends)
        got = float(vec.column_bounds([x], g)[0])
        assert got == ref.column_node_bound(x, g) == math.inf
        inner = Polygon([Point(hi - 1e-9, 3.0), Point(hi + 1, 9), Point(hi + 2, 9)])
        ref, vec = both_envs(ends + [inner])
        got = float(vec.column_bounds([x], g)[0])
        assert got == ref.column_node_bound(x, g) == 3.0

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


def side_step(ref, x_left, x_right, g, h_init):
    """``h_ob`` after the scalar shrink's side step (Eq. 11)."""
    h_ob = h_init + g
    h_ob = min(h_ob, ref.side_bound(x_left - g, h_ob))
    return min(h_ob, ref.side_bound(x_right + g, h_ob))


def check_pair_heights(vec, ref, xs, g, h_init, h_min, w_min, w_max):
    """Production's batch table against the oracle's scalar loop over the
    band: a NaN exactly where the scalar shrink passes the side step and
    finds a node in its ``P_check`` box, the oracle's height (by
    ``repr``) everywhere else.  Returns the number of NaN pairs."""
    got = vec.pair_heights(xs, g, h_init, h_min, w_min, w_max)
    want = ref.pair_heights(xs, g, h_init, h_min, w_min, w_max)
    n = len(xs)
    assert got.shape == (n, n)
    busy = 0
    for ir in range(n):
        for il in range(max(0, ir - w_max), ir - w_min + 1):
            x_left, x_right = float(xs[il]), float(xs[ir])
            h_ob = side_step(ref, x_left, x_right, g, h_init)
            boxed = (
                h_init >= h_min
                and h_ob - g >= h_min
                and len(
                    ref._nodes_in_box(
                        (x_left - g) + TOUCH_EPS,
                        (x_right + g) - TOUCH_EPS,
                        TOUCH_EPS,
                        h_ob - TOUCH_EPS,
                    )
                )
                > 0
            )
            h = float(got[il, ir])
            assert math.isnan(h) == boxed, (il, ir)
            if boxed:
                busy += 1
            else:
                assert repr(h) == repr(float(want[il, ir])), (il, ir)
    # Nothing outside the band's bounding box is filled.
    assert np.isnan(got[:, :w_min]).all()
    assert np.isnan(got[n - w_min :, :]).all()
    return busy


def check_dp_input(cfg, envs):
    xs = np.arange(cfg.n) * cfg.step
    w_max = cfg.n - 1
    busy = 0
    for d, vec in fresh_envs(envs).items():
        busy += check_pair_heights(
            vec, oracle_env(envs[d]), xs, cfg.g, cfg.h_init, cfg.h_min, cfg.w_min, w_max
        )
    return busy


def point(x, y):
    """A node at (x, y) with no edge to cross a side line."""
    return Polygon([Point(x, y)] * 3)


class TestPairHeights:
    """The DP's batch heights against the oracle's scalar shrink loop."""

    # Hand cases: feet every unit, g = 1, so the pair (3, 8) has its
    # outer side lines at x = 2 and x = 9, its P_check box at
    # [2 + TOUCH_EPS, 9 - TOUCH_EPS] x [TOUCH_EPS, h2 - TOUCH_EPS], and
    # h2 = h_init + g = 6 without side crossings.
    XS = np.arange(12) * 1.0
    G, H_INIT, H_MIN = 1.0, 5.0, 1.0

    def hand(self, polys, h_init=H_INIT, h_min=H_MIN, w_min=2, w_max=11):
        ref, vec = both_envs(polys)
        check_pair_heights(vec, ref, self.XS, self.G, h_init, h_min, w_min, w_max)
        return vec.pair_heights(self.XS, self.G, h_init, h_min, w_min, w_max)

    @pytest.mark.parametrize("source", corpus_families() + ["table2"])
    def test_corpus_dp_inputs_match_oracle(self, source):
        # Fast routes (seeds 0-4), region-assigned default routes (seed
        # 0) and the Table II via field's ~600-vertex environments.
        if source == "table2":
            inputs = spread(table2_dp_inputs(), 12)
        else:
            inputs = spread(
                [dp for seed in SEEDS for dp in corpus_dp_inputs(source, seed)], 3
            ) + spread(region_dp_inputs(source, 0), 2)
        assert inputs
        for cfg, envs in inputs:
            check_dp_input(cfg, envs)

    def test_busy_pairs_occur_on_real_boards(self):
        # bga_escape's pads sit inside many URAs: the scalar path is live.
        inputs = spread(corpus_dp_inputs("bga_escape", 0), 4)
        assert sum(check_dp_input(cfg, envs) for cfg, envs in inputs) > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_soups_match_oracle(self, seed):
        rng = random.Random(seed + 5000)
        ref, vec = both_envs(random_polygons(seed))
        xs = np.arange(40) * rng.uniform(1.0, 3.0) - 50.0
        g = rng.uniform(0.5, 3.0)
        h_init, h_min = rng.uniform(1.0, 40.0), rng.uniform(0.1, 3.0)
        w_min = rng.randrange(1, 4)
        w_max = rng.choice([39, rng.randrange(w_min, 20)])
        check_pair_heights(vec, ref, xs, g, h_init, h_min, w_min, w_max)

    @pytest.mark.parametrize(
        "x, in_box",
        [
            ((3.0 - 1.0) + TOUCH_EPS, True),
            ((3.0 - 1.0) + TOUCH_EPS / 2, False),
            ((3.0 - 1.0) - TOUCH_EPS, False),
            ((8.0 + 1.0) - TOUCH_EPS, True),
            ((8.0 + 1.0) - TOUCH_EPS / 2, False),
            ((8.0 + 1.0) + TOUCH_EPS, False),
        ],
    )
    def test_node_at_the_box_sides(self, x, in_box):
        table = self.hand([point(x, 3.0)])
        assert math.isnan(table[3, 8]) == in_box
        if not in_box:
            assert table[3, 8] == self.H_INIT

    @pytest.mark.parametrize(
        "y, in_box",
        [
            (TOUCH_EPS, True),
            (TOUCH_EPS / 2, False),
            (0.0, False),
            (-2.0, False),
            (6.0 - TOUCH_EPS, True),
            (6.0 - TOUCH_EPS / 2, False),
            (6.0, False),
        ],
    )
    def test_node_at_the_box_bottom_and_top(self, y, in_box):
        table = self.hand([point(5.0, y)])
        assert math.isnan(table[3, 8]) == in_box

    def test_node_at_a_side_lowered_top(self):
        # An edge from (7, 8) to (11, 0) crosses x = 9 at y = 4 with both
        # ends outside every box: h2 = 4 for the pair (3, 8).
        wedge = Polygon([Point(7.0, 8.0), Point(11.0, 0.0), Point(11.0, 8.0)])
        for y, in_box in ((4.0 - TOUCH_EPS, True), (4.0 - TOUCH_EPS / 2, False)):
            table = self.hand([wedge, point(5.0, y)])
            assert math.isnan(table[3, 8]) == in_box
            if not in_box:
                assert table[3, 8] == 4.0 - self.G

    def test_side_crossing_puts_h2_on_h_min(self):
        # Crossings of x = 9 at y = 2 exactly (h2 - g == h_min: kept) and
        # just under it (zero).  A node in the box does not turn a pair
        # the side step zeroes into a NaN.
        exact = Polygon([Point(7.0, 4.0), Point(11.0, 0.0), Point(11.0, 4.0)])
        table = self.hand([exact, point(5.0, 0.5)])
        assert math.isnan(table[3, 8])
        table = self.hand([exact])
        assert table[3, 8] == self.H_MIN
        low = Polygon([Point(7.0, 4.0 - 1e-6), Point(11.0, 0.0), Point(11.0, 4.0)])
        for polys in ([low], [low, point(5.0, 0.5)]):
            table = self.hand(polys)
            assert table[3, 8] == 0.0

    def test_h_init_below_h_min(self):
        table = self.hand([point(5.0, 3.0)], h_init=0.5, h_min=1.0)
        assert table[3, 8] == 0.0
        assert not np.isnan(table[np.triu_indices(12, 2)]).any()

    def test_empty_environment(self):
        table = self.hand([])
        band = table[np.triu_indices(12, 2)]
        assert (band == self.H_INIT).all()

    @pytest.mark.parametrize("block", [1, 7, 30])
    def test_band_cut_by_max_width_steps(self, block, monkeypatch):
        # With narrow blocks each block's left feet start at lo - w_max.
        # The wedge's crossings vary the heights; its nodes lie outside
        # every box's ordinates, so no node test applies.
        polys = [Polygon([Point(4.0, 9.0), Point(11.0, 0.0), Point(11.0, 9.0)])]
        whole = self.hand(polys, w_max=4)
        monkeypatch.setattr(shrink_mod, "PAIR_BLOCK", block)
        table = self.hand(polys, w_max=4)
        band = [(il, ir) for ir in range(12) for il in range(ir - 4, ir - 1) if il >= 0]
        assert len({float(whole[il, ir]) for il, ir in band}) > 2
        for il, ir in band:
            assert repr(table[il, ir]) == repr(whole[il, ir])

    def test_too_many_node_entries_leave_kept_pairs_to_the_fixpoint(
        self, monkeypatch
    ):
        # Three nodes x 12 feet exceed a PAIR_BLOCK of 35: the box test
        # is skipped, so every pair the side step keeps is NaN and every
        # pair it zeroes is 0.
        low = Polygon([Point(7.0, 4.0 - 1e-6), Point(11.0, 0.0), Point(11.0, 4.0)])
        polys = [low, point(5.0, 3.0)]
        monkeypatch.setattr(shrink_mod, "PAIR_BLOCK", 35)
        ref, vec = both_envs(polys)
        table = vec.pair_heights(self.XS, self.G, self.H_INIT, self.H_MIN, 2, 11)
        zeros = 0
        for il, ir in zip(*np.triu_indices(12, 2)):
            h_ob = side_step(ref, float(il), float(ir), self.G, self.H_INIT)
            kept = h_ob - self.G >= self.H_MIN
            assert math.isnan(table[il, ir]) == kept
            if not kept:
                zeros += 1
                assert table[il, ir] == 0.0 == ref.max_pattern_height(
                    float(il), float(ir), self.G, self.H_INIT, self.H_MIN
                )
        assert zeros
