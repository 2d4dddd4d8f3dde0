"""Unit tests for the segment DP (Eqs. 5-8, transit restoration).

Hand-computable instances: free space (gains are exact multiples of the
capped height), a single blocking obstacle, node feet, the p_local
connection, and the priority tie-breaks.
"""

import math

import pytest

from oracles.digests import corpus_families
from oracles.dp_inputs import (
    corpus_dp_inputs,
    fresh_envs,
    region_dp_inputs,
    spread,
    table2_dp_inputs,
)
import repro.core.dp as dp_module
from repro.core import DPConfig, SegmentDP, ShrinkEnvironment
from repro.core.shrink import TOUCH_EPS
from repro.geometry import Point, Polygon, rectangle


def make_dp(
    n=21,
    step=1.0,
    k_gap=4,
    k_protect=2,
    w_min=2,
    h_min=2.0,
    h_init=5.0,
    g=2.0,
    polys=(),
    allow_node_feet=True,
):
    cfg = DPConfig(
        step=step,
        n=n,
        k_gap=k_gap,
        k_protect=k_protect,
        w_min=w_min,
        h_min=h_min,
        h_init=h_init,
        g=g,
        allow_node_feet=allow_node_feet,
    )
    envs = {
        1: ShrinkEnvironment.from_polygons(list(polys)),
        -1: ShrinkEnvironment.from_polygons(
            [Polygon([p for p in poly.points]) for poly in polys]
        ),
    }
    return SegmentDP(cfg, envs)


class TestFreeSpace:
    def test_positive_gain(self):
        result = make_dp().run()
        assert result.gain > 0

    def test_gain_counts_patterns(self):
        result = make_dp().run()
        assert math.isclose(
            result.gain, sum(p.gain() for p in result.patterns), rel_tol=1e-12
        )

    def test_heights_capped_at_h_init(self):
        result = make_dp(h_init=3.5).run()
        assert all(p.height <= 3.5 + 1e-12 for p in result.patterns)

    def test_max_packing_in_free_space(self):
        # 20 steps; min pattern (w=2) + gap (4) = 6 per extra pattern.
        # With node feet at both ends the packing fits 4 patterns.
        result = make_dp().run()
        assert len(result.patterns) >= 3
        assert result.gain >= 3 * 2 * 5.0 - 1e-9

    def test_patterns_sorted_and_disjoint(self):
        result = make_dp().run()
        for a, b in zip(result.patterns, result.patterns[1:]):
            assert a.x_right <= b.x_left + 1e-12

    def test_same_side_spacing_respected(self):
        result = make_dp().run()
        for a, b in zip(result.patterns, result.patterns[1:]):
            if a.direction == b.direction:
                assert b.x_left - a.x_right >= 4.0 - 1e-9  # k_gap * step

    def test_opposite_side_spacing_respected(self):
        result = make_dp().run()
        for a, b in zip(result.patterns, result.patterns[1:]):
            if a.direction != b.direction:
                gap = b.x_left - a.x_right
                assert gap <= 1e-9 or gap >= 2.0 - 1e-9  # plocal or k_protect

    def test_width_floor(self):
        result = make_dp().run()
        assert all(p.width() >= 2.0 - 1e-9 for p in result.patterns)


class TestNodeFeet:
    def test_node_feet_allowed_by_default(self):
        # A segment too short for interior stubs still fits one pattern
        # spanning node to node.
        result = make_dp(n=5, w_min=2, k_protect=2).run()
        assert result.gain > 0

    def test_node_feet_disabled(self):
        # Without node feet, a 4-step segment cannot host a pattern whose
        # stubs respect d_protect (2 + 2 + 2 > 4).
        result = make_dp(n=5, w_min=2, k_protect=2, allow_node_feet=False).run()
        assert result.gain == 0.0

    def test_disabled_keeps_interior_patterns(self):
        result = make_dp(n=21, allow_node_feet=False).run()
        assert result.gain > 0
        for p in result.patterns:
            assert p.left_index >= 2 and p.right_index <= 18


class TestObstacles:
    def test_blocking_wall_halves_gain(self):
        # Wall above the middle of the segment on both sides.
        wall = rectangle(8.0, 0.5, 13.0, 100.0)
        free = make_dp().run()
        blocked = make_dp(polys=[wall]).run()
        assert 0 < blocked.gain < free.gain

    def test_full_ceiling_stops_everything(self):
        ceiling = rectangle(-10.0, 0.5, 40.0, 100.0)
        assert make_dp(polys=[ceiling]).run().gain == 0.0

    def test_low_ceiling_reduces_heights(self):
        ceiling = rectangle(-10.0, 5.5, 40.0, 100.0)
        result = make_dp(polys=[ceiling]).run()
        assert result.gain > 0
        assert all(p.height <= 3.5 + 1e-9 for p in result.patterns)

    def test_enclosable_obstacle_spanned(self):
        # A box in the middle of a short segment blocks every foot column
        # except the outermost ones, so the only legal pattern *encloses*
        # the box — the paper's obstacle-aware signature move.
        box = rectangle(3.0, 1.0, 5.0, 2.0)
        result = make_dp(n=9, polys=[box], h_init=8.0, h_min=2.0).run()
        assert result.gain > 0
        assert all(
            p.x_left <= 1.0 + 1e-9 and p.x_right >= 7.0 - 1e-9
            for p in result.patterns
        )
        assert any(p.height > 2.0 for p in result.patterns)

    def test_packing_beats_single_enclosure_when_space_allows(self):
        # With a long segment the DP prefers many narrow patterns around
        # the box over one wide enclosing pattern — packing dominates.
        box = rectangle(9.0, 1.0, 11.0, 2.0)
        result = make_dp(polys=[box], h_init=8.0, h_min=4.0).run()
        assert result.gain >= 5 * 16.0 - 1e-6
        for p in result.patterns:
            # No foot lands in the blocked columns around the box.
            for foot in (p.x_left, p.x_right):
                assert not (7.0 < foot < 13.0)


class TestRestoration:
    def test_transit_restores_consistent_heights(self):
        dp = make_dp()
        result = dp.run()
        for p in result.patterns:
            assert math.isclose(
                p.height, dp.height(p.left_index, p.right_index, p.direction)
            )

    def test_no_gain_no_patterns(self):
        ceiling = rectangle(-10.0, 0.2, 40.0, 100.0)
        result = make_dp(polys=[ceiling]).run()
        assert result.patterns == []


class TestUpperBoundPrefilter:
    def test_prefilter_matches_exact_when_unobstructed(self):
        dp = make_dp()
        assert dp.height_upper_bound(5, 9, 1) >= dp.height(5, 9, 1)

    def test_prefilter_admissible_with_obstacles(self):
        box = rectangle(4.0, 3.0, 6.0, 5.0)
        dp = make_dp(polys=[box])
        for il, ir in ((3, 7), (4, 8), (2, 10)):
            assert dp.height_upper_bound(il, ir, 1) >= dp.height(il, ir, 1) - 1e-9


#: Where real DP inputs come from: one routed board per corpus family,
#: and the Table II via field (large environments, mostly infeasible).
SOURCES = corpus_families() + ["table2"]


def real_dps(source, count=6):
    """Fresh DPs over ``count`` real segments of ``source``."""
    inputs = table2_dp_inputs() if source == "table2" else corpus_dp_inputs(source)
    return [SegmentDP(cfg, fresh_envs(envs)) for cfg, envs in spread(inputs, count)]


HAND_DPS = (
    {},
    {"polys": [rectangle(8.0, 0.5, 13.0, 100.0)]},
    {"polys": [rectangle(4.0, 3.0, 6.0, 5.0)]},
    {"polys": [rectangle(3.0, 1.0, 5.0, 2.0)], "n": 9, "h_init": 8.0},
    {"polys": [rectangle(-10.0, 5.5, 40.0, 100.0)]},
)


class TestFootBounds:
    """The per-foot bounds: side crossings folded into the column bound."""

    @pytest.mark.parametrize("source", SOURCES)
    def test_admissible_for_every_foot_pair(self, source):
        # A zero height means no pattern (the DP never takes it), so only
        # positive heights must sit under the bound.  The side-crossing
        # part bounds them exactly: the shrink caps h_ob at S on both
        # outer side lines.  The column part keeps the shrink's
        # TOUCH_EPS slack (a node less than TOUCH_EPS below h_ob does
        # not shrink it).
        dps = real_dps(source)
        assert dps
        for dp in dps:
            cfg = dp.config
            for d in (1, -1):
                env = dp.envs[d]
                for il in range(cfg.n):
                    side_l = env.side_bound(il * cfg.step - cfg.g, math.inf)
                    for ir in range(il + 1, cfg.n):
                        h = dp.height(il, ir, d)
                        if h == 0.0:
                            continue
                        side_r = env.side_bound(ir * cfg.step + cfg.g, math.inf)
                        assert h <= min(side_l - cfg.g, side_r - cfg.g)
                        assert h <= dp.height_upper_bound(il, ir, d) + TOUCH_EPS

    @pytest.mark.parametrize("source", SOURCES)
    def test_unpruned_run_gives_the_same_result(self, source, monkeypatch):
        pruned = [repr(dp.run()) for dp in real_dps(source)]
        monkeypatch.setattr(
            SegmentDP, "height_upper_bound", lambda self, il, ir, d: math.inf
        )
        without_prunes(monkeypatch)
        assert [repr(dp.run()) for dp in real_dps(source)] == pruned

    @pytest.mark.parametrize("kwargs", HAND_DPS)
    def test_unpruned_hand_cases_same_result(self, kwargs, monkeypatch):
        pruned = make_dp(**kwargs)
        result = repr(pruned.run())
        monkeypatch.setattr(
            SegmentDP, "height_upper_bound", lambda self, il, ir, d: math.inf
        )
        without_prunes(monkeypatch)
        unpruned = make_dp(**kwargs)
        assert repr(unpruned.run()) == result
        assert pruned.shrinks <= unpruned.shrinks

    def test_infeasible_segments_gain_nothing(self):
        dps = real_dps("table2", count=200)
        infeasible = [dp for dp in dps if not dp.feasible()]
        assert 0 < len(infeasible) < len(dps)
        for dp in infeasible:
            assert dp.run().gain == 0.0

    def test_side_crossing_tightens_the_bound(self):
        # An edge crossing the left foot's outer side line (x = 0) at
        # y = 4, with no node in either foot's arm column: the column
        # bound alone is h_init, the side crossing caps the foot at 4 - g.
        wedge = Polygon([Point(-4.0, 4.0), Point(4.5, 4.0), Point(-4.0, 8.0)])
        dp = make_dp(polys=[wedge], h_init=8.0)
        assert dp.height_upper_bound(2, 8, 1) == 4.0 - 2.0
        assert dp.height(2, 8, 1) <= 4.0 - 2.0

    def test_node_at_the_column_window_end(self, monkeypatch):
        # A triangle enclosed by the (5, 15) pattern, with one node exactly
        # at the inner end of foot 5's arm column: an enclosed polygon does
        # not shrink h_ob, so that node must not bound the column.
        x_end = (5.0 + 2.0) - TOUCH_EPS
        tri = Polygon([Point(x_end, 1.0), Point(9.0, 1.0), Point(8.0, 2.0)])
        dp = make_dp(polys=[tri])
        assert dp.height(5, 15, 1) == 5.0
        assert dp.height(5, 15, 1) <= dp.height_upper_bound(5, 15, 1) + TOUCH_EPS
        result = repr(make_dp(polys=[tri]).run())
        without_prunes(monkeypatch)
        assert repr(make_dp(polys=[tri]).run()) == result

    def test_run_never_misses_the_side_memo(self, monkeypatch):
        # Construction prefills S(x) at every foot's side line with the
        # abscissas max_pattern_height builds, so the DP itself never
        # evaluates the side-crossing kernel.
        dps = [make_dp(polys=[rectangle(8.0, 0.5, 13.0, 100.0)])]
        dps += real_dps("tiled") + real_dps("obstacle_maze") + real_dps("table2")

        def no_kernel(self, xs):
            raise AssertionError("side memo miss")

        monkeypatch.setattr(ShrinkEnvironment, "side_minima", no_kernel)
        assert dps[0].run().gain > 0
        for dp in dps[1:]:
            dp.run()


def spikes(apex_y):
    """Thin downward spikes with apexes at ``apex_y`` every half step:
    a node in every foot's arm column, and no edge crossing a side line
    (the apexes sit between the integer side lines, the bases at 100)."""
    return [
        Polygon(
            [Point(k + 0.25, 100.0), Point(k + 0.75, 100.0), Point(k + 0.5, apex_y)]
        )
        for k in range(-4, 25)
    ]


def without_prunes(monkeypatch):
    """No foot skipped below h_min, no pair skipped by the value prune."""
    monkeypatch.setattr(dp_module, "BOUND_SLACK", math.inf)


class TestHminPrune:
    """Feet whose bound lies below h_min skip the exact shrink.  (Pruned
    against unpruned on real and hand-made segments: ``TestFootBounds``.)"""

    def test_bound_just_under_h_min_keeps_the_shrink(self, monkeypatch):
        # Apexes TOUCH_EPS / 2 under the outer border's top (h_init + g)
        # are not nodes inside the border, so every shrink returns the
        # full h_init = h_min, while the column bound reads h_min - 5e-8.
        kwargs = {"h_min": 2.0, "h_init": 2.0, "polys": spikes(4.0 - 0.5 * TOUCH_EPS)}
        dp = make_dp(**kwargs)
        bounds = dp._left_ub[1] + dp._right_ub[1]
        assert all(2.0 - TOUCH_EPS < ub < 2.0 for ub in bounds)
        # The extender asks feasible() before run(): both must keep them.
        assert dp.feasible()
        result = dp.run()
        free = make_dp(h_min=2.0, h_init=2.0).run()
        assert result.gain == free.gain > 0
        assert repr(result.patterns) == repr(free.patterns)
        # A floor at h_min itself would drop every one of those patterns.
        monkeypatch.setattr(dp_module, "BOUND_SLACK", 0.0)
        assert not make_dp(**kwargs).feasible()
        assert make_dp(**kwargs).run().gain == 0.0

    def test_bound_under_the_floor_skips_every_shrink(self, monkeypatch):
        kwargs = {"h_min": 2.0, "h_init": 2.0, "polys": spikes(4.0 - 3 * TOUCH_EPS)}
        dp = make_dp(**kwargs)
        assert not dp.feasible()
        assert dp.run().gain == 0.0
        assert dp.shrinks == 0
        without_prunes(monkeypatch)
        unpruned = make_dp(**kwargs)
        assert unpruned.run().gain == 0.0
        assert unpruned.shrinks > 0

    def test_shrinks_fall_on_a_region_routed_board(self, monkeypatch):
        # mixed_groups seed 0 with its areas cleared: the benchmark's
        # Fig. 2 flow.  Same results, far fewer exact shrinks.
        inputs = region_dp_inputs("mixed_groups", 0)

        def run_all():
            dps = [SegmentDP(cfg, fresh_envs(envs)) for cfg, envs in inputs]
            return [repr(dp.run()) for dp in dps], sum(dp.shrinks for dp in dps)

        pruned, pruned_shrinks = run_all()
        without_prunes(monkeypatch)
        unpruned, unpruned_shrinks = run_all()
        assert pruned == unpruned
        assert 0 < 2 * pruned_shrinks < unpruned_shrinks
