"""Brute-force cross-checks for the DRC's sort-and-sweep candidate sets.

:func:`repro.drc.checker._clearance_candidates` promises each clearance
check a *superset*: every segment pair (other trace, or same trace and
not adjacent) and every (obstacle, segment) pair whose true distance is
within that check's clearance must be reported.  It reports exactly the
pairs whose closed bounding boxes come within that clearance on both
axes, so both properties are checked against O(N^2) oracles, together
with the shape of the result: ascending lists, no duplicates, no
adjacent self pairs.
"""

import math
import random

import pytest

from repro.drc.checker import _clearance_candidates
from repro.geometry import Point, Polyline, rectangle
from repro.model import DesignRules, Obstacle, Trace, via

#: With width 1.0 every check reaches exactly 2.0: d_gap + w, max(d_protect,
#: w) and d_obs + w/2.
EXACT = DesignRules(dgap=1.0, dobs=1.5, dprotect=2.0)


def reaches(traces, rules):
    """Each check's clearance, as ``check_board`` asks for it."""
    floor = {t.name: max(rules[t.name].dprotect, t.width) for t in traces}

    def cross(a, b):
        return max(rules[a.name].dgap, rules[b.name].dgap) + a.width / 2.0 + b.width / 2.0

    def obstacle(t):
        return rules[t.name].dobs + t.width / 2.0

    return floor, cross, obstacle


def sweep(traces, obstacles, rules):
    """The sweep's candidates as ``(seg_pairs, obstacle_pairs)`` sets of
    ``(ti, si, tj, sj)`` and ``(ti, k, si)``; asserts the result's shape."""
    floor, _, _ = reaches(traces, rules)
    seg_cands, obstacle_cands = _clearance_candidates(traces, obstacles, rules, floor)
    seg_pairs, obstacle_pairs = set(), set()
    for (ti, tj), pairs in seg_cands.items():
        assert ti <= tj and pairs == sorted(pairs)
        for si, sj in pairs:
            assert ti < tj or sj >= si + 2
            seg_pairs.add((ti, si, tj, sj))
    for ti, pairs in obstacle_cands.items():
        assert pairs == sorted(pairs)
        obstacle_pairs.update((ti, k, si) for k, si in pairs)
    total = sum(map(len, seg_cands.values())) + sum(map(len, obstacle_cands.values()))
    assert total == len(seg_pairs) + len(obstacle_pairs)  # no duplicates
    return seg_pairs, obstacle_pairs


def boxes_near(a, b, reach):
    return (
        b[0] <= a[2] + reach
        and a[0] <= b[2] + reach
        and b[1] <= a[3] + reach
        and a[1] <= b[3] + reach
    )


def brute_force(traces, obstacles, rules):
    """Every pair within its check's clearance, by box and by distance."""
    floor, cross, obstacle_reach = reaches(traces, rules)
    segs = [t.segments() for t in traces]
    box_seg, dist_seg, box_obs, dist_obs = set(), set(), set(), set()
    for ti, a in enumerate(traces):
        for tj in range(ti, len(traces)):
            reach = floor[a.name] if ti == tj else cross(a, traces[tj])
            for si, sa in enumerate(segs[ti]):
                for sj, sb in enumerate(segs[tj]):
                    if ti == tj and sj < si + 2:
                        continue
                    if boxes_near(sa.bounds(), sb.bounds(), reach):
                        box_seg.add((ti, si, tj, sj))
                    if sa.distance_to_segment(sb) <= reach:
                        dist_seg.add((ti, si, tj, sj))
        for k, o in enumerate(obstacles):
            reach = obstacle_reach(a)
            for si, seg in enumerate(segs[ti]):
                if boxes_near(seg.bounds(), o.bounds(), reach):
                    box_obs.add((ti, k, si))
                if o.polygon.distance_to_segment(seg) <= reach:
                    dist_obs.add((ti, k, si))
    return box_seg, dist_seg, box_obs, dist_obs


def assert_sweep_exact(traces, obstacles, rules=None):
    rules = rules or {t.name: EXACT for t in traces}
    seg_pairs, obstacle_pairs = sweep(traces, obstacles, rules)
    box_seg, dist_seg, box_obs, dist_obs = brute_force(traces, obstacles, rules)
    assert seg_pairs == box_seg
    assert obstacle_pairs == box_obs
    assert dist_seg <= seg_pairs
    assert dist_obs <= obstacle_pairs
    return seg_pairs, obstacle_pairs


def random_trace(rng, name, span=60.0, step=9.0):
    x, y = rng.uniform(-span, span), rng.uniform(-span, span)
    pts = [Point(x, y)]
    for _ in range(rng.randint(1, 8)):
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        pts.append(Point(x, y))
    return Trace(name, Polyline(pts), width=rng.uniform(0.3, 1.5))


def random_vias(rng, n, span=60.0):
    return [
        via(Point(rng.uniform(-span, span), rng.uniform(-span, span)), 0.5 + rng.random())
        for _ in range(n)
    ]


def line(name, *pts):
    return Trace(name, Polyline([Point(x, y) for x, y in pts]), width=1.0)


class TestRandom:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("scale", [0.5, 2.0, 7.5])
    def test_candidates_match_brute_force(self, seed, scale):
        rng = random.Random(seed)
        traces = [random_trace(rng, f"t{i}") for i in range(rng.randint(1, 10))]
        rules = {
            t.name: DesignRules(
                dgap=scale * rng.uniform(0.5, 1.5),
                dobs=scale * rng.uniform(0.3, 1.0),
                dprotect=scale * rng.uniform(0.2, 1.0),
            )
            for t in traces
        }
        assert_sweep_exact(traces, random_vias(rng, rng.randint(0, 12)), rules)

    @pytest.mark.parametrize("seed", range(4))
    def test_tall_and_wide_panels(self, seed):
        # The sweep axis follows the layout; both must give the same sets.
        rng = random.Random(50 + seed)
        tall = [random_trace(rng, f"t{i}", span=10.0) for i in range(6)]
        tall = [
            t.with_path(Polyline([p + Point(0.0, 40.0 * i) for p in t.path.points]))
            for i, t in enumerate(tall)
        ]
        wide = [
            t.with_path(Polyline([Point(p.y, p.x) for p in t.path.points]))
            for t in tall
        ]
        assert assert_sweep_exact(wide, []) == assert_sweep_exact(tall, [])


class TestBoundaries:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_boxes_exactly_the_clearance_apart_are_candidates(self, axis):
        def at(u, v):
            return (u, v) if axis == 0 else (v, u)

        a = line("a", at(0.0, 0.0), at(1.0, 0.0))
        touching = line("b", at(3.0, 0.0), at(4.0, 0.0))
        beyond = math.nextafter(3.0, math.inf)
        apart = line("c", at(beyond, 0.0), at(beyond + 1.0, 0.0))
        assert assert_sweep_exact([a, touching], []) == ({(0, 0, 1, 0)}, set())
        assert assert_sweep_exact([a, apart], []) == (set(), set())

    def test_self_pair_exactly_the_floor_apart_is_candidate(self):
        hairpin = line("u", (0.0, 0.0), (5.0, 0.0), (5.0, 2.0), (0.0, 2.0))
        wider = line("w", (0.0, 0.0), (5.0, 0.0), (5.0, math.nextafter(2.0, 3.0)), (0.0, 2.5))
        assert assert_sweep_exact([hairpin], []) == ({(0, 0, 0, 2)}, set())
        assert assert_sweep_exact([wider], []) == (set(), set())

    def test_obstacle_exactly_the_clearance_away_is_candidate(self):
        trace = line("t", (0.0, 0.0), (10.0, 0.0))
        at = Obstacle(rectangle(4.0, 2.0, 6.0, 3.0), name="at")
        off = Obstacle(rectangle(4.0, math.nextafter(2.0, 3.0), 6.0, 3.0), name="off")
        assert assert_sweep_exact([trace], [at, off]) == (set(), {(0, 0, 0)})

    def test_equal_low_edge_ties(self):
        # Many boxes share a low corner: the stable sort keeps index order
        # and no pair may be lost or reported twice.
        fan = [
            line(f"f{k}", (0.0, 0.0), (3.0 * math.cos(k), 3.0 * abs(math.sin(k))))
            for k in range(1, 7)
        ]
        stacked = [line(f"s{k}", (0.0, 1.0), (0.0, 1.0 + k), (4.0, 1.0 + k)) for k in range(4)]
        obstacles = [Obstacle(rectangle(0.0, 0.0, 1.0, 1.0), name=f"o{k}") for k in range(3)]
        seg_pairs, obstacle_pairs = assert_sweep_exact(fan + stacked, obstacles)
        assert len(seg_pairs) > 20 and len(obstacle_pairs) > 10

    def test_zero_length_segments(self):
        stutter = line("z", (0.0, 0.0), (0.0, 0.0), (5.0, 0.0), (5.0, 0.0), (5.0, 5.0))
        dot = line("d", (2.0, 1.0), (2.0, 1.0))
        seg_pairs, obstacle_pairs = assert_sweep_exact(
            [stutter, dot], [via(Point(5.0, 2.0), 0.5)]
        )
        assert (0, 1, 1, 0) in seg_pairs
        assert (0, 0, 3) in obstacle_pairs


class TestShapes:
    def test_traces_without_obstacles(self):
        rng = random.Random(3)
        traces = [random_trace(rng, f"t{i}", span=15.0) for i in range(5)]
        seg_pairs, obstacle_pairs = assert_sweep_exact(traces, [])
        assert seg_pairs and obstacle_pairs == set()

    def test_obstacles_with_one_trace(self):
        rng = random.Random(4)
        trace = line("t", (-50.0, 0.0), (0.0, 3.0), (50.0, 0.0))
        seg_pairs, obstacle_pairs = assert_sweep_exact([trace], random_vias(rng, 60))
        assert obstacle_pairs and seg_pairs == set()

    def test_obstacle_pairs_never_reported(self):
        # Overlapping obstacles are not a clearance check: only segment
        # pairs and (obstacle, segment) pairs come back.
        obstacles = [via(Point(0.0, 0.0), 1.0) for _ in range(5)]
        trace = line("t", (0.0, 0.0), (1.0, 0.0))
        assert assert_sweep_exact([trace], obstacles) == (set(), {(0, k, 0) for k in range(5)})
