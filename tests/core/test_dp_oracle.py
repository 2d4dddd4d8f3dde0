"""The on-demand segment DP against the table-driven oracle, bit for bit.

Production's :class:`repro.core.dp.SegmentDP` reads each exact height
from per-foot side values with an O(1) box test and chooses each left
foot's predecessor once; :class:`oracles.dp.SegmentDP` fills a height
table per direction and re-chooses the predecessor per (right foot,
width).  On every captured DP input, on generated environments and on
hand-made boundary cases both must return the same ``repr`` of the
:class:`~repro.core.dp.DPResult` after the same number of exact heights
(``shrinks``), and production may run the scalar fixpoint no more often
(``scalar_shrinks``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles.digests import SEEDS, corpus_families
from oracles.dp import PAIR_BLOCK
from oracles.dp import SegmentDP as OracleSegmentDP
from oracles.dp_inputs import (
    corpus_dp_inputs,
    fresh_envs,
    region_dp_inputs,
    table2_dp_inputs,
)
from repro.core import DPConfig, SegmentDP, ShrinkEnvironment
from repro.core.shrink import TOUCH_EPS
from repro.geometry import Point, Polygon


def compare(cfg, make_envs):
    """Run both DPs on fresh environments; returns (oracle, production)."""
    old = OracleSegmentDP(cfg, make_envs())
    new = SegmentDP(cfg, make_envs())
    assert new.feasible() == old.feasible()
    assert repr(new.run()) == repr(old.run())
    assert new.shrinks == old.shrinks
    assert new.scalar_shrinks <= old.scalar_shrinks
    return old, new


def compare_inputs(inputs):
    """Every captured input, with the extender's mirrored environment
    pair and with two independently built sides."""
    assert inputs
    for cfg, envs in inputs:
        for mirrored in (True, False):
            compare(cfg, lambda: fresh_envs(envs, mirrored))


@pytest.mark.parametrize("family", corpus_families())
def test_corpus_inputs(family):
    compare_inputs([dp for seed in SEEDS for dp in corpus_dp_inputs(family, seed)])


@pytest.mark.parametrize("family", corpus_families())
def test_region_inputs(family):
    compare_inputs(region_dp_inputs(family, 0))


@pytest.mark.parametrize("dgap", [2.5, 4.0])
def test_table2_inputs(dgap):
    compare_inputs(table2_dp_inputs(dgap))


def mirrored_envs(polys):
    """The extender's environment pair over local-frame polygons."""
    env = ShrinkEnvironment.from_polygons(polys)
    return {1: env, -1: env.mirrored()}


def config(n=12, step=1.0, g=1.0, h_init=5.0, h_min=1.0, **kwargs):
    base = dict(k_gap=3, k_protect=1, w_min=2)
    base.update(kwargs)
    return DPConfig(step=step, n=n, h_min=h_min, h_init=h_init, g=g, **base)


def point(x, y):
    """A node at (x, y) with no edge to cross a side line."""
    return Polygon([Point(x, y)] * 3)


#: Nodes on the closed box of the feet (3, 8) with ``g = 1`` and
#: ``h2 = h_init + g = 6``: its sides ``(3 - 1) + TOUCH_EPS`` and
#: ``(8 + 1) - TOUCH_EPS``, bottom ``TOUCH_EPS`` and top ``6 - TOUCH_EPS``
#: (and each just outside).
BOUNDARY_NODES = [
    ((3.0 - 1.0) + TOUCH_EPS, 3.0),
    ((3.0 - 1.0) + TOUCH_EPS / 2, 3.0),
    ((8.0 + 1.0) - TOUCH_EPS, 3.0),
    ((8.0 + 1.0) - TOUCH_EPS / 2, 3.0),
    (5.0, TOUCH_EPS),
    (5.0, TOUCH_EPS / 2),
    (5.0, 6.0 - TOUCH_EPS),
    (5.0, 6.0 - TOUCH_EPS / 2),
]


@pytest.mark.parametrize("node", BOUNDARY_NODES)
def test_node_on_the_box_boundary(node):
    # The node sits on the boundary of many pairs' boxes at once (every
    # foot pair shares the grid), so both sides of each comparison run.
    polys = [point(*node)]
    for direction_polys in (polys, [point(node[0], -node[1])]):
        compare(config(), lambda: mirrored_envs(direction_polys))


def test_node_entries_above_the_old_pair_block():
    # m * n above the oracle's PAIR_BLOCK: the oracle leaves every pair
    # the side step keeps to the fixpoint, production still box-tests,
    # so the pairs left of the cluster of slivers need no fixpoint.
    n = 260
    slivers = [
        Polygon(
            [Point(100 + k / 10, 2.0), Point(100.05 + k / 10, 2.0), Point(100 + k / 10, 6.0)]
        )
        for k in range(100)
    ]
    assert 3 * len(slivers) * n > PAIR_BLOCK
    cfg = config(n=n, step=0.5, g=1.0, h_init=8.0, h_min=1.0, k_gap=6)
    old, new = compare(cfg, lambda: mirrored_envs(slivers))
    assert 0 < new.scalar_shrinks < old.scalar_shrinks


def test_busy_pairs_run_the_fixpoint():
    # A node under the top of every wide enough pair: both DPs shrink
    # those pairs through the scalar fixpoint, and the same count of them.
    old, new = compare(config(n=20), lambda: mirrored_envs([point(9.5, 2.5)]))
    assert new.scalar_shrinks == old.scalar_shrinks > 0


# -- generated environments ---------------------------------------------------------

#: Coordinates near the grid (feet every half unit, g a multiple of a
#: quarter), nudged by multiples of TOUCH_EPS so nodes land on and just
#: off the box sides, bottoms and tops.
coord = st.builds(
    lambda k, nudge: k * 0.25 + nudge * TOUCH_EPS,
    st.integers(-16, 80),
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5]),
)
polygon = st.lists(
    st.tuples(coord, coord.map(lambda y: y - 4.0)), min_size=1, max_size=5
).map(lambda pts: Polygon([Point(x, y) for x, y in (pts * 3)[: max(3, len(pts))]]))


@settings(max_examples=150, deadline=None)
@given(
    polys=st.lists(polygon, max_size=8),
    n=st.integers(3, 36),
    step=st.sampled_from([0.5, 1.0, 1.5]),
    g=st.sampled_from([0.5, 1.0, 1.25, 2.0]),
    h_init=st.sampled_from([1.0, 2.5, 4.0, 8.0]),
    h_min=st.sampled_from([0.5, 1.0, 2.0]),
    w_min=st.integers(1, 4),
    k_gap=st.integers(1, 6),
    k_protect=st.integers(1, 4),
    allow_node_feet=st.booleans(),
    allow_plocal=st.booleans(),
    mirrored=st.booleans(),
)
def test_generated_environments(
    polys, n, step, g, h_init, h_min, w_min, k_gap, k_protect,
    allow_node_feet, allow_plocal, mirrored,
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
        allow_plocal=allow_plocal,
    )
    flipped = [Polygon([Point(p.x, -p.y) for p in poly.points]) for poly in polys]

    def envs():
        if mirrored:
            return mirrored_envs(polys)
        return {
            1: ShrinkEnvironment.from_polygons(polys),
            -1: ShrinkEnvironment.from_polygons(flipped[::-1]),
        }

    compare(cfg, envs)
