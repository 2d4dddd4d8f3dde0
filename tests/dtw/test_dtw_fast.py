"""Equivalence tests: :func:`dtw_match` vs. the dense oracle recurrence.

The rolling-row sweep and its certified corridor must be *bit-identical*
to :func:`oracles.dtw.dtw_match_reference` — same matched pairs, same
costs, same tie resolution — over randomized node sequences:
near-parallel jittered pair sub-traces (the MSDTW workload, where the
corridor pays off) and unstructured point clouds (where the corridor
must detect it cannot help and fall back).
"""

import importlib
import math
import random

import pytest

from oracles.dtw import dtw_match_reference
from repro.bench.perf import dtw_workload
from repro.dtw import dtw_match
from repro.dtw.msdtw import msdtw
from repro.geometry import Point

# The module, not the same-named function ``repro.dtw`` re-exports.
msdtw_mod = importlib.import_module("repro.dtw.msdtw")

RULE = 1.6


def parallel_workload(n, rule, seed):
    """The bench's jittered near-parallel workload, denser extras."""
    return dtw_workload(n, rule, seed, extra_every=7)


def cloud(n, seed, span=50.0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)]


class TestRollingEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("n", [1, 2, 5, 23, 80])
    def test_parallel_workloads_bit_identical(self, seed, n):
        p, q = parallel_workload(n, RULE, seed)
        assert dtw_match(p, q) == dtw_match_reference(p, q)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_clouds_bit_identical(self, seed):
        p = cloud(31, seed)
        q = cloud(44, seed + 1000)
        assert dtw_match(p, q) == dtw_match_reference(p, q)

    def test_empty_inputs(self):
        assert dtw_match([], [Point(0, 0)]) == ([], 0.0)
        assert dtw_match([Point(0, 0)], []) == ([], 0.0)

    def test_asymmetric_lengths(self):
        p, _ = parallel_workload(40, RULE, 3)
        q = [Point(pt.x, pt.y - RULE) for pt in p[:7]]
        assert dtw_match(p, q) == dtw_match_reference(p, q)


class TestBandedEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("n", [60, 90, 150])
    def test_band_bit_identical_on_pair_workloads(self, seed, n):
        p, q = parallel_workload(n, RULE, seed)
        assert dtw_match(p, q) == dtw_match_reference(p, q)

    @pytest.mark.parametrize("seed", range(10))
    def test_band_bit_identical_on_clouds(self, seed):
        # Unstructured clouds: the corridor covers most of the matrix, so
        # the band must fall through to the full sweep — still identical.
        p = cloud(60, seed)
        q = cloud(70, seed + 500)
        assert dtw_match(p, q) == dtw_match_reference(p, q)

    @pytest.mark.parametrize("band", [1e-9, 0.1, RULE, 10.0, 1e6])
    def test_any_band_radius_is_safe(self, band, monkeypatch):
        # MSDTW's distance rule is the value that used to be forwarded
        # as a band radius.  Whatever the rule, every round's matching
        # must be the oracle's: the corridor never depends on it.
        p, q = parallel_workload(70, RULE, 42)
        fast = msdtw(p, q, [band])
        monkeypatch.setattr(msdtw_mod, "dtw_match", dtw_match_reference)
        assert msdtw(p, q, [band]) == fast

    def test_wiggly_detour_workload(self):
        # One sequence takes a large meander excursion the other skips —
        # the corridor must widen (or bail) without changing the result.
        p, q = parallel_workload(80, RULE, 9)
        detour = [Point(p[40].x, p[40].y + k) for k in (4.0, 8.0, 8.0, 4.0)]
        p = p[:40] + detour + p[40:]
        assert dtw_match(p, q) == dtw_match_reference(p, q)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("n", [46, 90, 140])
    def test_sparse_large_detours_band_binding_regime(self, seed, n):
        # The regime where a naive fixed-width band breaks: mostly
        # parallel sequences, but ~15% of q-nodes jump 5-40x the rule to
        # one side, so the optimal warp path shifts alignment around the
        # detours.  The certified corridor must either contain that path
        # or fall back — the result must stay bit-identical regardless.
        rng = random.Random(seed * 7 + n)
        p, q = [], []
        x = 0.0
        for k in range(n):
            x += 1.0 + rng.random() * 0.5
            y = math.sin(k * 0.3) * 2.0 + rng.random() * 0.3
            p.append(Point(x, y))
            qy = y - RULE + (rng.random() - 0.5) * 0.4
            if rng.random() < 0.15:
                qy += rng.choice((1.0, -1.0)) * RULE * rng.uniform(5.0, 40.0)
            q.append(Point(x + (rng.random() - 0.5) * 0.4, qy))
        assert dtw_match(p, q) == dtw_match_reference(p, q)


class TestMsdtwBanded:
    @pytest.mark.parametrize("seed", range(10))
    def test_msdtw_banded_matches_unbanded(self, seed, monkeypatch):
        # Production MSDTW (corridor sweeps) vs. MSDTW on the dense oracle.
        p, q = parallel_workload(90, RULE, seed)
        banded = msdtw(p, q, [RULE, 2.8])
        monkeypatch.setattr(msdtw_mod, "dtw_match", dtw_match_reference)
        plain = msdtw(p, q, [RULE, 2.8])
        assert banded.pairs == plain.pairs
        assert banded.rounds == plain.rounds
        assert banded.unpaired_p == plain.unpaired_p
        assert banded.unpaired_n == plain.unpaired_n
