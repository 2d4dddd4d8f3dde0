"""Corpus-driven engine equivalence: production vs. the seed loop, bit-exact.

The production extension engine's contract is *bit-identical routed
geometry* to the seed loop it replaced: for every registered scenario
family and seed, an end-to-end session routed with the production
:class:`~repro.core.extension.TraceExtender` must produce the same
status, the same achieved lengths (compared by ``repr`` — every bit of
the float) and the same path coordinates as the same session routed with
the test-only :class:`oracles.extension.ReferenceTraceExtender`
monkeypatched into the router.  The seed loop's pure-Python polygon
shrink environment must in turn agree with the numpy
:class:`repro.core.shrink.ShrinkEnvironment` it was vectorized into.
``tests/core/test_routing_digests.py`` pins the same production runs
against a frozen golden.
"""

import pytest

import oracles.extension as oracle_extension_mod
import repro.core.router as router_mod
from oracles.digests import (
    SEEDS,
    corpus_families,
    production_route_digest,
    route_digest,
)
from oracles.extension import ReferenceTraceExtender
from repro.core.shrink import ShrinkEnvironment as NumpyShrinkEnvironment


@pytest.mark.parametrize("family", corpus_families())
def test_incremental_matches_reference_across_seeds(family, monkeypatch):
    production = [production_route_digest(family, seed) for seed in SEEDS]
    monkeypatch.setattr(router_mod, "TraceExtender", ReferenceTraceExtender)
    for seed, expected in zip(SEEDS, production):
        assert route_digest(family, seed) == expected, (family, seed)


@pytest.mark.parametrize("family", corpus_families())
def test_pure_python_fallback_matches_numpy(family, monkeypatch):
    # Same seed loop on both sides; only the shrink kernel differs, so a
    # mismatch here isolates the numpy environment from the loop rewrite.
    monkeypatch.setattr(router_mod, "TraceExtender", ReferenceTraceExtender)
    pure_python = [route_digest(family, seed) for seed in SEEDS]
    monkeypatch.setattr(
        oracle_extension_mod,
        "ShrinkEnvironment",
        NumpyShrinkEnvironment.from_polygons,
    )
    for seed, expected in zip(SEEDS, pure_python):
        assert route_digest(family, seed) == expected, (family, seed)
