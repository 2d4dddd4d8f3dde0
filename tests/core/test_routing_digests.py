"""Routed geometry is frozen: every digest in the golden must reproduce.

``tests/data/routing_digests.golden.json`` was recorded before the
extension engine lost its second (reference) copy; any change to a
single routed bit of the corpus, of the Table II upper-bound runs, of
the AiDT proxy boards or of the region-assigned corpus boards fails
here.  Never regenerate it to make this
test pass — a mismatch is a behaviour change.
"""

import pytest

from oracles.digests import (
    SEEDS,
    TABLE2_DGAPS,
    aidt_digest,
    corpus_families,
    corpus_keys,
    load_golden,
    production_route_digest,
    region_digest,
    region_keys,
    sha256_of,
    table2_digest,
)
from repro.bench.designs import TABLE1_SPECS

GOLDEN = load_golden()


def test_golden_covers_every_workload():
    expected = {key for key, _, _ in corpus_keys()}
    expected |= {
        f"table2/{tag}/{dgap}" for dgap in TABLE2_DGAPS for tag in ("dp", "fixed")
    }
    expected |= {f"aidt/{spec.case}" for spec in TABLE1_SPECS}
    expected |= {key for key, _, _ in region_keys()}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("family", corpus_families())
def test_corpus_routes_match_golden(family):
    for seed in SEEDS:
        digest = sha256_of(*production_route_digest(family, seed))
        assert digest == GOLDEN[f"corpus/{family}/{seed}"], (family, seed)


@pytest.mark.parametrize("dgap", TABLE2_DGAPS)
def test_table2_upper_bounds_match_golden(dgap):
    assert table2_digest(dgap, use_dp=True) == GOLDEN[f"table2/dp/{dgap}"]
    assert table2_digest(dgap, use_dp=False) == GOLDEN[f"table2/fixed/{dgap}"]


@pytest.mark.parametrize("case", [spec.case for spec in TABLE1_SPECS])
def test_aidt_boards_match_golden(case):
    assert aidt_digest(case) == GOLDEN[f"aidt/{case}"]


@pytest.mark.parametrize("family", corpus_families())
def test_region_assigned_routes_match_golden(family):
    for seed in SEEDS:
        assert region_digest(family, seed) == GOLDEN[f"region/{family}/{seed}"], (
            family,
            seed,
        )
