"""Bit-exact digests of routed geometry, and the frozen golden of them.

A digest is the sha256 of a status string plus every routed trace's
``repr`` length and ``repr`` coordinates — every bit of every float.  The
golden file pins three workloads:

* ``corpus/<family>/<seed>``: each scenario family (``imported`` aside,
  it needs fixture files) × seeds 0–4, routed by a ``fast`` session;
* ``table2/<dp|fixed>/<dgap>``: the Table II extension upper bound of
  the DP engine and of the fixed-track baseline at d_gap 1.0–4.0;
* ``aidt/<case>``: the AiDT proxy's board for every Table I case;
* ``region/<family>/<seed>``: the same corpus boards with their
  routable areas cleared, routed by a ``default`` session so the
  Sec. III region stage assigns them; the digest adds the ``repr`` of
  every assigned routable-area polygon.

Regenerate (only ever from a commit whose routing is the reference)::

    PYTHONPATH=src python tests/oracles/digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "routing_digests.golden.json",
)
SEEDS = range(5)
TABLE2_DGAPS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def corpus_families() -> List[str]:
    from repro.scenarios import scenario_names

    return [name for name in scenario_names() if name != "imported"]


def trace_digest(trace) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """One trace's exact length and coordinates."""
    return (
        repr(trace.length()),
        tuple((repr(p.x), repr(p.y)) for p in trace.path.points),
    )


def board_digest(board) -> Dict[str, Tuple]:
    """Every trace of ``board``, pair halves included, by name."""
    digest = {}
    for trace in board.traces:
        digest[trace.name] = trace_digest(trace)
    for pair in board.pairs:
        for trace in (pair.trace_p, pair.trace_n):
            digest[trace.name] = trace_digest(trace)
    return digest


def sha256_of(status: str, digest: Dict[str, Tuple]) -> str:
    doc = json.dumps([status, sorted(digest.items())], separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def route_digest(family: str, seed: int):
    """Status plus the board digest of one ``fast`` session run.

    Routes through whatever ``repro.core.router.TraceExtender`` is at
    call time, so the equivalence suite can swap in the oracle.
    """
    from repro.api import RoutingSession, SessionConfig
    from repro.scenarios import generate

    board = generate(family, seed=seed)
    result = RoutingSession(board, config=SessionConfig.preset("fast")).run()
    return result.status, board_digest(board)


@lru_cache(maxsize=None)
def production_route_digest(family: str, seed: int):
    """:func:`route_digest` with the production extender, memoized so
    the golden check and the oracle comparison route each board once."""
    return route_digest(family, seed)


def region_digest(family: str, seed: int) -> str:
    """Status, routed board and assigned routable areas of one
    ``default`` session run on a board stripped of its areas."""
    from repro.api import RoutingSession, SessionConfig
    from repro.scenarios import generate

    board = generate(family, seed=seed)
    board.routable_areas.clear()
    result = RoutingSession(board, config=SessionConfig.preset("default")).run()
    areas = sorted((name, repr(poly)) for name, poly in board.routable_areas.items())
    doc = json.dumps(
        [result.status, sorted(board_digest(board).items()), areas],
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def table2_digest(dgap: float, use_dp: bool) -> str:
    from repro.bench.designs import make_table2_design
    from repro.bench.harness import _table2_extender

    board, trace = make_table2_design(dgap)
    extender = _table2_extender(board, trace, use_dp=use_dp)
    result = extender.extension_upper_bound(trace)
    return sha256_of(repr(result.achieved), {trace.name: trace_digest(result.trace)})


def aidt_digest(case: int) -> str:
    from repro.bench.designs import make_table1_case
    from repro.core import AiDTProxy

    board, _ = make_table1_case(case)
    report = AiDTProxy(board).match_group(board.groups[0])
    return sha256_of(repr(report.max_error()), board_digest(board))


def corpus_keys() -> Iterable[Tuple[str, str, int]]:
    for family in corpus_families():
        for seed in SEEDS:
            yield f"corpus/{family}/{seed}", family, seed


def region_keys() -> Iterable[Tuple[str, str, int]]:
    for family in corpus_families():
        for seed in SEEDS:
            yield f"region/{family}/{seed}", family, seed


def compute_all() -> Dict[str, str]:
    from repro.bench.designs import TABLE1_SPECS

    out: Dict[str, str] = {}
    for key, family, seed in corpus_keys():
        out[key] = sha256_of(*production_route_digest(family, seed))
    for dgap in TABLE2_DGAPS:
        for use_dp, tag in ((True, "dp"), (False, "fixed")):
            out[f"table2/{tag}/{dgap}"] = table2_digest(dgap, use_dp)
    for spec in TABLE1_SPECS:
        out[f"aidt/{spec.case}"] = aidt_digest(spec.case)
    for key, family, seed in region_keys():
        out[key] = region_digest(family, seed)
    return out


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Sequence[str]) -> int:
    digests = compute_all()
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if "--write" in argv:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
