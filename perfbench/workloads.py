"""The workloads: seeded inputs and the operation streams over them.

Every input is a function of ``--seed`` alone.  Board ``i`` of a run
with seed ``s`` is scenario seed ``s * 1000 + i``, so run seed 0 starts
with scenario seed 0 exactly as ``repro gen`` would build it; a workload
with ``fixed_boards`` uses scenario seed ``i`` in every run and only its
hit stream depends on ``s``.  The program under test only ever receives
the encoded board JSON.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Any, List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``tiled`` base family, its parameters and the tile count.
    base: str
    base_params: Tuple[Tuple[str, Any], ...]
    tiles: int
    #: Clear ``routable_areas`` so the region stage assigns them, the way
    #: an imported KiCad board arrives.
    unassigned: bool
    #: Distinct boards generated up front (more than a run can use).
    boards: int
    #: ``route``: in-process cold routes, each followed by ``hits``
    #: cache-hit requests to the daemon.  ``serve``: a request stream to
    #: the daemon, one first sighting every ``miss_every`` requests.  Both
    #: numbers follow a time-share rule (README.md, "Traffic mix").
    mode: str
    hits: int = 0
    miss_every: int = 0
    #: Route the same boards, in the same order, in every run.  A run of
    #: 12-tile cold routes sees only about thirty boards, and a board's route
    #: takes 0.7x to 1.2x the median board's, so with boards drawn per
    #: seed a run's median also moves with the draw.
    fixed_boards: bool = False
    #: Requests sent between two calibration-kernel runs.
    batch: int = 10


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="unassigned_mixed_12",
            base="mixed_groups",
            # The family's defaults.  Its single pair is the zero-deficit
            # last member, so MSDTW does not run here: with a second pair
            # per tile it would, and every bent pair it restores moves its
            # pins (README.md, "Known defects").
            base_params=(),
            tiles=12,
            unassigned=True,
            boards=48,
            fixed_boards=True,
            mode="route",
            # Hits get the smallest share that still gives a run over 1000
            # of them, the rest goes to cold routes: about 30 routes a run
            # x 40 hits, about a seventh of the timed time.
            hits=40,
        ),
        Workload(
            name="serve_mix",
            base="serpentine_bus",
            base_params=(),
            tiles=4,
            unassigned=False,
            boards=320,
            mode="serve",
            # Hits and misses take half the request time each: 134 ms
            # miss p50 over 3.8 ms mean hit = 35 hits per miss.
            miss_every=36,
            batch=25,
        ),
    )
}

#: Smoke-size tile counts (``--smoke``): same code paths, tiny boards.
SMOKE_TILES = {"unassigned_mixed_12": 1, "serve_mix": 1}


def workload_for_run(name: str, smoke: bool = False) -> Workload:
    """The named workload, shrunk to smoke size when asked (tests)."""
    workload = WORKLOADS[name]
    if not smoke:
        return workload
    return replace(
        workload,
        tiles=SMOKE_TILES[name],
        boards=min(workload.boards, 8),
        hits=min(workload.hits, 10),
    )


def board_seed(workload: Workload, run_seed: int, index: int) -> int:
    return index if workload.fixed_boards else run_seed * 1000 + index


def generate_boards(workload: Workload, run_seed: int) -> List[str]:
    """The run's boards as encoded JSON documents, in stream order."""
    from repro.io import board_to_dict
    from repro.scenarios import generate

    out = []
    for index in range(workload.boards):
        board = generate(
            "tiled",
            seed=board_seed(workload, run_seed, index),
            params={
                "tiles": workload.tiles,
                "base": workload.base,
                "base_params": dict(workload.base_params),
            },
        )
        if workload.unassigned:
            board.routable_areas.clear()
        out.append(json.dumps(board_to_dict(board)))
    return out


def hit_picks(workload: Workload, run_seed: int, boards: int) -> List[List[int]]:
    """Route mode: after cold route ``i``, the boards its hits repeat
    (uniform over the boards routed so far, ``i`` included)."""
    rng = random.Random(f"{workload.name}/hits/{run_seed}")
    return [[rng.randrange(i + 1) for _ in range(workload.hits)] for i in range(boards)]


def request_stream(workload: Workload, run_seed: int, boards: int) -> List[Tuple[int, bool]]:
    """Serve mode: ``(board index, first sighting)`` per request.

    Request ``r`` is the first sighting of the next new board when
    ``r % miss_every == 0``; every other request repeats a board already
    sent, chosen uniformly.  The miss share is fixed, only which board a
    hit repeats depends on the seed.
    """
    rng = random.Random(f"{workload.name}/stream/{run_seed}")
    stream: List[Tuple[int, bool]] = []
    seen = 0
    while seen < boards:
        if len(stream) % workload.miss_every == 0:
            stream.append((seen, True))
            seen += 1
        else:
            stream.append((rng.randrange(seen), False))
    return stream
