"""The perf-regression bench — ``python -m repro bench --perf``.

Times the library's hot paths over the synthetic bench designs at
several size scales and writes ``BENCH_perf.json``: per-phase medians
over repeats plus machine info.  The file is the performance trajectory's
data point for this commit: CI uploads it as an artifact and guards
each run against the committed copy (:func:`check_perf_guard`).  Every
row carries something that checks its answer:

Phases
------
``dtw``        :func:`~repro.dtw.dtw_match` on jittered parallel node
               sequences of growing length, with a sha256 ``digest`` of
               the matching;
``drc``        :func:`~repro.drc.check_board` on a routed Table I board
               replicated to several sizes, with its ``violations``
               count (zero on these clean boards);
``extension``  the Alg. 1 extension loop on the Table II via-field
               design, with a sha256 ``digest`` of every routed float;
``extension_breakdown``  the same workload at d_gap 4.0 under a
               :mod:`repro.obs` trace: the env-query / DP setup /
               DP / trim / verify stage split, iteration-time percentiles and the
               pruned count, with the traced run's ``digest``;
``region``     Sec. III region assignment on ``tiled`` boards with their
               routable areas cleared: the grid decomposition alone,
               the whole assignment (decompose plus LP) and storing the
               areas on the board, with the LP's ``solver`` and a sha256
               ``digest`` of the assignment and the areas.  The
               ``mixed_groups`` rows take the closed form; one
               ``serpentine_bus`` row keeps the HiGHS path guarded;
``scaling``    cold end-to-end :class:`~repro.api.RoutingSession` runs
               (``fast`` preset) on ``tiled`` seed 0 boards of 6 to 48
               tiles, with the pipeline's ``ok`` and a sha256 ``digest``
               of the routed board;
``server_faults``  one live :mod:`repro.server` daemon: the first
               ``POST /route`` is the cache miss (``miss_ms``), the
               first clean repeat must be an ``identical`` cache hit,
               then warm-request p50/p99 latency clean and under a
               seeded 1 % ``http_503`` fault plan (:mod:`repro.faults`)
               against a retrying client (``all_ok``).  A second row
               (``body="reserialised"``) times hits whose bodies list
               the board's keys in another order each time, so the
               key memo cannot answer them;
``startup``    cold start: the median of fresh-interpreter ``import
               repro.cli`` runs, and one ``repro serve`` spawned until
               ``/healthz`` answers.  Each row carries ``scipy_loaded``
               from the child's ``sys.modules``: neither process solves
               an LP, so scipy must stay unloaded.

``--quick`` shrinks every phase to its smallest scale with one repeat —
the CI smoke configuration — while keeping at least one row per guarded
phase at a scale the committed baseline holds.  ``--profile``
(:func:`run_profile`) writes a cProfile top-25 cumulative table for the
match hot path next to the baseline, and :func:`run_perf_guard`
(``bench --perf --guard``) fails a run whose digests differ from the
committed ``BENCH_perf.json``, whose ``extension`` or ``scaling`` median
regresses more than :data:`GUARD_MAX_RATIO` after normalizing machine
speed by the frozen calibration kernel (:mod:`.calibration`), or whose
``startup`` rows report scipy loaded.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..api import RegionAssignmentStage, RoutingSession, SessionConfig
from ..drc import check_board
from ..dtw import dtw_match
from ..geometry import Point, Polygon, Polyline
from ..model import Board, Obstacle, Trace
from .calibration import calibration_run
from .designs import make_table1_case, make_table2_design
from .harness import _table2_extender

PERF_FORMAT_VERSION = 1

_DTW_RULE = 1.6


# -- timing helpers ---------------------------------------------------------------------


def _median(times: Sequence[float]) -> float:
    return statistics.median(times)


def _time_repeats(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Median wall-clock of ``repeats`` calls plus the last return value."""
    times, value = _time_all(fn, repeats)
    return _median(times), value


def _time_all(fn: Callable[[], Any], repeats: int) -> Tuple[List[float], Any]:
    """Every wall-clock sample of ``repeats`` calls plus the last value."""
    times: List[float] = []
    value: Any = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return times, value


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of ``samples``."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


# -- workloads --------------------------------------------------------------------------


def dtw_workload(
    n: int,
    rule: float,
    seed: int,
    jitter: float = 0.4,
    extra_every: int = 13,
) -> Tuple[List[Point], List[Point]]:
    """Jittered near-parallel node sequences with uneven node counts —
    the shape of a real decoupled pair's sub-traces.

    Shared with the DTW equivalence tests so the bench times the same
    distribution the tests certify; ``extra_every`` inserts an
    interpolated extra node into the second sequence every that many
    nodes (uneven counts are what DTW exists for).
    """
    rng = random.Random(seed)
    p: List[Point] = []
    q: List[Point] = []
    x = 0.0
    for k in range(n):
        x += 1.0 + rng.random() * 0.5
        y = math.sin(k * 0.3) * 2.0 + rng.random() * 0.3
        p.append(Point(x, y))
        q.append(
            Point(
                x + (rng.random() - 0.5) * jitter,
                y - rule + (rng.random() - 0.5) * jitter,
            )
        )
    uneven: List[Point] = []
    for k, pt in enumerate(q):
        uneven.append(pt)
        if k % extra_every == extra_every - 1 and k + 1 < len(q):
            nxt = q[k + 1]
            uneven.append(Point((pt.x + nxt.x) / 2.0, (pt.y + nxt.y) / 2.0))
    return p, uneven


def _routed_table1_board() -> Board:
    board, _ = make_table1_case(1)
    RoutingSession(board, config=SessionConfig.preset("bench")).run()
    return board


def make_drc_board(scale: int) -> Board:
    """A routed Table I case 1 board tiled ``scale`` times vertically.

    Replication multiplies the trace/segment/obstacle counts without
    changing the local geometry, so the DRC workload grows like a real
    board panel while every copy stays clean by construction.
    """
    base = _routed_table1_board()
    xmin, ymin, xmax, ymax = base.outline.bounds()
    dy = (ymax - ymin) + base.rules.default.dgap
    board = Board(
        outline=Polygon(
            [
                Point(xmin, ymin),
                Point(xmax, ymin),
                Point(xmax, ymin + dy * scale),
                Point(xmin, ymin + dy * scale),
            ]
        ),
        rules=base.rules,
        name=f"perf_drc_x{scale}",
    )
    for k in range(scale):
        offset = Point(0.0, dy * k)
        for trace in base.traces:
            board.add_trace(
                Trace(
                    name=f"{trace.name}_r{k}",
                    path=Polyline([pt + offset for pt in trace.path.points]),
                    width=trace.width,
                )
            )
        for obstacle in base.obstacles:
            board.add_obstacle(
                Obstacle(
                    polygon=Polygon([pt + offset for pt in obstacle.polygon.points]),
                    kind=obstacle.kind,
                    name=f"{obstacle.name}_r{k}",
                )
            )
    return board


# -- phases -----------------------------------------------------------------------------


def _sha256_lines(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _matching_digest(matching: Tuple[List[Any], float]) -> str:
    """sha256 of a DTW matching: every pair and the total cost, by ``repr``."""
    pairs, total = matching
    return _sha256_lines([f"{m.i},{m.j},{m.cost!r}" for m in pairs] + [repr(total)])


def _phase_dtw(sizes: Sequence[int], repeats: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        p, q = dtw_workload(n, _DTW_RULE, seed=n)
        match_s, matching = _time_repeats(lambda: dtw_match(p, q), repeats)
        rows.append(
            {"nodes": n, "match_s": match_s, "digest": _matching_digest(matching)}
        )
    return rows


def _phase_drc(scales: Sequence[int], repeats: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for scale in scales:
        board = make_drc_board(scale)
        check_s, report = _time_repeats(
            lambda: check_board(board, check_areas=False), repeats
        )
        rows.append(
            {
                "scale": scale,
                "traces": len(board.traces),
                "segments": sum(len(t.segments()) for t in board.traces),
                "obstacles": len(board.obstacles),
                "check_s": check_s,
                "violations": len(report),
            }
        )
    return rows


def _result_fingerprint(result: Any) -> Tuple[str, ...]:
    """Bit-exact identity of an extension result: every routed float."""
    return tuple(
        [repr(result.achieved), str(result.iterations), str(result.patterns_applied)]
        + [f"{p.x!r},{p.y!r}" for p in result.trace.path.points]
    )


def _result_digest(result: Any) -> str:
    """sha256 of :func:`_result_fingerprint`, one line per field."""
    return _sha256_lines(_result_fingerprint(result))


def _table2_extension(dgap: float) -> Any:
    """One Table II extension upper-bound run at ``dgap``, design included."""
    board, trace = make_table2_design(dgap)
    extender = _table2_extender(board, trace, use_dp=True)
    return extender.extension_upper_bound(trace)


def _phase_extension(dgaps: Sequence[float], repeats: int) -> List[Dict[str, Any]]:
    """The Table II extension upper-bound run, timed per d_gap.

    ``extend_s`` is the median and ``min_s`` the best repeat.  ``digest``
    pins the routed answer bit for bit (achieved length, iteration and
    pattern counts, every routed coordinate by ``repr``): the guard
    fails when it differs from the committed baseline's, so a change
    that got fast by changing the answer cannot pass as a speedup.
    """
    rows: List[Dict[str, Any]] = []
    for dgap in dgaps:
        times, result = _time_all(lambda: _table2_extension(dgap), repeats)
        rows.append(
            {
                "dgap": dgap,
                "extend_s": _median(times),
                "min_s": min(times),
                "iterations": result.iterations,
                "patterns": result.patterns_applied,
                "achieved": result.achieved,
                "stale_drops": result.stale_drops,
                "digest": _result_digest(result),
            }
        )
    return rows


def _phase_extension_breakdown(dgap: float) -> List[Dict[str, Any]]:
    """Where extension time goes, read from one :mod:`repro.obs` trace.

    The ``extension`` phase's workload at ``dgap``, run once under a
    collector.  Its ``extension.iteration`` spans give the iteration-time
    percentiles and the stage split summed over every iteration:
    environment window queries vs. the DP's setup (foot bounds and the
    side prefill) vs. the DP itself vs. the trim/chain build vs.
    post-apply verification.  ``other_s`` is what the five
    annotated stages don't cover (queue work, span overhead, length
    accounting); ``pruned_iterations`` counts iterations the upper-bound
    gate skipped before running the DP.  ``digest`` is the traced run's
    routed answer, so tracing cannot change what it measures.
    """
    from .. import obs

    with obs.trace(f"bench extension dgap={dgap}") as collected:
        result = _table2_extension(dgap)
    iter_attrs: List[Dict[str, Any]] = []
    durations: List[float] = []
    for span in collected.to_dict()["spans"]:
        if span["name"] == "extension.iteration":
            iter_attrs.append(span.get("attrs") or {})
            durations.append(span["duration_s"])
    stages = {
        key: sum(attrs.get(key) or 0.0 for attrs in iter_attrs)
        for key in ("env_query_s", "dp_setup_s", "dp_s", "trim_s", "verify_s")
    }
    stages["other_s"] = max(0.0, sum(durations) - sum(stages.values()))
    stages["pruned_iterations"] = sum(1 for attrs in iter_attrs if attrs.get("pruned"))
    return [
        {
            "dgap": dgap,
            "iterations": len(durations),
            "stages": stages,
            "iteration_ms": {
                "p50": _percentile(durations, 50) * 1e3 if durations else None,
                "p90": _percentile(durations, 90) * 1e3 if durations else None,
                "p99": _percentile(durations, 99) * 1e3 if durations else None,
                "max": max(durations) * 1e3 if durations else None,
            },
            "digest": _result_digest(result),
        }
    ]


#: The region phase's boards as ``(tiled base, tiles)``.  Every
#: ``mixed_groups`` cell serves one trace, so their LPs take the closed
#: form; ``serpentine_bus`` traces share cells, so its LP goes to HiGHS.
REGION_BOARDS = (("mixed_groups", 6), ("mixed_groups", 12), ("serpentine_bus", 6))
REGION_BOARDS_QUICK = (("mixed_groups", 6), ("serpentine_bus", 6))


def _region_board(base: str, tiles: int) -> Board:
    """``tiled``/``base`` seed 0 without routable areas, the way an
    imported board reaches the region stage."""
    from ..scenarios import generate

    board = generate("tiled", seed=0, params={"tiles": tiles, "base": base})
    board.routable_areas.clear()
    return board


def _assignment_digest(assignment: Any, areas: Dict[str, Polygon]) -> str:
    """sha256 of an assignment and the areas it stored: every trace's
    cells, every LP value and every area polygon by ``repr``."""
    return _sha256_lines(
        [f"{name}:{cells}" for name, cells in sorted(assignment.cells.items())]
        + [
            f"{ridx},{name},{amount!r}"
            for (ridx, name), amount in sorted(assignment.usage.items())
        ]
        + [f"{name}:{poly!r}" for name, poly in sorted(areas.items())]
    )


def _phase_region(
    boards: Sequence[Tuple[str, int]], repeats: int
) -> List[Dict[str, Any]]:
    """The region stage's layers, timed apart per ``(base, tiles)`` board.

    ``decompose_s`` is the grid decomposition alone, ``assign_s`` the
    whole :func:`~repro.region.assign_regions` (decomposition, LP build
    and solve, integerisation) and ``apply_s`` the
    :func:`~repro.region.apply_assignment` that turns the cells into
    area polygons; ``cells``, ``variables``, ``rows`` and ``solver`` are
    read from the ``region.decompose``/``region.lp`` spans of one traced
    call.  That call runs first, so the lazy scipy import of a HiGHS
    solve falls outside the timed repeats.
    """
    from .. import obs
    from ..region import apply_assignment, assign_regions, decompose

    config = SessionConfig.preset("default")
    rows: List[Dict[str, Any]] = []
    for base, k in boards:
        board = _region_board(base, k)
        traces, targets, cell = RegionAssignmentStage.inputs(board, config)

        def assign():
            return assign_regions(
                board,
                traces,
                targets,
                cell=cell,
                safety=config.region.safety,
                reach=config.region.reach,
            )

        with obs.trace(f"bench region {base} tiles={k}") as collected:
            assign()
        attrs = {
            span["name"]: span.get("attrs") or {}
            for span in collected.to_dict()["spans"]
        }
        decompose_s, _ = _time_repeats(
            lambda: decompose(board, traces, cell, config.region.reach), repeats
        )
        assign_s, assignment = _time_repeats(assign, repeats)
        apply_s, _ = _time_repeats(
            lambda: apply_assignment(board, assignment), repeats
        )
        areas = dict(board.routable_areas)
        board.routable_areas.clear()
        rows.append(
            {
                "base": base,
                "tiles": k,
                "traces": len(traces),
                "cells": attrs["region.decompose"]["cells"],
                "variables": attrs["region.lp"]["variables"],
                "rows": attrs["region.lp"]["rows"],
                "solver": attrs["region.lp"]["solver"],
                "decompose_s": decompose_s,
                "assign_s": assign_s,
                "apply_s": apply_s,
                "digest": _assignment_digest(assignment, areas),
            }
        )
    return rows


def _phase_scaling(tiles: Sequence[int], repeats: int) -> List[Dict[str, Any]]:
    """Cold end-to-end sessions on ``tiled`` seed 0 boards of growing size.

    Each repeat regenerates the board from ``(tiled, seed=0, tiles=k)``
    and routes it under the ``fast`` preset; ``run_s`` is the median of
    ``RoutingSession.run()``.  ``ok`` is the pipeline's verdict (matched
    and DRC-clean) and ``digest`` the sha256 of the routed board's
    canonical JSON, which the guard compares with the committed row.
    """
    from ..io import board_to_dict, canonical_json
    from ..scenarios import generate

    rows: List[Dict[str, Any]] = []
    for k in tiles:
        times: List[float] = []
        for _ in range(repeats):
            board = generate("tiled", seed=0, params={"tiles": k})
            session = RoutingSession(board, config=SessionConfig.preset("fast"))
            t0 = time.perf_counter()
            result = session.run()
            times.append(time.perf_counter() - t0)
        rows.append(
            {
                "tiles": k,
                "members": sum(len(g.members) for g in result.groups),
                "run_s": _median(times),
                "ok": bool(result.ok()),
                "digest": _sha256_lines([canonical_json(board_to_dict(board))]),
            }
        )
    return rows


def _phase_server_faults(
    tiles: int, samples: int, fault_rate: float = 0.01
) -> List[Dict[str, Any]]:
    """Cache miss, cache hit and warm tail latency on one live daemon.

    One daemon on a fresh cache directory, one generated ``tiled``
    board, measured end-to-end over real HTTP.  The first ``POST
    /route`` routes the board (``cold_status``, ``miss_ms``); the next
    identical request must come from the content-addressed cache
    (``cache_hit``) with the cold run's ``result`` byte for byte
    (``identical``).  Then ``samples`` warm requests run clean and
    ``samples`` more under a :mod:`repro.faults` plan injecting
    ``http_503`` overload answers at ``fault_rate`` probability (seeded
    — the same fire sequence every bench run), against a client doing
    the production retry policy (capped backoff + jitter, seeded rng).
    ``p50_ms``/``p99_ms`` show retries cost nothing on the 99 % of clean
    requests and the worst retried request stays bounded by the backoff
    cap; the clean percentiles ride along for the comparison.

    Every one of those repeats is byte-identical, so the daemon's key
    memo answers it without parsing the body (``body="repeat"``).  The
    second row sends the same board with its keys in another order on
    every request (``body="reserialised"``): each is a memo miss that
    parses and canonicalises the board before its cache hit.
    """
    import itertools
    import tempfile

    from .. import faults
    from ..io import board_to_dict
    from ..scenarios import generate
    from ..server import make_http_server
    from ..server.client import ServerClient

    board_dict = board_to_dict(
        generate("tiled", seed=0, params={"tiles": tiles})
    )
    # The first permutation is the board's own key order.
    reordered = [
        {name: board_dict[name] for name in order}
        for order in itertools.islice(
            itertools.permutations(board_dict), 1, samples + 2
        )
    ]
    plan = faults.FaultPlan(
        "bench-1pct-overload",
        seed=0,
        specs=[
            faults.FaultSpec(
                site="transport.response",
                mode="http_503",
                probability=fault_rate,
            )
        ],
    )

    def warm_latencies(client: ServerClient, boards) -> Tuple[List[float], int]:
        """Each request's seconds, and how many answers were not ok."""
        times: List[float] = []
        failed = 0
        for board in boards:
            t0 = time.perf_counter()
            resp = client.route(board, preset="fast")
            times.append(time.perf_counter() - t0)
            failed += not resp.ok
        return times, failed

    with tempfile.TemporaryDirectory(prefix="repro-bench-chaos-") as cache_dir:
        server = make_http_server(cache_dir, port=0)
        started = False
        try:
            server.start_background()
            started = True
            client = ServerClient(server.url)
            t0 = time.perf_counter()
            cold = client.route(board_dict, preset="fast")
            miss_s = time.perf_counter() - t0
            warm = client.route(board_dict, preset="fast")

            clean_client = ServerClient(server.url, rng=random.Random(0))
            clean, failed = warm_latencies(clean_client, [board_dict] * samples)

            faulted_client = ServerClient(
                server.url,
                retries=3,
                backoff_base=0.05,
                backoff_cap=0.5,
                rng=random.Random(0),
            )
            with faults.activate(plan):
                faulted, faulted_failed = warm_latencies(
                    faulted_client, [board_dict] * samples
                )
            failed += faulted_failed
            fires = plan.fire_counts().get("transport.response:http_503", 0)

            respelled = clean_client.route(reordered[0], preset="fast")
            reserialised, reserialised_failed = warm_latencies(
                clean_client, reordered[1:]
            )
        finally:
            # shutdown() on a never-started server blocks forever (it
            # waits for an accept loop that never ran to exit); only
            # the bound socket needs closing in that case.
            if started:
                server.shutdown()
            else:
                server._server.server_close()
    return [
        {
            "tiles": tiles,
            "samples": samples,
            "body": "repeat",
            "fault_rate": fault_rate,
            "cold_status": cold.payload.get("status"),
            "miss_ms": miss_s * 1e3,
            "cache_hit": warm.payload.get("cache") == "hit",
            "identical": cold.payload.get("result") == warm.payload.get("result"),
            "clean_p50_ms": _percentile(clean, 50) * 1e3,
            "clean_p99_ms": _percentile(clean, 99) * 1e3,
            "p50_ms": _percentile(faulted, 50) * 1e3,
            "p99_ms": _percentile(faulted, 99) * 1e3,
            "faults_fired": fires,
            "retries": faulted_client.retry_count,
            "all_ok": failed == 0,
        },
        {
            "tiles": tiles,
            "samples": samples,
            "body": "reserialised",
            "cache_hit": respelled.payload.get("cache") == "hit",
            "identical": cold.payload.get("result")
            == respelled.payload.get("result"),
            "clean_p50_ms": _percentile(reserialised, 50) * 1e3,
            "clean_p99_ms": _percentile(reserialised, 99) * 1e3,
            "all_ok": reserialised_failed == 0,
        },
    ]


# A fresh interpreter's report on itself, printed as its last stdout
# line.  ``vmhwm_kb`` is the peak RSS of this process image (Linux;
# None elsewhere): unlike ``ru_maxrss`` it does not inherit the peak of
# the bench process the child was forked from.
_CHILD_REPORT = """
import json, sys

def report(**extra):
    try:
        with open("/proc/self/status") as fh:
            hwm = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
    except OSError:
        hwm = None
    print(json.dumps({
        "scipy_loaded": "scipy" in sys.modules,
        "modules": len(sys.modules),
        "vmhwm_kb": hwm,
        **extra,
    }), flush=True)
"""

_IMPORT_CHILD = _CHILD_REPORT + """
import time
started = time.perf_counter()
import repro.cli
report(import_s=time.perf_counter() - started)
"""

# ``python -m repro serve`` as the shell runs it; the exit hook reports
# once SIGTERM has drained the daemon.
_SERVE_CHILD = _CHILD_REPORT + """
import atexit, runpy
atexit.register(report)
sys.argv = ["repro", "serve", "--port", "0", "--cache-dir", sys.argv[1], "--quiet"]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _child_env() -> Dict[str, str]:
    """The environment that makes a child import this very ``repro``."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _phase_startup(repeats: int) -> List[Dict[str, Any]]:
    """Cold start of the two processes every user starts.

    ``import``: ``repeats`` fresh interpreters each time ``import
    repro.cli``; ``import_s`` is the median in-child import time,
    ``wall_s`` the median child wall time (interpreter start included).
    ``serve``: one ``repro serve`` timed from spawn until ``/healthz``
    answers, then stopped with SIGTERM; ``vmhwm_mb`` is its peak RSS.
    Page-cache state shows through both: the first child after a cold
    disk pays for the reads.
    """
    import signal
    import subprocess
    import tempfile
    import urllib.request

    env = _child_env()
    walls: List[float] = []
    reports: List[Dict[str, Any]] = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_CHILD],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(time.perf_counter() - started)
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    rows = [
        {
            "target": "import",
            "runs": repeats,
            "import_s": _median([r["import_s"] for r in reports]),
            "wall_s": _median(walls),
            "modules": reports[-1]["modules"],
            "scipy_loaded": any(r["scipy_loaded"] for r in reports),
        }
    ]

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE_CHILD, cache_dir],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()
            url = banner.split("listening on ", 1)[1].split()[0]
            deadline = started + 60.0
            while True:
                try:
                    with urllib.request.urlopen(url + "/healthz", timeout=5):
                        break  # urlopen raises HTTPError on a non-2xx
                except OSError:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.005)
            ready_s = time.perf_counter() - started
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    report = json.loads((banner + out).strip().splitlines()[-1])
    rows.append(
        {
            "target": "serve",
            "runs": 1,
            "ready_s": ready_s,
            "vmhwm_mb": (
                report["vmhwm_kb"] / 1024.0 if report["vmhwm_kb"] is not None else None
            ),
            "modules": report["modules"],
            "scipy_loaded": report["scipy_loaded"],
        }
    )
    return rows


# -- entry point ------------------------------------------------------------------------


def run_perf(
    quick: bool = False,
    out: Optional[str] = "BENCH_perf.json",
    verbose: bool = True,
) -> Dict[str, Any]:
    """Run every perf phase and (optionally) write the JSON baseline.

    ``quick`` is the CI smoke configuration: smallest scales, one repeat.
    Returns the payload; ``out=None`` skips writing.
    """
    repeats = 1 if quick else 3
    started = time.perf_counter()
    phases: Dict[str, Any] = {}
    calibration: List[float] = []

    def run_phase(name: str, phase: Callable[..., Any], *args: Any, **kwargs: Any):
        # One yardstick run before every phase, and the minimum kept: a
        # shared host slows down for seconds at a time, so samples spread
        # across the bench give the min (the stable estimator of a
        # CPU-bound cost) a quiet window that one burst often misses.
        calibration.append(calibration_run())
        phases[name] = phase(*args, **kwargs)

    # Quick mode keeps every guarded phase at a key the committed full
    # baseline also holds (64 nodes, both d_gaps, 6 tiles, both region
    # solvers): the guard fails a phase that shares no key with the
    # baseline.
    run_phase("dtw", _phase_dtw, [64] if quick else [64, 128, 256], repeats)
    run_phase("drc", _phase_drc, [1] if quick else [1, 2, 4, 8], repeats)
    run_phase("extension", _phase_extension, [2.5, 4.0], repeats)
    run_phase("extension_breakdown", _phase_extension_breakdown, 4.0)
    run_phase(
        "region", _phase_region, REGION_BOARDS_QUICK if quick else REGION_BOARDS, repeats
    )
    run_phase("scaling", _phase_scaling, [6] if quick else [6, 12, 24, 48], repeats)
    run_phase(
        "server_faults",
        _phase_server_faults,
        8 if quick else 48,
        samples=100 if quick else 400,
    )
    run_phase("startup", _phase_startup, 2 if quick else 5)
    calibration_s = min(calibration)
    payload: Dict[str, Any] = {
        "version": PERF_FORMAT_VERSION,
        "kind": "BENCH_perf",
        "quick": quick,
        "repeats": repeats,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "calibration_s": calibration_s,
        },
        "total_s": 0.0,
        "phases": phases,
    }
    payload["total_s"] = time.perf_counter() - started

    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if verbose:
        print(f"machine   calibration {calibration_s*1e3:.2f} ms")
        for row in phases["dtw"]:
            print(
                f"dtw       nodes={row['nodes']:>4}  {row['match_s']*1e3:8.2f} ms"
                f"  digest {row['digest'][:12]}"
            )
        for row in phases["drc"]:
            print(
                f"drc       scale={row['scale']}  segments={row['segments']:>5}"
                f"  {row['check_s']*1e3:8.2f} ms  violations={row['violations']}"
            )
        for row in phases["extension"]:
            print(
                f"extension dgap={row['dgap']:.1f}  {row['extend_s']:.3f} s"
                f"  ({row['iterations']} iterations, {row['patterns']} patterns,"
                f" digest {row['digest'][:12]})"
            )
        for row in phases["extension_breakdown"]:
            stages = row["stages"]
            print(
                f"breakdown dgap={row['dgap']:.1f}  iters={row['iterations']}"
                f"  p50 {row['iteration_ms']['p50']:.2f} ms"
                f"  p99 {row['iteration_ms']['p99']:.2f} ms"
                f"  env {stages['env_query_s']*1e3:.1f} ms"
                f"  dp setup {stages['dp_setup_s']*1e3:.1f} ms"
                f"  dp {stages['dp_s']*1e3:.1f} ms"
                f"  trim {stages['trim_s']*1e3:.1f} ms"
                f"  verify {stages['verify_s']*1e3:.1f} ms"
                f"  pruned={stages['pruned_iterations']}"
                f"  digest {row['digest'][:12]}"
            )
        for row in phases["region"]:
            print(
                f"region    {row['base']:<14} tiles={row['tiles']:>2}"
                f"  cells={row['cells']:>5}  variables={row['variables']:>5}"
                f"  {row['solver']:<11}"
                f"  decompose {row['decompose_s']*1e3:.1f} ms"
                f"  assign {row['assign_s']*1e3:.1f} ms"
                f"  apply {row['apply_s']*1e3:.1f} ms"
                f"  digest {row['digest'][:12]}"
            )
        for row in phases["scaling"]:
            print(
                f"scaling   tiles={row['tiles']:>2}  members={row['members']:>3}"
                f"  {row['run_s']:.3f} s  ok={row['ok']}"
                f"  digest {row['digest'][:12]}"
            )
        for row in phases["server_faults"]:
            if row["body"] == "reserialised":
                print(
                    f"server    reserialised hits  cache_hit={row['cache_hit']}"
                    f"  identical={row['identical']}"
                    f"  p50 {row['clean_p50_ms']:.2f} ms"
                    f"  p99 {row['clean_p99_ms']:.2f} ms"
                )
                continue
            print(
                f"server    tiles={row['tiles']}  miss {row['miss_ms']:.1f} ms"
                f" ({row['cold_status']})  cache_hit={row['cache_hit']}"
                f"  identical={row['identical']}"
            )
            print(
                f"faults    rate={row['fault_rate']:.0%}"
                f"  p50 {row['p50_ms']:.2f} ms (clean {row['clean_p50_ms']:.2f})"
                f"  p99 {row['p99_ms']:.2f} ms (clean {row['clean_p99_ms']:.2f})"
                f"  fired={row['faults_fired']} retries={row['retries']}"
            )
        for row in phases["startup"]:
            timing = (
                f"import {row['import_s']:.3f} s  wall {row['wall_s']:.3f} s"
                if row["target"] == "import"
                else f"ready {row['ready_s']:.3f} s  VmHWM {row['vmhwm_mb'] or 0:.1f} MB"
            )
            print(
                f"startup   {row['target']:<6}  {timing}"
                f"  modules={row['modules']}  scipy_loaded={row['scipy_loaded']}"
            )
        if out:
            print(f"wrote {out}")
    return payload


# -- profiling --------------------------------------------------------------------------


#: Rows kept from the cumulative-time profile table.
PROFILE_TOP_N = 25


def run_profile(
    out: str = "BENCH_profile.txt",
    quick: bool = False,
    verbose: bool = True,
) -> str:
    """cProfile the length-matching hot path; write the top-25 table.

    Profiles the same Table II extension workload the ``extension``
    phase times — the core of the session's match stage — and writes the
    ``PROFILE_TOP_N`` heaviest functions by *cumulative* time next to
    ``BENCH_perf.json`` (CI uploads both as artifacts).  Cumulative
    ordering keeps the call-tree shape readable: the extension loop at
    the top, the environment/DP/shrink kernels below it in cost order.
    Returns the output path.
    """
    import cProfile
    import pstats

    dgaps = (4.0,) if quick else (2.5, 4.0)
    profiler = cProfile.Profile()
    for dgap in dgaps:
        board, trace = make_table2_design(dgap)
        extender = _table2_extender(board, trace, use_dp=True)
        profiler.enable()
        extender.extension_upper_bound(trace)
        profiler.disable()
    table = io.StringIO()
    stats = pstats.Stats(profiler, stream=table)
    stats.sort_stats("cumulative")
    stats.print_stats(PROFILE_TOP_N)
    # Name files by their import path (repro/core/dp.py, numpy/...), so
    # the committed table does not depend on where anything is installed.
    text = table.getvalue()
    roots = {os.path.abspath(p) for p in sys.path if p and os.path.isdir(p)}
    for root in sorted(roots, key=len, reverse=True):
        text = text.replace(root.rstrip(os.sep) + os.sep, "")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(
            "# Length-matching hot path (Table II extension, "
            f"dgaps={list(dgaps)}), top {PROFILE_TOP_N} by cumulative time\n"
        )
        fh.write(text)
    if verbose:
        print(f"wrote {out}")
    return out


# -- regression guard -------------------------------------------------------------------


#: A phase median this many times slower than the committed baseline
#: (after machine-speed normalization) fails the guard.
GUARD_MAX_RATIO = 2.0


#: What the guard compares with the committed baseline, as ``(phase,
#: row key fields, timed field)``.  Every row the two payloads share by
#: key must carry the baseline row's ``digest``; a timed field must also
#: stay within the calibrated allowance.
_GUARDED_PHASES = (
    ("dtw", ("nodes",), None),
    ("extension", ("dgap",), "extend_s"),
    ("extension_breakdown", ("dgap",), None),
    ("region", ("base", "tiles"), None),
    ("scaling", ("tiles",), "run_s"),
)


def _row_key(row: Dict[str, Any], fields: Sequence[str]) -> Tuple[Any, ...]:
    return tuple(row.get(field) for field in fields)


def check_perf_guard(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_ratio: float = GUARD_MAX_RATIO,
) -> List[str]:
    """Compare a fresh perf run against the committed baseline.

    Returns a list of problems (empty = pass).  For every phase of
    :data:`_GUARDED_PHASES` the baseline holds, the current payload must
    share at least one row key with it (a run at other scales would
    check nothing), and on every shared row the ``digest`` must equal
    the baseline row's: code that got fast by changing the answer must
    fail here, not just in the test suite.  A baseline row without a
    digest fails too, as it cannot vouch for the answer.  The
    ``extension`` and ``scaling`` medians must not regress.  A current
    ``startup`` row with ``scipy_loaded`` fails: only a region LP solved
    by HiGHS may load scipy, and neither a bare import nor an idle
    daemon solves one.

    CI machines and the machine that committed the baseline run at
    different speeds, so raw medians can't be compared directly.  Every
    payload records ``machine.calibration_s``, the time of a frozen
    pure-Python float kernel that imports nothing from :mod:`repro`
    (:mod:`.calibration`); the ratio of the two estimates the hardware
    ratio, and each allowance is the baseline median scaled by it times
    ``max_ratio``.
    """
    problems: List[str] = []
    cur_cal = current.get("machine", {}).get("calibration_s")
    base_cal = baseline.get("machine", {}).get("calibration_s")
    if cur_cal and base_cal:
        machine_scale = cur_cal / base_cal
    else:
        problems.append("no calibration_s in both payloads to normalize machine speed")
        machine_scale = 1.0

    for phase, fields, time_field in _GUARDED_PHASES:
        base_rows = {
            _row_key(row, fields): row
            for row in baseline.get("phases", {}).get(phase, ())
        }
        if not base_rows:
            continue
        shared = [
            row
            for row in current.get("phases", {}).get(phase, ())
            if _row_key(row, fields) in base_rows
        ]
        if not shared:
            held = ", ".join("/".join(str(v) for v in k) for k in base_rows)
            problems.append(
                f"{phase}: shares no {'/'.join(fields)} with the baseline ({held})"
            )
        for row in shared:
            base = base_rows[_row_key(row, fields)]
            label = phase + "".join(f" {field}={row[field]}" for field in fields)
            if "digest" not in base:
                problems.append(f"{label}: baseline row has no digest")
            elif row.get("digest") != base["digest"]:
                problems.append(
                    f"{label}: digest {row.get('digest')} "
                    f"differs from baseline {base['digest']} (routed answer changed)"
                )
            if time_field is None:
                continue
            allowed = base[time_field] * machine_scale * max_ratio
            if row[time_field] > allowed:
                problems.append(
                    f"{label}: median {row[time_field]:.4f}s "
                    f"exceeds {allowed:.4f}s "
                    f"(baseline {base[time_field]:.4f}s x machine "
                    f"{machine_scale:.2f} x ratio {max_ratio:.1f})"
                )
    for row in current.get("phases", {}).get("startup", ()):
        if row.get("scipy_loaded"):
            problems.append(
                f"startup {row['target']}: scipy loaded in a process "
                "that never solves an LP"
            )
    return problems


def run_perf_guard(
    baseline_path: str,
    current: Dict[str, Any],
    max_ratio: float = GUARD_MAX_RATIO,
    verbose: bool = True,
) -> bool:
    """Load the committed baseline and guard ``current`` against it."""
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    problems = check_perf_guard(current, baseline, max_ratio=max_ratio)
    if verbose:
        if problems:
            for problem in problems:
                print(f"perf-guard FAIL: {problem}")
        else:
            print(f"perf-guard OK vs {baseline_path}")
    return not problems
