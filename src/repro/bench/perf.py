"""The perf-regression bench — ``python -m repro bench --perf``.

Times the library's hot paths over the synthetic bench designs at
several size scales and writes ``BENCH_perf.json``: per-phase medians
over repeats plus machine info.  The file is the performance trajectory's
data point for this commit: CI uploads it as an artifact and guards
each run against the committed copy (:func:`check_perf_guard`).

Phases
------
``dtw``        :func:`~repro.dtw.dtw_match` on jittered parallel node
               sequences of growing length, with a sha256 ``digest`` of
               the matching that the guard compares against the
               committed baseline;
``drc``        :func:`~repro.drc.check_board` on a routed Table I board
               replicated to several sizes;
``extension``  the Alg. 1 extension loop on the Table II via-field
               design, with a sha256 ``digest`` of every routed float
               that the guard compares against the committed baseline;
``session``    end-to-end :class:`~repro.api.RoutingSession` runs on
               Table I cases;
``region``     Sec. III region assignment on ``tiled``/``mixed_groups``
               boards with their routable areas cleared: the grid
               decomposition alone and the whole assignment (decompose
               plus LP), with a sha256 ``digest`` of the assignment that
               the guard compares against the committed baseline;
``server``     cold-vs-warm ``POST /route`` latency through a live
               :mod:`repro.server` daemon — the warm request is served
               from the content-addressed cache without running any
               pipeline stage;
``server_faults``  warm-request p50/p99 latency under a seeded 1 %
               ``http_503`` fault plan (:mod:`repro.faults`) against a
               retrying client, next to the clean baseline — the
               retry-overhead trajectory;
``batch``      ``run_many`` serial vs. ``workers=2`` on two boards
               (full mode only — wall-clock only helps with >1 CPU, but
               the number records the process-pool overhead either way).

``scenarios`` (opt-in via ``bench --perf --scenarios``) adds the
scenario-backed scaling curve: end-to-end sessions over ``tiled``
scenario boards of growing tile count, so throughput scaling is
measured on generated workloads instead of the fixed paper designs.

``--quick`` shrinks every phase to its smallest scale with one repeat —
the CI smoke configuration.  ``--profile`` (:func:`run_profile`) writes
a cProfile top-25 cumulative table for the match hot path next to the
baseline, and :func:`run_perf_guard` (``bench --perf --guard``) fails a
run whose extension median regresses more than :data:`GUARD_MAX_RATIO`
against the committed ``BENCH_perf.json`` after normalizing machine
speed by the frozen calibration kernel (:mod:`.calibration`).
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


def _fmt_speedup(value: Optional[float]) -> str:
    """Speedups are ``None`` when the fast time underflowed the clock."""
    return "n/a" if value is None else f"{value:.1f}x"


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
        def run_once(dgap: float = dgap):
            board, trace = make_table2_design(dgap)
            extender = _table2_extender(board, trace, use_dp=True)
            return extender.extension_upper_bound(trace)

        times, result = _time_all(run_once, repeats)
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


#: Per-iteration rows kept in the breakdown (a deep run can iterate
#: hundreds of times; the quantiles summarise the tail).
MAX_BREAKDOWN_ITERATIONS = 40


def _attr_ms(span: Dict[str, Any], key: str) -> Optional[float]:
    value = (span.get("attrs") or {}).get(key)
    return None if value is None else value * 1e3


def _phase_extension_breakdown(
    dgap: float, repeats: int, extension_phase_s: Optional[float] = None
) -> List[Dict[str, Any]]:
    """Where extension time goes, read from a :mod:`repro.obs` trace.

    The same Table II workload as the ``extension`` phase, run with
    tracing disabled (timing the instrumented-but-off fast path) and
    under a collector.  The trace's ``extension.iteration`` spans
    become per-iteration rows (duration, candidate count, DTW calls,
    applied/gain); the overhead row is the acceptance number, and the
    no-op span microbench pins the per-call cost of the disabled path.

    Measurement discipline: the baseline, disabled, and traced samples
    are *interleaved in one loop* and the overheads compare *minima*.
    The min of N repeats is the stable estimator of a CPU-bound
    workload's true cost (everything above it is scheduler/allocator
    noise — the rationale behind ``timeit``), and interleaving keeps
    all three streams pinned to the same machine state; a ratio against
    a number measured minutes earlier in a different phase wobbles far
    more than the few-percent effect being bounded, which is why the
    ``extension`` phase's own best sample rides along only as the
    cross-phase reference (``extension_phase_s``).
    """
    from .. import obs

    def run_once():
        board, trace = make_table2_design(dgap)
        extender = _table2_extender(board, trace, use_dp=True)
        return extender.extension_upper_bound(trace)

    baseline_times: List[float] = []
    disabled_times: List[float] = []
    traced_times: List[float] = []
    doc: Dict[str, Any] = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_once()
        baseline_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_once()
        disabled_times.append(time.perf_counter() - t0)
        with obs.trace(f"bench extension dgap={dgap}") as collected:
            t0 = time.perf_counter()
            run_once()
            traced_times.append(time.perf_counter() - t0)
        doc = collected.to_dict()
    baseline_s = min(baseline_times)
    disabled_s = min(disabled_times)
    traced_s = min(traced_times)

    iter_spans = [
        span for span in doc.get("spans", ())
        if span["name"] == "extension.iteration"
    ]
    durations = [span["duration_s"] for span in iter_spans]
    per_iteration = [
        {
            "iteration": (span.get("attrs") or {}).get("iteration"),
            "duration_ms": span["duration_s"] * 1e3,
            "candidates": (span.get("attrs") or {}).get("candidates"),
            "dtw_calls": (span.get("attrs") or {}).get("dtw_calls"),
            "applied": (span.get("attrs") or {}).get("applied"),
            "gain": (span.get("attrs") or {}).get("gain"),
            "env_query_ms": _attr_ms(span, "env_query_s"),
            "dp_ms": _attr_ms(span, "dp_s"),
            "trim_ms": _attr_ms(span, "trim_s"),
            "verify_ms": _attr_ms(span, "verify_s"),
            "pruned": (span.get("attrs") or {}).get("pruned"),
            "shrinks": (span.get("attrs") or {}).get("shrinks"),
        }
        for span in iter_spans[:MAX_BREAKDOWN_ITERATIONS]
    ]

    # Where the iteration time goes, summed over every iteration of the
    # traced run: environment window queries vs. the DP itself vs. the
    # trim/chain build vs. post-apply verification.  ``other_s`` is what
    # the four annotated stages don't cover (queue work, span overhead,
    # length accounting); ``pruned_iterations`` counts iterations the
    # upper-bound gate skipped before running the DP.
    def _stage_total(key: str) -> float:
        return sum(
            (span.get("attrs") or {}).get(key) or 0.0 for span in iter_spans
        )

    stages = {
        key: _stage_total(key)
        for key in ("env_query_s", "dp_s", "trim_s", "verify_s")
    }
    stages["other_s"] = max(0.0, sum(durations) - sum(stages.values()))
    stages["pruned_iterations"] = sum(
        1 for span in iter_spans if (span.get("attrs") or {}).get("pruned")
    )

    # The fast-path microbench: a span call with no collector active.
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.span("bench.noop"):
            pass
    noop_span_us = (time.perf_counter() - t0) / n * 1e6

    return [
        {
            "dgap": dgap,
            "iterations": len(iter_spans),
            "iterations_recorded": len(per_iteration),
            "stages": stages,
            "per_iteration": per_iteration,
            "iteration_ms": {
                "p50": _percentile(durations, 50) * 1e3 if durations else None,
                "p90": _percentile(durations, 90) * 1e3 if durations else None,
                "p99": _percentile(durations, 99) * 1e3 if durations else None,
                "max": max(durations) * 1e3 if durations else None,
            },
            "overhead": {
                "baseline_s": baseline_s,
                "disabled_s": disabled_s,
                "traced_s": traced_s,
                "extension_phase_s": extension_phase_s,
                "disabled_overhead": (
                    disabled_s / baseline_s if baseline_s else None
                ),
                "tracing_overhead": (
                    traced_s / disabled_s if disabled_s > 0 else None
                ),
                "noop_span_us": noop_span_us,
            },
        }
    ]


def _phase_session(cases: Sequence[int], repeats: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for case in cases:
        times: List[float] = []
        last = None
        for _ in range(repeats):
            board, _ = make_table1_case(case)
            session = RoutingSession(board, config=SessionConfig.preset("bench"))
            t0 = time.perf_counter()
            last = session.run()
            times.append(time.perf_counter() - t0)
        rows.append(
            {
                "case": case,
                "run_s": _median(times),
                "ok": bool(last.ok()),
                "max_error": last.max_error(),
                "stages": {r.name: r.runtime for r in last.stages},
            }
        )
    return rows


def _region_board(tiles: int) -> Board:
    """``tiled``/``mixed_groups`` seed 0 without routable areas, the way
    an imported board reaches the region stage."""
    from ..scenarios import generate

    board = generate(
        "tiled", seed=0, params={"tiles": tiles, "base": "mixed_groups"}
    )
    board.routable_areas.clear()
    return board


def _assignment_digest(assignment: Any) -> str:
    """sha256 of an assignment: every trace's cells and every LP value."""
    return _sha256_lines(
        [f"{name}:{cells}" for name, cells in sorted(assignment.cells.items())]
        + [
            f"{ridx},{name},{amount!r}"
            for (ridx, name), amount in sorted(assignment.usage.items())
        ]
    )


def _phase_region(tiles: Sequence[int], repeats: int) -> List[Dict[str, Any]]:
    """The region stage's two layers, timed apart per board size.

    ``decompose_s`` is the grid decomposition alone, ``assign_s`` the
    whole :func:`~repro.region.assign_regions` (decomposition, LP build
    and solve, integerisation); ``cells``, ``variables`` and ``rows``
    are read from the ``region.decompose``/``region.lp`` spans of one
    traced call.
    """
    from .. import obs
    from ..region import assign_regions, decompose

    config = SessionConfig.preset("default")
    rows: List[Dict[str, Any]] = []
    for k in tiles:
        board = _region_board(k)
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

        decompose_s, _ = _time_repeats(
            lambda: decompose(board, traces, cell, config.region.reach), repeats
        )
        assign_s, assignment = _time_repeats(assign, repeats)
        with obs.trace(f"bench region tiles={k}") as collected:
            assign()
        attrs = {
            span["name"]: span.get("attrs") or {}
            for span in collected.to_dict()["spans"]
        }
        rows.append(
            {
                "tiles": k,
                "traces": len(traces),
                "cells": attrs["region.decompose"]["cells"],
                "variables": attrs["region.lp"]["variables"],
                "rows": attrs["region.lp"]["rows"],
                "decompose_s": decompose_s,
                "assign_s": assign_s,
                "digest": _assignment_digest(assignment),
            }
        )
    return rows


def _phase_scenarios(tiles: Sequence[int], repeats: int) -> List[Dict[str, Any]]:
    """End-to-end sessions on generated ``tiled`` boards of growing size.

    Every row regenerates its board from ``(tiled, seed=0, tiles=k)`` —
    the provenance in BENCH_perf.json is enough to rebuild the exact
    workload.
    """
    from ..scenarios import generate

    rows: List[Dict[str, Any]] = []
    for k in tiles:
        times: List[float] = []
        last = None
        board = None
        for _ in range(repeats):
            board = generate("tiled", seed=0, params={"tiles": k})
            session = RoutingSession(board, config=SessionConfig.preset("fast"))
            t0 = time.perf_counter()
            last = session.run()
            times.append(time.perf_counter() - t0)
        rows.append(
            {
                "tiles": k,
                "members": sum(len(g.members) for g in last.groups),
                "routed_segments": sum(len(t.segments()) for t in board.traces),
                "run_s": _median(times),
                "ok": bool(last.ok()),
                "provenance": last.provenance,
            }
        )
    return rows


def _phase_server(tiles: int, repeats: int) -> List[Dict[str, Any]]:
    """Cold-vs-warm request latency through the routing service.

    One daemon, one generated ``tiled`` board, measured end-to-end over
    real HTTP: ``cold_s`` routes the board (the cache is cleared before
    every cold repeat), ``warm_s`` repeats the identical ``POST /route``
    and is served from the content-addressed cache without executing any
    pipeline stage.  ``speedup`` is the acceptance number — the whole
    point of ``repro serve`` — and ``cache_hit`` certifies the warm
    responses actually came from the cache.
    """
    import tempfile

    from ..io import board_to_dict
    from ..scenarios import generate
    from ..server import make_http_server
    from ..server.client import ServerClient

    board_dict = board_to_dict(
        generate("tiled", seed=0, params={"tiles": tiles})
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        server = make_http_server(cache_dir, port=0)
        started = False
        try:
            server.start_background()
            started = True
            client = ServerClient(server.url)

            def cold():
                server.app.cache.clear()
                return client.route(board_dict, preset="fast")

            cold_s, cold_resp = _time_repeats(cold, repeats)
            # Re-prime after the last clear, outside the timed region.
            client.route(board_dict, preset="fast")
            warm_s, warm_resp = _time_repeats(
                lambda: client.route(board_dict, preset="fast"), repeats
            )
            stats = client.stats().payload["cache"]
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
            "board_bytes": len(json.dumps(board_dict)),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s if warm_s > 0 else None,
            "cold_status": cold_resp.payload.get("status"),
            "cache_hit": warm_resp.payload.get("cache") == "hit",
            "identical": cold_resp.payload.get("result")
            == warm_resp.payload.get("result"),
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"],
        }
    ]


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of ``samples``."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def _phase_server_faults(
    tiles: int, samples: int, fault_rate: float = 0.01
) -> List[Dict[str, Any]]:
    """Warm-request tail latency under a seeded 1 % fault plan.

    The same daemon/board as the ``server`` phase, but every request
    runs under a :mod:`repro.faults` plan injecting ``http_503``
    overload answers at ``fault_rate`` probability (seeded — the same
    fire sequence every bench run), against a client doing the
    production retry policy (capped backoff + jitter, seeded rng).
    ``p50_ms``/``p99_ms`` are the acceptance numbers: the median shows
    retries cost nothing on the 99 % of clean requests, the p99 shows
    the worst retried request stays bounded by the backoff cap.  The
    clean-baseline percentiles ride along for the overhead comparison.
    """
    import tempfile

    from .. import faults
    from ..io import board_to_dict
    from ..scenarios import generate
    from ..server import make_http_server
    from ..server.client import ServerClient

    board_dict = board_to_dict(
        generate("tiled", seed=0, params={"tiles": tiles})
    )
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

    def warm_latencies(client: ServerClient) -> List[float]:
        times: List[float] = []
        for _ in range(samples):
            t0 = time.perf_counter()
            resp = client.route(board_dict, preset="fast")
            times.append(time.perf_counter() - t0)
            assert resp.ok  # every request must survive the plan
        return times

    with tempfile.TemporaryDirectory(prefix="repro-bench-chaos-") as cache_dir:
        server = make_http_server(cache_dir, port=0)
        started = False
        try:
            server.start_background()
            started = True
            prime = ServerClient(server.url)
            prime.route(board_dict, preset="fast")  # populate the cache

            clean_client = ServerClient(server.url, rng=random.Random(0))
            clean = warm_latencies(clean_client)

            faulted_client = ServerClient(
                server.url,
                retries=3,
                backoff_base=0.05,
                backoff_cap=0.5,
                rng=random.Random(0),
            )
            with faults.activate(plan):
                faulted = warm_latencies(faulted_client)
            fires = plan.fire_counts().get("transport.response:http_503", 0)
        finally:
            if started:
                server.shutdown()
            else:
                server._server.server_close()
    return [
        {
            "tiles": tiles,
            "samples": samples,
            "fault_rate": fault_rate,
            "clean_p50_ms": _percentile(clean, 50) * 1e3,
            "clean_p99_ms": _percentile(clean, 99) * 1e3,
            "p50_ms": _percentile(faulted, 50) * 1e3,
            "p99_ms": _percentile(faulted, 99) * 1e3,
            "faults_fired": fires,
            "retries": faulted_client.retry_count,
            "all_ok": True,
        }
    ]


def _phase_batch(repeats: int) -> List[Dict[str, Any]]:
    cases = (1, 2)

    def serial():
        boards = [make_table1_case(c)[0] for c in cases]
        return RoutingSession.run_many(boards, config="bench")

    def parallel():
        boards = [make_table1_case(c)[0] for c in cases]
        return RoutingSession.run_many(boards, config="bench", workers=2)

    serial_s, serial_results = _time_repeats(serial, repeats)
    parallel_s, parallel_results = _time_repeats(parallel, repeats)
    # run_many is fault-isolated: a crash would come back as a result,
    # not an exception, so the bench must check it timed real routing
    # work and not a batch of captured crashes.
    statuses = [r.status for r in serial_results + parallel_results]
    return [
        {
            "boards": len(cases),
            "serial_s": serial_s,
            "workers2_s": parallel_s,
            "all_ok": all(s == "ok" for s in statuses),
            "cpu_count": os.cpu_count(),
        }
    ]


# -- entry point ------------------------------------------------------------------------


def run_perf(
    quick: bool = False,
    out: Optional[str] = "BENCH_perf.json",
    verbose: bool = True,
    scenarios: bool = False,
) -> Dict[str, Any]:
    """Run every perf phase and (optionally) write the JSON baseline.

    ``quick`` is the CI smoke configuration: smallest scales, one repeat.
    ``scenarios`` adds the scenario-backed scaling curve (generated
    ``tiled`` boards of growing size).  Returns the payload; ``out=None``
    skips writing.
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

    run_phase("dtw", _phase_dtw, [64] if quick else [64, 128, 256], repeats)
    run_phase("drc", _phase_drc, [1] if quick else [1, 2, 4], repeats)
    # Both d_gaps even in quick mode: the guard checks every committed
    # digest, and an upper-bound run is cheap next to the other phases.
    run_phase("extension", _phase_extension, [2.5, 4.0], repeats)
    run_phase("session", _phase_session, [1] if quick else [1, 5], repeats)
    run_phase("region", _phase_region, [1] if quick else [6, 12], repeats)
    run_phase("server", _phase_server, 8 if quick else 48, repeats)
    run_phase(
        "server_faults",
        _phase_server_faults,
        8 if quick else 48,
        samples=100 if quick else 400,
    )
    run_phase(
        "extension_breakdown",
        _phase_extension_breakdown,
        4.0,
        # The overhead bound compares minima; more repeats tighten the
        # min without moving it, so the few-percent bound stops flaking.
        repeats if quick else max(repeats, 5),
        extension_phase_s=next(
            (r["min_s"] for r in phases["extension"] if r["dgap"] == 4.0),
            None,
        ),
    )
    if scenarios:
        run_phase(
            "scenarios", _phase_scenarios, [1, 2] if quick else [1, 2, 4, 8], repeats
        )
    if not quick:
        run_phase("batch", _phase_batch, repeats=1)
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
            over = row["overhead"]
            tracing_x = over["tracing_overhead"]
            stages = row["stages"]
            print(
                f"breakdown dgap={row['dgap']:.1f}  iters={row['iterations']}"
                f"  p50 {row['iteration_ms']['p50']:.2f} ms"
                f"  p99 {row['iteration_ms']['p99']:.2f} ms"
                f"  env {stages['env_query_s']*1e3:.1f} ms"
                f"  dp {stages['dp_s']*1e3:.1f} ms"
                f"  trim {stages['trim_s']*1e3:.1f} ms"
                f"  verify {stages['verify_s']*1e3:.1f} ms"
                f"  pruned={stages['pruned_iterations']}"
                f"  tracing x{tracing_x:.3f}"
                f"  noop-span {over['noop_span_us']:.2f} us"
            )
        for row in phases["session"]:
            print(
                f"session   case={row['case']}  {row['run_s']:.3f} s"
                f"  ok={row['ok']}"
            )
        for row in phases["region"]:
            print(
                f"region    tiles={row['tiles']:>2}  cells={row['cells']:>5}"
                f"  variables={row['variables']:>5}"
                f"  decompose {row['decompose_s']*1e3:.1f} ms"
                f"  assign {row['assign_s']*1e3:.1f} ms"
                f"  digest {row['digest'][:12]}"
            )
        for row in phases["server"]:
            print(
                f"server    tiles={row['tiles']}  cold {row['cold_s']:.3f} s"
                f"  warm {row['warm_s']*1e3:.2f} ms"
                f"  ({_fmt_speedup(row['speedup'])}, cache_hit={row['cache_hit']})"
            )
        for row in phases["server_faults"]:
            print(
                f"faults    rate={row['fault_rate']:.0%}"
                f"  p50 {row['p50_ms']:.2f} ms (clean {row['clean_p50_ms']:.2f})"
                f"  p99 {row['p99_ms']:.2f} ms (clean {row['clean_p99_ms']:.2f})"
                f"  fired={row['faults_fired']} retries={row['retries']}"
            )
        for row in phases.get("scenarios", ()):
            print(
                f"scenarios tiles={row['tiles']}  members={row['members']:>3}"
                f"  segments={row['routed_segments']:>5}"
                f"  {row['run_s']:.3f} s  ok={row['ok']}"
            )
        for row in phases.get("batch", ()):
            print(
                f"batch     serial {row['serial_s']:.3f} s"
                f"  workers=2 {row['workers2_s']:.3f} s"
                f"  all_ok={row['all_ok']}"
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


#: Rows whose routed-answer ``digest`` must equal the baseline's, by key.
_DIGEST_PHASES = (("dtw", "nodes"), ("extension", "dgap"), ("region", "tiles"))


def check_perf_guard(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_ratio: float = GUARD_MAX_RATIO,
) -> List[str]:
    """Compare a fresh perf run against the committed baseline.

    Returns a list of problems (empty = pass).  The guard times the
    extension phase — the paper's core loop — on the dgap rows the two
    payloads share: the median must not regress.  On every dtw, extension
    and region row the payloads share, the ``digest`` must equal the
    baseline row's (code that got fast by changing the answer must fail
    here, not just in the test suite).  A baseline row without a digest
    fails too: it cannot vouch for the answer.

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

    if not current.get("phases", {}).get("extension"):
        problems.append("current payload has no extension phase")
    for phase, key in _DIGEST_PHASES:
        base_rows = {
            row[key]: row for row in baseline.get("phases", {}).get(phase, ())
        }
        for row in current.get("phases", {}).get(phase, ()):
            base = base_rows.get(row[key])
            if base is None:
                continue
            label = f"{phase} {key}={row[key]}"
            if "digest" not in base:
                problems.append(f"{label}: baseline row has no digest")
            elif row.get("digest") != base["digest"]:
                problems.append(
                    f"{label}: digest {row.get('digest')} "
                    f"differs from baseline {base['digest']} (routed answer changed)"
                )
            if phase != "extension":
                continue
            allowed = base["extend_s"] * machine_scale * max_ratio
            if row["extend_s"] > allowed:
                problems.append(
                    f"{label}: median {row['extend_s']:.4f}s "
                    f"exceeds {allowed:.4f}s "
                    f"(baseline {base['extend_s']:.4f}s x machine "
                    f"{machine_scale:.2f} x ratio {max_ratio:.1f})"
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
