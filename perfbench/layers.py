"""The traced run: per-layer metrics from wrapper spans.

Two passes over the same units, each against a fresh cache and an
in-process daemon: pass A untraced, pass B traced.  Pass B's spans give
the per-layer metrics; the ratio of the two passes' calibrated
``route_s.p50`` is the tracing overhead.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, List, Tuple

import harness
import stats
import tracer
from workloads import Workload, generate_boards

DECODE_SPANS = {"io.decode", "io.json_loads", "io.board_from_dict"}
ENCODE_SPANS = {"io.encode", "io.json_dumps", "io.run_result_to_dict", "io.board_to_dict"}

#: Per-layer metric -> (unit, the end-to-end metrics it should move).
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "core.finish_s": ("s/board", ("route_s.p50", "members_per_s")),
    "geometry.seg_distance_calls": ("count/board", ("route_s.p50", "members_per_s")),
    "core.dp_s": ("s/board", ("route_s.p50",)),
    "core.dp_calls": ("count/board", ("route_s.p50",)),
    "core.scene_updates": ("count/board", ("route_s.p50",)),
    "core.scene_query_s": ("s/board", ("route_s.p50",)),
    "core.member_ms.p50": ("ms", ("route_s.p50", "matched_ratio")),
    "core.member_ms.p99": ("ms", ("route_s.p50", "matched_ratio")),
    "core.iterations": ("count/board", ("route_s.p50", "matched_ratio")),
    "core.applied_ratio": ("ratio", ("route_s.p50", "matched_ratio")),
    "core.pruned_ratio": ("ratio", ("route_s.p50", "matched_ratio")),
    "core.stale_drops": ("count/board", ("route_s.p50", "matched_ratio")),
    "region.assign_s": ("s/board", ("route_s.p50", "peak_rss_mb")),
    "region.decompose_s": ("s/board", ("route_s.p50", "peak_rss_mb")),
    "region.lp_s": ("s/board", ("route_s.p50", "peak_rss_mb")),
    "region.cells": ("count/board", ("route_s.p50", "peak_rss_mb")),
    "drc.check_s": ("s/board", ("route_s.p50", "ok_ratio")),
    "drc.violations": ("count/board", ("route_s.p50", "ok_ratio")),
    "io.decode_ms.p50": ("ms", ("hit_ms.p50", "route_s.p50")),
    "io.encode_ms.p50": ("ms", ("hit_ms.p50", "route_s.p50")),
    "cache.key_ms.p50": ("ms", ("hit_ms.p50", "requests_per_s")),
    "cache.get_ms.p50": ("ms", ("hit_ms.p50", "requests_per_s")),
    "cache.hit_ratio": ("ratio", ("hit_ms.p50", "requests_per_s")),
    "cache.put_ms.p50": ("ms", ("miss_ms.p50",)),
    "server.app_ms.p50": ("ms", ("hit_ms.p50",)),
    "server.transport_ms.p50": ("ms", ("hit_ms.p50",)),
    "trace.overhead_ratio": ("ratio", ()),
    "trace.unattributed_ratio": ("ratio", ()),
}


def _p50(values: List[float]) -> float:
    return stats.percentile(values, 50.0) if values else 0.0


def _tail(values: List[float]) -> Tuple[float, Any]:
    q = stats.tail_percentile(len(values))
    if q is None:
        return (max(values) if values else 0.0), None
    return stats.percentile(values, q), q


def per_layer(run: harness.Run, untraced: harness.Run) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics of traced ``run``; ``untraced`` gives the base
    of the overhead ratio."""
    rec = run.recorder
    f = run.op_factor
    route_kind = "route" if run.workload.mode == "route" else "miss"
    route_ops = run.timed_ops(route_kind)
    boards = max(len(route_ops), 1)

    by_name: Dict[str, List[tracer.Span]] = defaultdict(list)
    for span in rec.spans:
        by_name[span.name].append(span)

    def total(name: str) -> float:
        return sum(s.duration * f(s.op) for s in by_name[name]) / boards

    def calls(name: str) -> float:
        return len(by_name[name]) / boards

    def per_call_ms(name: str) -> List[float]:
        return [s.duration * f(s.op) * 1e3 for s in by_name[name]]

    def per_op_ms(names) -> List[float]:
        sums: Dict[int, float] = defaultdict(float)
        for name in names:
            for s in by_name[name]:
                sums[s.op] += s.self_time * f(s.op)
        return [v * 1e3 for v in sums.values()]

    iterations = [s for s in rec.obs_spans if s["name"] == "extension.iteration"]
    members = [
        s["duration_s"] * f(s["op"]) * 1e3
        for s in rec.obs_spans
        if s["name"] in ("router.match_trace", "router.match_pair")
    ]
    gets = by_name["cache.get"]

    app_by_op: Dict[int, float] = defaultdict(float)
    for s in by_name["server.app"]:
        app_by_op[s.op] += s.duration
    transport = [
        (run.ops[i]["raw"] - app_by_op[i]) * f(i) * 1e3 for i in run.timed_ops("hit", "miss")
    ]

    layer_self: Dict[str, float] = defaultdict(float)
    covered: Dict[int, float] = defaultdict(float)
    for span in rec.spans:
        layer_self[span.layer] += span.self_time * f(span.op)
        covered[span.op] += span.self_time
    # Wall time of each cold route: the in-process miss, or the request.
    wall = {i: run.ops[i]["miss" if route_kind == "route" else "raw"] for i in route_ops}
    unattributed = {i: wall[i] - covered[i] for i in route_ops}

    traced_p50 = _p50(run.route_samples())
    untraced_p50 = _p50(untraced.route_samples())
    member_tail, member_q = _tail(members)

    metrics = {
        "core.finish_s": total("core.extend")
        - sum(s["duration_s"] * f(s["op"]) for s in iterations) / boards,
        "geometry.seg_distance_calls": rec.counts["geometry.seg_distance"] / boards,
        "core.dp_s": total("core.dp"),
        "core.dp_calls": calls("core.dp"),
        "core.scene_updates": calls("core.scene_update"),
        "core.scene_query_s": total("core.scene_query"),
        "core.member_ms.p50": _p50(members),
        "core.member_ms.p99": member_tail,
        "core.iterations": len(iterations) / boards,
        "core.applied_ratio": stats.ratio(
            sum(1 for s in iterations if s["attrs"].get("applied")), len(iterations)
        ),
        "core.pruned_ratio": stats.ratio(
            sum(1 for s in iterations if s["attrs"].get("pruned")), len(iterations)
        ),
        "core.stale_drops": sum(s.info or 0 for s in by_name["core.extend"]) / boards,
        "region.assign_s": total("region.assign"),
        "region.decompose_s": total("region.decompose"),
        "region.lp_s": total("region.lp"),
        "region.cells": sum(s.info or 0 for s in by_name["region.decompose"]) / boards,
        "drc.check_s": total("drc.check"),
        "drc.violations": sum(s.info or 0 for s in by_name["drc.check"]) / boards,
        "io.decode_ms.p50": _p50(per_op_ms(DECODE_SPANS)),
        "io.encode_ms.p50": _p50(per_op_ms(ENCODE_SPANS)),
        "cache.key_ms.p50": _p50(per_call_ms("cache.key")),
        "cache.get_ms.p50": _p50(per_call_ms("cache.get")),
        "cache.hit_ratio": stats.ratio(sum(1 for s in gets if s.info), len(gets)),
        "cache.put_ms.p50": _p50(per_call_ms("cache.put")),
        "server.app_ms.p50": _p50(per_call_ms("server.app")),
        "server.transport_ms.p50": _p50(transport),
        "trace.overhead_ratio": stats.ratio(traced_p50, untraced_p50),
        "trace.unattributed_ratio": stats.ratio(sum(unattributed.values()), sum(wall.values())),
    }
    metrics = {name: (value, PER_LAYER[name][0]) for name, value in metrics.items()}
    diagnostics = {
        "boards": len(route_ops),
        "layer_self_s_per_board": {
            layer: layer_self.get(layer, 0.0) / boards for layer in tracer.LAYERS
        },
        "unattributed_s_per_board": sum(t * f(i) for i, t in unattributed.items()) / boards,
        "core.member_ms.p99_percentile": member_q,
        "samples": {
            "members": len(members),
            "iterations": len(iterations),
            "cache.get": len(gets),
            "requests": len(transport),
        },
        "moves": {name: list(moves) for name, (_, moves) in PER_LAYER.items()},
    }
    return metrics, diagnostics


def traced(root: str, workdir: str, workload: Workload, seed: int, seconds: float):
    """The traced invocation: pass A untraced for half the time, pass B
    traced over the same units."""
    from repro.cache import ResultCache

    boards = generate_boards(workload, seed)
    runs = []
    for name in ("untraced", "traced"):
        cache_dir = harness.fresh_dir(workdir, f"cache-{name}")
        server = harness.InProcessServer(cache_dir)
        run = harness.Run(workload, seed, boards)
        if name == "traced":
            run.recorder = tracer.Recorder()
            tracer.install(run.recorder, harness)
        try:
            groups = run.units(ResultCache(cache_dir), server.client)
            if name == "untraced":
                ran = run.measure(groups, seconds / 2.0)
            else:
                run.measure(groups, None, max_groups=ran)
        finally:
            if run.recorder is not None:
                run.recorder.uninstall()
            server.stop()
        runs.append(run)
    untraced_run, traced_run = runs
    metrics, diagnostics = per_layer(traced_run, untraced_run)
    trace_dir = os.path.join(root, ".perfbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{workload.name}-s{seed}.json")
    traced_run.recorder.dump(trace_path)
    diagnostics["spans_file"] = os.path.relpath(trace_path, root)
    diagnostics["kernels"] = {"untraced": untraced_run.kernels, "traced": traced_run.kernels}
    diagnostics["routed_boards"] = traced_run.routed_sha
    diagnostics["failures"] = untraced_run.failures + traced_run.failures
    diagnostics["checks"] = {
        name: {kind: {"attempted": a, "failed": f} for kind, (a, f) in run.checks.items()}
        for name, run in (("untraced", untraced_run), ("traced", traced_run))
    }
    return runs, metrics, diagnostics
