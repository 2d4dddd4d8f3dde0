"""The seed extension loop (test oracle): Alg. 1 with a full rebuild.

The production :class:`repro.core.extension.TraceExtender` keeps state
across iterations (clearance scene, segment handles, vectorized shrink
environments).  This module keeps the loop it was derived from: every
iteration rebuilds the clearance environment by an exhaustive scan of
obstacles, other traces and the trace's own segments into
:class:`~repro.geometry.Polygon` objects, shrinks against the
polygon-based :class:`oracles.shrink.ShrinkEnvironment`, runs the
table-driven DP of :mod:`oracles.dp`, and addresses queue entries by
rounded-coordinate segment keys.

:class:`ReferenceTraceExtender` overrides :meth:`extend` (and therefore
:meth:`extension_upper_bound`) with that loop, and the chevron clearance
check with :func:`chevron_clear_scan`, the scan over every obstacle and
every segment of every other trace it was before the scene served it.
Everything else both loops share — DP sizing, trimming, chevron
placement and the rollback check — comes from production.  Both scans
read their context from the scene the extender is handed: its obstacles
and its non-excluded registered traces, in registration order
(:func:`scene_context`).  ``tests/core/test_engine_equivalence.py``
routes the scenario corpus through both and compares every routed bit.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.core.dp import DPConfig
from repro.core.extension import (
    MIN_EXTENSION_GAIN,
    ExtensionResult,
    TraceExtender,
    _trimmed,
)
from repro.core.pattern import Pattern, chain_new_segments, patterns_to_chain
from repro.core.scene import ClearanceScene
from repro.geometry import Frame, Point, Polygon, Polyline, Segment, oriented_rectangle
from repro.model import Obstacle, Trace

from .dp import SegmentDP
from .shrink import ShrinkEnvironment

_KEY_DIGITS = 6


def _segment_key(seg: Segment) -> Tuple[float, float, float, float]:
    return (
        round(seg.a.x, _KEY_DIGITS),
        round(seg.a.y, _KEY_DIGITS),
        round(seg.b.x, _KEY_DIGITS),
        round(seg.b.y, _KEY_DIGITS),
    )


class _Registered:
    """A scene entry read back through the ``Trace`` surface the scans use."""

    def __init__(self, entry):
        self.name = entry.name
        self.width = entry.width
        self._segments = entry.segments

    def segments(self) -> List[Segment]:
        return self._segments


def scene_context(
    scene: ClearanceScene, exclude: FrozenSet[str]
) -> Tuple[List[Obstacle], List[_Registered]]:
    """The obstacles and the non-excluded registered traces of ``scene``.

    A trace is excluded when its name or its owning pair's name is in
    ``exclude``; the rest keep registration order.
    """
    traces = [
        _Registered(entry)
        for entry in scene._entries
        if not (
            entry.name in exclude
            or (entry.owner is not None and entry.owner in exclude)
        )
    ]
    return list(scene.obstacles), traces


def context_scene(obstacles, traces) -> ClearanceScene:
    """A scene over explicit obstacle and trace lists, registered in order."""
    scene = ClearanceScene(obstacles)
    for trace in traces:
        scene.add_trace(trace)
    return scene


def context_polygons(
    obstacles, traces, window, dgap: float, inflation: float
) -> List[Polygon]:
    """The exhaustive scan's context polygons for ``window``.

    Obstacles hitting the window inflated by ``inflation`` (board order),
    then the clearance rectangle of every non-degenerate segment of every
    trace whose rectangle box hits the window (list order) — what
    :meth:`ClearanceScene.collect_window` must reproduce exactly.
    """
    polys: List[Polygon] = []
    for obstacle in obstacles:
        if _bbox_hits(obstacle.bounds(), window):
            polys.append(obstacle.inflated(inflation))
    for other in traces:
        half = (other.width + dgap) / 2.0
        for oseg in other.segments():
            if oseg.is_degenerate():
                continue
            if _bbox_hits(_inflate_bounds(oseg.bounds(), half), window):
                polys.append(oriented_rectangle(oseg, half))
    return polys


def chevron_clear_scan(extender: TraceExtender, chain: List[Point], width: float) -> bool:
    """Obstacle/other-trace/area clearance for a chevron chain.

    The exhaustive check ``TraceExtender._chevron_clear`` ran before it
    queried the scene: every obstacle and every segment of every other
    trace, tested exactly.
    """
    obstacles, other_traces = scene_context(extender._scene, extender._exclude)
    segs = [
        Segment(chain[i], chain[i + 1])
        for i in range(len(chain) - 1)
        if not chain[i].almost_equals(chain[i + 1], 1e-12)
    ]
    for p in chain:
        if not extender.area.contains_point(p):
            return False
    for obstacle in obstacles:
        required = extender.rules.dobs + width / 2.0
        for s in segs:
            if obstacle.polygon.distance_to_segment(s) < required - 1e-9:
                return False
    for other in other_traces:
        required = extender.rules.dgap + (width + other.width) / 2.0
        for os in other.segments():
            for s in segs:
                if s.distance_to_segment(os) < required - 1e-9:
                    return False
    return True


class ReferenceTraceExtender(TraceExtender):
    """:class:`TraceExtender` running the seed loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Segment-key -> index lookup for _locate, rebuilt whenever the
        # path object changes (paths are immutable, so identity suffices).
        self._seg_index_path: Optional[Polyline] = None
        self._seg_index: Dict[Tuple[float, float, float, float], int] = {}

    def extend(self, trace: Trace, target: float) -> ExtensionResult:
        return self._extend_reference(trace, target)

    def _chevron_clear(self, chain: List[Point], width: float) -> bool:
        return chevron_clear_scan(self, chain, width)

    def _extend_reference(self, trace: Trace, target: float) -> ExtensionResult:
        cfg = self.config
        original = trace
        path = trace.path.simplified()
        if target < path.length() - cfg.tolerance:
            raise ValueError(
                f"target {target:.4f} below current length {path.length():.4f}"
            )
        queue: deque = deque(_segment_key(s) for s in path.segments())
        ltrace = path.length()
        iterations = 0
        patterns_applied = 0
        rollbacks = 0
        stale = 0

        h_min = max(self.rules.dprotect, 1e-6)
        while queue and iterations < cfg.max_iterations:
            need = target - ltrace
            if need <= cfg.tolerance:
                break
            if need < 2.0 * h_min:
                break  # below any legal pattern gain; chevron stage below
            key = queue.popleft()
            index = self._locate(path, key)
            if index is None:
                stale += 1
                continue
            iterations += 1
            obs.REGISTRY.inc("repro_extension_iterations_total")
            # The ROADMAP-requested per-iteration breakdown: one span per
            # DP attempt, attributed with candidate count (set inside
            # _extend_world_segment via annotate) and the DTW calls the
            # iteration triggered.  ``live`` gates the registry reads so
            # the untraced hot loop never pays for them.
            with obs.span("extension.iteration", iteration=iterations, need=need) as sp:
                dtw_before = (
                    obs.REGISTRY.value("repro_dtw_calls_total") if sp.live else 0.0
                )
                outcome = self._extend_world_segment(path, index, trace.width, need)
                if sp.live:
                    sp.set(
                        dtw_calls=int(
                            obs.REGISTRY.value("repro_dtw_calls_total") - dtw_before
                        )
                    )
                if outcome is None:
                    if sp.live:
                        sp.set(applied=False, gain=0.0)
                    continue
                chain, applied = outcome
                candidate = path.replace_segment(index, chain)
                t_verify = perf_counter()
                conflict = self._conflicts(candidate, index, len(chain), trace.width)
                if sp.live:
                    sp.set(verify_s=perf_counter() - t_verify)
                if conflict:
                    rollbacks += 1
                    if sp.live:
                        sp.set(applied=False, gain=0.0, rollback=True)
                    continue
                new_length = candidate.length()
                if sp.live:
                    sp.set(
                        applied=True,
                        patterns=len(applied),
                        gain=new_length - ltrace,
                    )
                path = candidate
                patterns_applied += len(applied)
                ltrace = new_length
                for seg in chain_new_segments(chain):
                    queue.append(_segment_key(seg))

        path, ltrace = self._finish_chevron(path, target, ltrace, trace.width)
        return ExtensionResult(
            trace=trace.with_path(path),
            original=original,
            target=target,
            achieved=ltrace,
            iterations=iterations,
            patterns_applied=patterns_applied,
            rollbacks=rollbacks,
            stale_drops=stale,
        )

    def _locate(self, path: Polyline, key) -> Optional[int]:
        """Index of the segment with ``key`` in ``path``, or ``None``.

        Queue entries outlive path edits, so lookups are frequent and
        usually miss; a dict rebuilt once per path change replaces the
        old linear rescan.  ``setdefault`` keeps the first occurrence,
        matching the scan's behaviour on (degenerate) duplicate keys.
        """
        if path is not self._seg_index_path:
            index: Dict[Tuple[float, float, float, float], int] = {}
            for i in range(len(path.points) - 1):
                index.setdefault(_segment_key(path.segment(i)), i)
            self._seg_index = index
            self._seg_index_path = path
        return self._seg_index.get(key)

    def _world_environments(
        self, path: Polyline, index: int, width: float, dp_cfg: DPConfig
    ) -> Dict[int, ShrinkEnvironment]:
        """Local-frame shrink environments for both pattern directions."""
        seg = path.segment(index)
        world_polys = self._world_polygons(path, index, width, dp_cfg)
        envs: Dict[int, ShrinkEnvironment] = {}
        for direction in (1, -1):
            frame = Frame.from_segment(seg, direction)
            envs[direction] = ShrinkEnvironment(
                [frame.polygon_to_local(p) for p in world_polys]
            )
        return envs

    def _world_polygons(
        self, path: Polyline, index: int, width: float, dp_cfg: DPConfig
    ) -> List[Polygon]:
        seg = path.segment(index)
        g = dp_cfg.g
        reach = dp_cfg.h_init + g
        xmin, ymin, xmax, ymax = seg.bounds()
        window = (xmin - reach, ymin - reach, xmax + reach, ymax + reach)

        obstacles, other_traces = scene_context(self._scene, self._exclude)
        inflation = max(0.0, self.rules.dobs + width / 2.0 - g)
        polys: List[Polygon] = [self.area]
        polys.extend(
            context_polygons(
                obstacles, other_traces, window, self.rules.dgap, inflation
            )
        )
        polys.extend(self._self_polygons(path, index, g, window))
        return polys

    def _self_polygons(
        self, path: Polyline, index: int, g: float, window
    ) -> List[Polygon]:
        """Clearance hulls of the trace's own other segments.

        Neighbours sharing a node with the extended segment are trimmed by
        ``2g`` at the shared end; shorter neighbours are dropped entirely
        (the rollback check covers what the approximation misses).
        """
        out: List[Polygon] = []
        n_segs = len(path.points) - 1
        for j in range(n_segs):
            if j == index:
                continue
            seg_j = path.segment(j)
            if seg_j.is_degenerate():
                continue
            if j == index - 1:
                seg_j = _trimmed(seg_j, at_end=True, amount=2.0 * g)
            elif j == index + 1:
                seg_j = _trimmed(seg_j, at_end=False, amount=2.0 * g)
            if seg_j is None:
                continue
            if _bbox_hits(_inflate_bounds(seg_j.bounds(), g), window):
                out.append(oriented_rectangle(seg_j, g))
        return out

    def _extend_world_segment(
        self, path: Polyline, index: int, width: float, need: float
    ) -> Optional[Tuple[List[Point], List[Pattern]]]:
        seg = path.segment(index)
        dp_cfg = self._dp_config(seg, width, need)
        if dp_cfg is None:
            return None
        # DP size = candidate count of this iteration's span (no-op when
        # tracing is off).
        obs.annotate(candidates=dp_cfg.n, segment_length=seg.length())
        t0 = perf_counter()
        envs = self._world_environments(path, index, width, dp_cfg)
        t1 = perf_counter()
        dp = SegmentDP(dp_cfg, envs)
        result = dp.run()
        t2 = perf_counter()
        obs.annotate(env_query_s=t1 - t0, dp_s=t2 - t1, pruned=False)
        if result.gain <= MIN_EXTENSION_GAIN or not result.patterns:
            return None
        patterns = self._trim_to_need(result.patterns, need, envs, dp_cfg)
        if not patterns:
            return None
        frames = {d: Frame.from_segment(seg, d) for d in (1, -1)}
        chain = patterns_to_chain(seg, patterns, frames)
        obs.annotate(trim_s=perf_counter() - t2)
        if len(chain) < 3:
            return None
        return chain, patterns


def _bbox_hits(b1, b2) -> bool:
    return b1[0] <= b2[2] and b2[0] <= b1[2] and b1[1] <= b2[3] and b2[1] <= b1[3]


def _inflate_bounds(b, margin: float):
    return (b[0] - margin, b[1] - margin, b[2] + margin, b[3] + margin)


def trim_total_reference(patterns, target_total, tol, envs, dp_cfg):
    """The pattern trim as it re-summed every pattern's gain per step:
    production's :meth:`TraceExtender._trim_total` keeps a gains list
    and must return the same patterns."""

    def total() -> float:
        return sum(p.gain() for p in patterns)

    patterns = list(patterns)
    while patterns and total() - patterns[-1].gain() >= target_total - tol:
        patterns.pop()
    guard = 4 * len(patterns) + 8
    while patterns and total() > target_total + tol and guard > 0:
        guard -= 1
        excess = total() - target_total
        idx = max(range(len(patterns)), key=lambda k: patterns[k].height)
        p = patterns[idx]
        headroom = 2.0 * (p.height - dp_cfg.h_min)
        if headroom <= 1e-12:
            patterns.pop()
            continue
        if excess <= headroom:
            target_h = p.height - excess / 2.0
        else:
            target_h = dp_cfg.h_min
        h_valid = envs[p.direction].max_pattern_height(
            p.x_left, p.x_right, dp_cfg.g, target_h, dp_cfg.h_min
        )
        if h_valid >= dp_cfg.h_min and h_valid < p.height - 1e-12:
            patterns[idx] = p.with_height(h_valid)
        else:
            patterns.pop()
    return patterns
