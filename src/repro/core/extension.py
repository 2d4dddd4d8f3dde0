"""Queue-driven trace extension — the paper's Alg. 1.

Segments of the trace wait in a FIFO queue.  Each pop discretizes the
segment, builds the shrink environments of both sides, runs the DP, trims
the restored patterns to the remaining requirement and splices them into
the trace.  The new component segments (pattern legs, tops and the stubs
between patterns) re-enter the queue, so later iterations meander on the
meanders until the target is met or no segment yields gain.

Environment assembly realises the paper's obstacle conversion: the
routable-area boundary, inflated obstacles, clearance hulls of other
traces and of the trace's own non-adjacent segments all become polygons
the URA may not intersect.  Segments adjacent to the one being extended
are trimmed by ``2g`` at the shared node (their URA would otherwise make
every node-foot pattern infeasible); a post-apply rollback check restores
the trace whenever that approximation would let a cross-structure
``d_gap`` conflict through.

The loop keeps persistent state across iterations: a
:class:`~repro.core.scene.ClearanceScene`, the extender's only board
context, answers the clearance-window queries (obstacles and other
traces near the segment or near a chevron candidate), a
:class:`_PathState` keeps stable segment handles plus incremental
per-segment length/bounds/rectangle caches, both shrink environments of a
segment come from one batched local-frame transform, and a per-segment
feasibility prune skips the DP on segments that provably cannot hold any
pattern.  ``tests/oracles/extension.py`` keeps the seed loop (full
environment rebuild per iteration, rounded-coordinate queue keys) as the
bit-exact equivalence oracle of ``tests/core/test_engine_equivalence.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..drc.checker import segments_parallel_conflict
from ..geometry import (
    Frame,
    Point,
    Polygon,
    Polyline,
    Segment,
    oriented_rectangle,
)
from ..model import DesignRules, Trace
from .dp import DPConfig, SegmentDP
from .pattern import Pattern, patterns_to_chain
from .scene import ClearanceScene
from .shrink import ShrinkEnvironment

#: A DP result or trimmed pattern set gaining no more than this is
#: treated as no gain at all.
MIN_EXTENSION_GAIN = 1e-6


@dataclass
class ExtensionConfig:
    """Tunables of the extension loop.

    ``ldisc``: discretization step; ``None`` derives it from the rules
    (``d_protect``, the smallest meaningful feature).  ``max_points`` caps
    the per-segment DP size; long segments are discretized coarser, which
    only costs optimality, never correctness.
    """

    ldisc: Optional[float] = None
    max_points: int = 96
    tolerance: float = 1e-3
    max_iterations: int = 400
    #: See DPConfig.allow_node_feet; the router disables this for median
    #: traces so pair restoration stays exact.
    allow_node_feet: bool = True
    #: Close residuals with two mirrored half-chevrons instead of one.
    #: A chevron's offset-skew is odd in its bend side, so a mirrored pair
    #: cancels it exactly — required for median traces, where any residual
    #: skew shifts the restored pair's length.
    mirrored_chevrons: bool = False
    #: See DPConfig.allow_plocal (ablation switch for connected patterns).
    allow_plocal: bool = True


@dataclass
class ExtensionResult:
    """What one trace extension achieved."""

    trace: Trace
    original: Trace
    target: float
    achieved: float
    iterations: int
    patterns_applied: int
    rollbacks: int
    #: Queue entries that addressed a segment no longer in the path
    #: (invalidated handles).  Organically 0 — the regression surface of
    #: the stale-key bugfix.
    stale_drops: int = 0

    @property
    def gain(self) -> float:
        return self.achieved - self.original.length()

    def error(self) -> float:
        """Relative matching error ``(l_target - l) / l_target``."""
        return (self.target - self.achieved) / self.target


class _PathState:
    """The extension loop's mutable-path bookkeeping.

    Instead of re-deriving segment objects, bounds and the trace length
    from the immutable :class:`Polyline` after every splice, this class
    keeps all of it as spliced parallel lists:

    * **handles** — each segment instance gets a stable integer handle;
      ``replace_segment`` splices shift positions, never handles.  The
      handle of the replaced segment is invalidated *at mutation time*,
      so a later pop cannot alias onto an unrelated segment the way two
      rounded-coordinate keys can collide (the stale-duplicate-key bug
      of the seed loop).
    * **lengths** — per-segment lengths spliced alongside, holding the
      exact floats ``Polyline.length()`` sums; ``length()`` re-adds them
      left-to-right so the total stays bit-identical to a full
      recompute.
    * **geometry caches** — per-segment bounds, degeneracy flags and
      (lazily) the ``oriented_rectangle`` corner arrays the environment
      assembly reuses every iteration.
    """

    __slots__ = (
        "path",
        "segments",
        "seg_lengths",
        "seg_bounds",
        "degenerate",
        "handle_pos",
        "pos_handle",
        "in_queue",
        "stale_pops",
        "stale_drops",
        "_rects",
    )

    def __init__(self, path: Polyline):
        self.path = path
        pts = path.points
        n = len(pts) - 1
        self.segments: List[Segment] = [path.segment(i) for i in range(n)]
        self.seg_lengths: List[float] = [
            pts[i].distance_to(pts[i + 1]) for i in range(n)
        ]
        self.seg_bounds = [s.bounds() for s in self.segments]
        self.degenerate = [s.is_degenerate() for s in self.segments]
        #: handle -> current segment position (None once invalidated).
        self.handle_pos: List[Optional[int]] = list(range(n))
        #: position -> handle of the segment currently there.
        self.pos_handle: List[int] = list(range(n))
        self.in_queue: Set[int] = set(range(n))
        self.stale_pops = 0
        self.stale_drops = 0
        # Lazy oriented_rectangle corner arrays at the engine's fixed
        # half-width g (constant within one extend() call).
        self._rects: List[Optional[object]] = [None] * n

    def length(self) -> float:
        """Trace length; bit-identical to ``self.path.length()``."""
        return sum(self.seg_lengths)

    def pop_handle(self, handle: int) -> Optional[int]:
        """Resolve a popped handle to its segment position (None = stale)."""
        self.in_queue.discard(handle)
        pos = self.handle_pos[handle]
        if pos is None:
            self.stale_pops += 1
        return pos

    def rect_pts(self, pos: int, half: float):
        """Cached corner array of ``oriented_rectangle(segment, half)``."""
        pts = self._rects[pos]
        if pts is None:
            poly = oriented_rectangle(self.segments[pos], half)
            pts = np.array([(p.x, p.y) for p in poly.points])
            self._rects[pos] = pts
        return pts

    def commit(
        self, index: int, chain: List[Point], candidate: Polyline
    ) -> List[int]:
        """Adopt a verified splice; returns the handles to enqueue.

        ``candidate`` must be ``self.path.replace_segment(index, chain)``
        (the caller builds it first for the rollback check).  Returned
        handles cover the chain's non-degenerate segments in order — the
        same segments ``chain_new_segments`` would have keyed.
        """
        pts = candidate.points
        k = len(chain) - 1
        new_segs = [candidate.segment(index + j) for j in range(k)]
        self.segments[index : index + 1] = new_segs
        self.seg_lengths[index : index + 1] = [
            pts[index + j].distance_to(pts[index + j + 1]) for j in range(k)
        ]
        self.seg_bounds[index : index + 1] = [s.bounds() for s in new_segs]
        self.degenerate[index : index + 1] = [s.is_degenerate() for s in new_segs]
        self._rects[index : index + 1] = [None] * k

        old_handle = self.pos_handle[index]
        self.handle_pos[old_handle] = None
        if old_handle in self.in_queue:
            # A queued entry just lost its segment: drop it now instead of
            # letting it alias onto other geometry at pop time.
            self.in_queue.discard(old_handle)
            self.stale_drops += 1
        new_handles: List[int] = []
        for j in range(k):
            handle = len(self.handle_pos)
            self.handle_pos.append(index + j)
            new_handles.append(handle)
        self.pos_handle[index : index + 1] = new_handles
        for pos in range(index + k, len(self.pos_handle)):
            self.handle_pos[self.pos_handle[pos]] = pos
        self.path = candidate

        enqueue = [
            new_handles[j]
            for j in range(k)
            if not chain[j].almost_equals(chain[j + 1], 1e-12)
        ]
        self.in_queue.update(enqueue)
        return enqueue


class TraceExtender:
    """Extends one trace inside its routable area.

    ``scene`` is the board context: the :class:`ClearanceScene` holding
    every obstacle and every other trace the meander must clear (``None``
    means an empty board).  The router shares one scene across the
    extenders of a whole board; ``exclude`` names the entries the member
    itself contributes (its trace, or its pair and sub-traces), which
    every query masks.  The extender never touches the other traces; the
    caller keeps the scene in sync as members get rerouted.
    """

    def __init__(
        self,
        rules: DesignRules,
        area: Polygon,
        scene: Optional[ClearanceScene] = None,
        config: Optional[ExtensionConfig] = None,
        exclude: Sequence[str] = (),
    ):
        self.rules = rules
        self.area = area
        self.config = config or ExtensionConfig()
        xmin, ymin, xmax, ymax = area.bounds()
        self._area_diag = math.hypot(xmax - xmin, ymax - ymin)
        self._area_pts = np.array([(p.x, p.y) for p in area.points])
        self._scene = scene if scene is not None else ClearanceScene()
        self._exclude: FrozenSet[str] = frozenset(exclude)

    # -- public API -----------------------------------------------------------

    def extend(self, trace: Trace, target: float) -> ExtensionResult:
        """Meander ``trace`` toward ``target`` length (Alg. 1).

        ``target=math.inf`` requests the extension *upper bound*: extend
        as much as the space allows (the Table II experiment).
        """
        cfg = self.config
        original = trace
        path = trace.path.simplified()
        if target < path.length() - cfg.tolerance:
            raise ValueError(
                f"target {target:.4f} below current length {path.length():.4f}"
            )
        state = _PathState(path)
        queue: deque = deque(range(len(state.segments)))
        ltrace = path.length()
        iterations = 0
        patterns_applied = 0
        rollbacks = 0

        h_min = max(self.rules.dprotect, 1e-6)
        while queue and iterations < cfg.max_iterations:
            need = target - ltrace
            if need <= cfg.tolerance:
                break
            if need < 2.0 * h_min:
                break  # below any legal pattern gain; chevron stage below
            handle = queue.popleft()
            index = state.pop_handle(handle)
            if index is None:
                continue
            iterations += 1
            obs.REGISTRY.inc("repro_extension_iterations_total")
            # One span per DP attempt, attributed with the candidate count
            # and stage timings (set inside _extend_segment via annotate)
            # and the DTW calls the iteration triggered.  ``live`` gates
            # the registry reads so the untraced hot loop never pays for
            # them.
            with obs.span("extension.iteration", iteration=iterations, need=need) as sp:
                dtw_before = (
                    obs.REGISTRY.value("repro_dtw_calls_total") if sp.live else 0.0
                )
                outcome = self._extend_segment(state, index, trace.width, need)
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
                candidate = state.path.replace_segment(index, chain)
                t_verify = perf_counter()
                conflict = self._conflicts(candidate, index, len(chain), trace.width)
                if sp.live:
                    sp.set(verify_s=perf_counter() - t_verify)
                if conflict:
                    rollbacks += 1
                    if sp.live:
                        sp.set(applied=False, gain=0.0, rollback=True)
                    continue
                queue.extend(state.commit(index, chain, candidate))
                new_length = state.length()
                if sp.live:
                    sp.set(
                        applied=True,
                        patterns=len(applied),
                        gain=new_length - ltrace,
                    )
                patterns_applied += len(applied)
                ltrace = new_length

        path = state.path
        path, ltrace = self._finish_chevron(path, target, ltrace, trace.width)
        return ExtensionResult(
            trace=trace.with_path(path),
            original=original,
            target=target,
            achieved=ltrace,
            iterations=iterations,
            patterns_applied=patterns_applied,
            rollbacks=rollbacks,
            stale_drops=state.stale_pops + state.stale_drops,
        )

    def extension_upper_bound(self, trace: Trace) -> ExtensionResult:
        """Extend as far as the space allows (Eq. 20's ``l_extended``)."""
        return self.extend(trace, math.inf)

    def extend_mitered(self, trace: Trace, target: float) -> ExtensionResult:
        """Extend to ``target`` with ``d_miter`` corner mitering applied.

        The paper's DRC miters every right/acute rotation by obtuse angles
        (Fig. 1).  Cutting a corner removes ``(2 - sqrt(2)) * d_miter`` of
        length, so mitering and matching interlock: this method meanders,
        miters, re-extends to recover the loss, and iterates.  Recovery
        residuals are usually sub-pattern and close via (obtuse) chevrons,
        so the loop converges in one or two rounds; freshly inserted
        right-angle patterns from a large recovery get mitered by the next
        round.
        """
        dmiter = self.rules.dmiter
        if dmiter <= 0:
            return self.extend(trace, target)
        # Meander with d_protect raised by two miter cuts: every created
        # segment can then afford a cut at both ends and still satisfy the
        # original d_protect.  The clearance scene carries over: its caches
        # depend on d_gap/d_obs and trace widths, not d_protect.
        from dataclasses import replace as _replace

        inner = TraceExtender(
            rules=_replace(self.rules, dprotect=self.rules.dprotect + 2.0 * dmiter),
            area=self.area,
            scene=self._scene,
            config=self.config,
            exclude=self._exclude,
        )
        result = inner.extend(trace, target)
        path = result.trace.path
        iterations = result.iterations
        patterns = result.patterns_applied
        rollbacks = result.rollbacks
        stale = result.stale_drops
        for _ in range(4):
            from .pattern import miter_pattern_corners

            mitered = Polyline(
                miter_pattern_corners(list(path.points), dmiter)
            ).simplified()
            path = mitered
            if target - path.length() <= self.config.tolerance:
                break
            again = inner.extend(trace.with_path(path), target)
            path = again.trace.path
            iterations += again.iterations
            patterns += again.patterns_applied
            rollbacks += again.rollbacks
            stale += again.stale_drops
        return ExtensionResult(
            trace=trace.with_path(path),
            original=result.original,
            target=target,
            achieved=path.length(),
            iterations=iterations,
            patterns_applied=patterns,
            rollbacks=rollbacks,
            stale_drops=stale,
        )

    def _finish_chevron(
        self, path: Polyline, target: float, ltrace: float, width: float
    ) -> Tuple[Polyline, float]:
        """Finishing stage: close a sub-pattern residual with a chevron.

        A residual below 2*h_min cannot be closed by any legal convex
        pattern (each gains at least 2*d_protect), but a shallow obtuse
        chevron adds an arbitrarily small length with all segments above
        d_protect — an any-direction structure the DRC admits.  This is
        what makes exact targets reachable.
        """
        cfg = self.config
        h_min = max(self.rules.dprotect, 1e-6)
        residual = target - ltrace
        with obs.span("extension.finish_chevron", residual=residual) as sp:
            if cfg.tolerance < residual < 2.0 * h_min and math.isfinite(residual):
                if cfg.mirrored_chevrons:
                    chevroned = self._insert_mirrored_chevrons(path, residual, width)
                else:
                    chevroned = self._insert_chevron(path, residual, width)
                sp.set(applied=chevroned is not None)
                if chevroned is not None:
                    path = chevroned
                    ltrace = path.length()
        return path, ltrace

    # -- per-segment machinery ---------------------------------------------------

    def _dp_config(self, seg: Segment, width: float, need: float) -> Optional[DPConfig]:
        cfg = self.config
        rules = self.rules
        length = seg.length()
        h_min = max(rules.dprotect, 1e-6)
        base = cfg.ldisc if cfg.ldisc is not None else max(h_min, rules.dgap / 4.0)
        n = int(math.ceil(length / base)) + 1
        n = min(max(n, 2), cfg.max_points)
        step = length / (n - 1)
        w_min = max(1, int(math.ceil((h_min - 1e-9) / step)))
        if n - 1 < w_min:
            return None  # segment too short to hold any pattern
        gap_eff = rules.dgap + width
        k_gap = max(1, int(math.ceil((gap_eff - 1e-9) / step)))
        k_protect = max(1, int(math.ceil((h_min - 1e-9) / step)))
        g = gap_eff / 2.0
        h_init = min(need / 2.0, self._area_diag)
        if h_init < h_min:
            return None
        return DPConfig(
            step=step,
            n=n,
            k_gap=k_gap,
            k_protect=k_protect,
            w_min=w_min,
            h_min=h_min,
            h_init=h_init,
            g=g,
            allow_node_feet=cfg.allow_node_feet,
            allow_plocal=cfg.allow_plocal,
        )

    # -- environment assembly ------------------------------------------------------

    def _environments(
        self, state: _PathState, index: int, width: float, dp_cfg: DPConfig
    ) -> Dict[int, ShrinkEnvironment]:
        """Local-frame shrink environments for both pattern directions.

        Collects the world polygons the URA may not intersect — the area,
        windowed obstacles and other-trace hulls (served from the scene's
        index), then the windowed self hulls — as raw coordinate blocks,
        maps them through the segment frame in one vectorized pass (the
        same IEEE expressions :meth:`Frame.to_local` evaluates per point),
        and mirrors the -1 direction by negating y — exactly what the
        mirrored frame does.
        """
        seg = state.segments[index]
        g = dp_cfg.g
        reach = dp_cfg.h_init + g
        xmin, ymin, xmax, ymax = state.seg_bounds[index]
        window = (xmin - reach, ymin - reach, xmax + reach, ymax + reach)

        chunks: List[object] = [self._area_pts]
        sizes: List[int] = [len(self._area_pts)]
        inflation = max(0.0, self.rules.dobs + width / 2.0 - g)
        self._scene.collect_window(
            chunks, sizes, window, self.rules.dgap, inflation, self._exclude
        )
        self._collect_self_window(state, index, g, window, chunks, sizes)

        pts = np.concatenate(chunks, axis=0)
        sizes_arr = np.asarray(sizes)
        d = seg.direction()
        dx = pts[:, 0] - seg.a.x
        dy = pts[:, 1] - seg.a.y
        lx = dx * d.x + dy * d.y
        ly = -dx * d.y + dy * d.x
        return {
            1: ShrinkEnvironment(lx, ly, sizes_arr),
            -1: ShrinkEnvironment(lx, -ly, sizes_arr),
        }

    def _collect_self_window(
        self,
        state: _PathState,
        index: int,
        g: float,
        window,
        chunks: List[object],
        sizes: List[int],
    ) -> None:
        """Clearance hulls of the trace's own other segments.

        Neighbours sharing a node with the extended segment are trimmed by
        ``2g`` at the shared end; shorter neighbours are dropped entirely
        (the rollback check covers what the approximation misses).
        """
        n_segs = len(state.segments)
        for j in range(n_segs):
            if j == index:
                continue
            if state.degenerate[j]:
                continue
            if j == index - 1 or j == index + 1:
                seg_j = _trimmed(
                    state.segments[j], at_end=(j == index - 1), amount=2.0 * g
                )
                if seg_j is None:
                    continue
                b = seg_j.bounds()
                if (
                    b[0] - g <= window[2]
                    and window[0] <= b[2] + g
                    and b[1] - g <= window[3]
                    and window[1] <= b[3] + g
                ):
                    poly = oriented_rectangle(seg_j, g)
                    chunks.append(np.array([(p.x, p.y) for p in poly.points]))
                    sizes.append(4)
                continue
            b = state.seg_bounds[j]
            if (
                b[0] - g <= window[2]
                and window[0] <= b[2] + g
                and b[1] - g <= window[3]
                and window[1] <= b[3] + g
            ):
                chunks.append(state.rect_pts(j, g))
                sizes.append(4)

    def _extend_segment(
        self, state: _PathState, index: int, width: float, need: float
    ) -> Optional[Tuple[List[Point], List[Pattern]]]:
        """One DP attempt on segment ``index``: the chain to splice in and
        its patterns, or ``None`` when the segment yields no gain.

        Starts with the DP's whole-segment feasibility prune
        (:meth:`SegmentDP.feasible`): when no foot pair clears ``h_min``
        under the per-foot height bounds, the DP provably gains nothing
        and is skipped.
        """
        seg = state.segments[index]
        dp_cfg = self._dp_config(seg, width, need)
        if dp_cfg is None:
            return None
        obs.annotate(candidates=dp_cfg.n, segment_length=seg.length())
        t0 = perf_counter()
        envs = self._environments(state, index, width, dp_cfg)
        dp = SegmentDP(dp_cfg, envs)
        t1 = perf_counter()
        if not dp.feasible():
            obs.annotate(
                env_query_s=t1 - t0, dp_s=0.0, pruned=True, shrinks=0, scalar_shrinks=0
            )
            obs.REGISTRY.inc("repro_extension_pruned_total")
            return None
        result = dp.run()
        t2 = perf_counter()
        obs.annotate(
            env_query_s=t1 - t0,
            dp_s=t2 - t1,
            pruned=False,
            shrinks=dp.shrinks,
            scalar_shrinks=dp.scalar_shrinks,
        )
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

    def _trim_to_need(
        self,
        patterns: List[Pattern],
        need: float,
        envs: Dict[int, ShrinkEnvironment],
        dp_cfg: DPConfig,
    ) -> List[Pattern]:
        """Cut the restored patterns down so the run never overshoots and
        never strands the trace in the dead zone.

        Two regimes:

        * gain exceeds the need — trim to exactly ``need``;
        * gain falls short by less than ``2*h_min`` — trim further to
          leave a residual of exactly ``2*h_min``: a residual below that
          can never be closed (every pattern gains at least ``2*h_min``),
          so a slightly larger under-delivery that a later minimal pattern
          *can* close strictly dominates.

        Heights are re-validated through the shrinker (a smaller height is
        not automatically valid — Sec. IV-B); when no height trim lands,
        rightmost patterns are dropped (always safe: every spacing
        constraint on the remaining patterns is one-sided to their left).
        """
        tol = self.config.tolerance
        patterns = self._trim_total(list(patterns), need, tol, envs, dp_cfg)
        residual = need - sum(p.gain() for p in patterns)
        if tol < residual < 2.0 * dp_cfg.h_min:
            patterns = self._trim_total(
                patterns, need - 2.0 * dp_cfg.h_min, tol, envs, dp_cfg
            )
        if sum(p.gain() for p in patterns) <= MIN_EXTENSION_GAIN:
            return []
        return patterns

    def _trim_total(
        self,
        patterns: List[Pattern],
        target_total: float,
        tol: float,
        envs: Dict[int, ShrinkEnvironment],
        dp_cfg: DPConfig,
    ) -> List[Pattern]:
        """Reduce the pattern set's gain to ``target_total``.

        Order of moves, chosen to land exactly on the target whenever the
        geometry allows:

        1. drop whole patterns from the right while the remainder still
           covers the target (drops from the right never break spacing:
           every constraint on the survivors is one-sided to their left);
        2. fine-trim the tallest pattern when the excess fits within its
           headroom — this is the move that produces exact matches;
        3. otherwise clamp the tallest pattern to ``h_min`` (its full
           headroom is, by the case split, at most the excess) and loop.
        """
        def total() -> float:
            return sum(p.gain() for p in patterns)

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

    # -- chevron finishing -------------------------------------------------------------

    def _insert_mirrored_chevrons(
        self, path: Polyline, extra: float, width: float
    ) -> Optional[Polyline]:
        """Two identical chevrons on opposite sides, each adding half.

        Identical shapes on mirrored sides contribute equal and opposite
        offset-skew, so the pair restoration sees none.  Falls back to a
        single chevron when only one host fits.
        """
        first = self._insert_chevron(path, extra / 2.0, width, force_side=1.0)
        if first is None:
            return self._insert_chevron(path, extra, width)
        second = self._insert_chevron(first, extra / 2.0, width, force_side=-1.0)
        if second is None:
            return self._insert_chevron(path, extra, width)
        return second

    def _insert_chevron(
        self,
        path: Polyline,
        extra: float,
        width: float,
        force_side: Optional[float] = None,
    ) -> Optional[Polyline]:
        """Close a sub-pattern residual with a shallow triangular detour.

        Over base ``b`` the chevron's two legs measure ``(b + extra)/2``
        each — above ``d_protect`` for any base past ``2 d_protect`` — and
        the apex deviates by ``sqrt(extra^2 + 2 b extra)/2``.  Hosts are
        tried longest-first, both bend directions, and every candidate is
        validated against obstacles, other traces, the routable area and
        the trace itself before acceptance.
        """
        h_min = max(self.rules.dprotect, 1e-6)
        base = max(2.0 * h_min, 4.0 * extra)
        height = math.sqrt(extra * extra + 2.0 * base * extra) / 2.0
        segments = path.segments()
        order = sorted(range(len(segments)), key=lambda k: -segments[k].length())
        for idx in order:
            seg = segments[idx]
            if seg.length() < base + 2.0 * h_min:
                continue
            mid = seg.midpoint()
            d = seg.direction()
            a = mid - d * (base / 2.0)
            b = mid + d * (base / 2.0)
            sides = (force_side,) if force_side is not None else (1.0, -1.0)
            for side in sides:
                apex = mid + d.perpendicular() * (side * height)
                chain = [seg.a, a, apex, b, seg.b]
                if not self._chevron_clear(chain, width):
                    continue
                candidate = path.replace_segment(idx, chain)
                if self._conflicts(candidate, idx, len(chain), width):
                    continue
                return candidate
        return None

    def _chevron_clear(self, chain: List[Point], width: float) -> bool:
        """Obstacle/other-trace/area clearance for a chevron chain.

        Only what the scene's box masks put within clearance reach of the
        chain's bounding box gets the exact tests; box separation never
        exceeds true distance, so the verdict is the whole-board one.
        Zero-length trace rows stay in: a point still needs clearance.
        """
        segs = [
            Segment(chain[i], chain[i + 1])
            for i in range(len(chain) - 1)
            if not chain[i].almost_equals(chain[i + 1], 1e-12)
        ]
        for p in chain:
            if not self.area.contains_point(p):
                return False
        xs = [p.x for p in chain]
        ys = [p.y for p in chain]
        box = (min(xs), min(ys), max(xs), max(ys))
        scene = self._scene
        dgap = self.rules.dgap
        required = self.rules.dobs + width / 2.0
        for idx in scene._obstacle_hits(_padded(box, required + 1e-9)):
            polygon = scene.obstacles[idx].polygon
            for s in segs:
                if polygon.distance_to_segment(s) < required - 1e-9:
                    return False
        # Each row's mask pad adds (w_o + dgap)/2 to this window's.
        window = _padded(box, (dgap + width) / 2.0 + 1e-9)
        for ei, si, _ in scene._segment_hits(window, dgap, self._exclude, True):
            other = scene._entries[ei]
            required = dgap + (width + other.width) / 2.0
            os = other.segments[si]
            for s in segs:
                if s.distance_to_segment(os) < required - 1e-9:
                    return False
        return True

    # -- rollback guard ---------------------------------------------------------------

    def _conflicts(
        self, candidate: Polyline, index: int, chain_len: int, width: float
    ) -> bool:
        """Cross-structure d_gap conflicts introduced by the new chain.

        Checks the freshly inserted segments against path segments outside
        the splice neighbourhood under the parallel-overlap rule, plus
        containment of the new nodes in the routable area.  This is the
        guard for the trimmed-neighbour URA approximation.
        """
        new_lo = index
        new_hi = index + chain_len - 2  # segment indices covered by the chain
        segs = candidate.segments()
        required = self.rules.dgap + width
        for k in range(new_lo, min(new_hi + 1, len(segs))):
            sk = segs[k]
            for j in range(len(segs)):
                if new_lo - 1 <= j <= new_hi + 1:
                    continue
                if segments_parallel_conflict(sk, segs[j], required):
                    return True
        chain_points = candidate.points[new_lo : new_hi + 2]
        for p in chain_points:
            if not self.area.contains_point(p):
                return True
        return False


# -- small helpers ---------------------------------------------------------------------


def _padded(box, pad: float):
    """``box`` grown by ``pad`` on every side."""
    return (box[0] - pad, box[1] - pad, box[2] + pad, box[3] + pad)


def _trimmed(seg: Segment, at_end: bool, amount: float) -> Optional[Segment]:
    """Segment shortened by ``amount`` at one end; None when too short."""
    length = seg.length()
    if length <= amount + 1e-9:
        return None
    d = seg.direction()
    if at_end:
        return Segment(seg.a, seg.b - d * amount)
    return Segment(seg.a + d * amount, seg.b)
