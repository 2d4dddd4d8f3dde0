"""AiDT proxy — the Table I comparator.

Allegro's Auto-interactive Delay Tune is closed source; this proxy stands
in for it with the behaviour the paper attributes to it in its Table I
comparison (Sec. VI): a *gridded greedy* serpentine tuner that

* uses a **uniform amplitude** per segment (probed once, then fixed),
  snapped to a routing grid — no per-foot height optimisation;
* places patterns at **fixed grid slots** with constant width and pitch,
  skipping any slot whose URA is not completely free (no routing around
  obstacles, no pattern connection, no node feet);
* runs a **single pass** over the original segments;
* handles differential pairs as a **wide single-ended trace** built by
  sampled parallel merging (midline sampling) — the conventional scheme
  whose failure modes on decoupled pairs motivate MSDTW (Fig. 10); the
  restored pair gets no skew compensation.

Everything DRC-related (URA shrinking, clearances) is shared with the DP
engine so precision differences come from the strategy, not the rules.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..geometry import Frame, Point, Polyline, offset_polyline
from ..model import Board, DesignRules, DifferentialPair, MatchGroup, Trace
from .baseline import FixedTrackConfig, FixedTrackMeander
from .extension import ExtensionConfig, _PathState
from .pattern import Pattern, patterns_to_chain
from .router import GroupReport, MemberReport
from .scene import ClearanceScene


@dataclass
class AiDTConfig:
    """Proxy knobs."""

    #: Routing grid; ``None`` -> the segment discretization step.
    grid: Optional[float] = None
    #: Samples per sub-trace arc for the naive pair merge.
    merge_samples: int = 160
    tolerance: float = 1e-3


class _UniformAmplitudeMeander(FixedTrackMeander):
    """Fixed-track meander with a per-segment uniform amplitude.

    Probes the free height at each grid slot, fixes the amplitude to the
    *largest grid multiple available at every usable slot* (classic
    uniform-serpentine behaviour), then fills slots left to right.
    """

    def _meander_segment(self, path, index, width, need):
        seg = path.segment(index)
        dp_cfg = self._dp_config(seg, width, need)
        if dp_cfg is None:
            return None
        envs = self._environments(_PathState(path), index, width, dp_cfg)
        step = dp_cfg.step
        w_steps = max(dp_cfg.w_min, int(round(max(self.rules.dprotect, step) / step)))
        pitch = w_steps + dp_cfg.k_gap
        track = max(self.fixed.track_step or step, dp_cfg.h_min)

        # Probe pass: free height per slot and direction.
        slots: List[Tuple[int, int, float]] = []
        start = dp_cfg.k_protect
        i = start + w_steps
        while i < dp_cfg.n:
            right_stub = (dp_cfg.n - 1 - i) * step
            if i != dp_cfg.n - 1 and right_stub < dp_cfg.h_min - 1e-12:
                break
            il = i - w_steps
            for direction in (1, -1):
                h = envs[direction].max_pattern_height(
                    il * step,
                    i * step,
                    dp_cfg.g,
                    dp_cfg.h_init,
                    dp_cfg.h_min,
                    allow_enclosed=False,
                )
                h = math.floor(h / track) * track
                if h >= dp_cfg.h_min:
                    slots.append((il, i, h))
                    break  # first free direction wins (greedy)
            i += pitch
        if not slots:
            return None
        # Uniform amplitude: what every usable slot can hold.
        amplitude = min(h for _, _, h in slots)
        if amplitude < dp_cfg.h_min:
            return None

        patterns: List[Pattern] = []
        gain = 0.0
        for il, i, h in slots:
            remaining = need - gain
            if remaining <= self.fixed.tolerance:
                break
            height = min(amplitude, remaining / 2.0)
            height = math.floor(height / track) * track
            if height < dp_cfg.h_min:
                # The residue is too small for a legal pattern here; a
                # gridded tuner leaves it unmatched rather than overshoot.
                break
            if height > h:
                continue
            patterns.append(
                Pattern(
                    x_left=il * step,
                    x_right=i * step,
                    height=height,
                    direction=1,
                    left_index=il,
                    right_index=i,
                )
            )
            gain += patterns[-1].gain()
        if not patterns:
            return None
        frames = {d: Frame.from_segment(seg, d) for d in (1, -1)}
        chain = patterns_to_chain(seg, patterns, frames)
        return chain, len(patterns)


class AiDTProxy:
    """Group-level facade mirroring :class:`LengthMatchingRouter`."""

    def __init__(self, board: Board, config: Optional[AiDTConfig] = None):
        self.board = board
        self.config = config or AiDTConfig()
        # The board context every member clears, built on first use and
        # kept in sync as members get rerouted (as the router does).
        self._scene: Optional[ClearanceScene] = None

    def match_group(self, group: MatchGroup) -> GroupReport:
        target = group.resolved_target()
        report = GroupReport(group=group.name, target=target)
        started = time.perf_counter()
        for member in list(group.members):
            if isinstance(member, DifferentialPair):
                report.members.append(self._match_pair(member, target))
            else:
                report.members.append(self._match_trace(member, target))
        report.runtime = time.perf_counter() - started
        return report

    # -- members ---------------------------------------------------------------------

    def _meander(self, member_name: str, exclude, rules: DesignRules):
        if self._scene is None:
            self._scene = ClearanceScene.from_board(self.board)
        area = self.board.routable_areas.get(member_name, self.board.outline)
        return _UniformAmplitudeMeander(
            rules=rules,
            area=area,
            scene=self._scene,
            config=ExtensionConfig(),
            exclude=exclude,
            fixed=FixedTrackConfig(tolerance=self.config.tolerance),
        )

    def _match_trace(self, trace: Trace, target: float) -> MemberReport:
        started = time.perf_counter()
        rules = self.board.rules.rules_for_points(trace.path.points)
        meander = self._meander(trace.name, [trace.name], rules)
        result = meander.extend(trace, target)
        self.board.replace_trace(result.trace)
        self._scene.update_trace(result.trace)
        return MemberReport(
            name=trace.name,
            kind="trace",
            target=target,
            length_before=trace.length(),
            length_after=result.achieved,
            runtime=time.perf_counter() - started,
            iterations=result.iterations,
            patterns=result.patterns_applied,
        )

    def _match_pair(self, pair: DifferentialPair, target: float) -> MemberReport:
        """Wide-single-ended-trace scheme with sampled parallel merging."""
        started = time.perf_counter()
        median_path = self._naive_midline(pair)
        rules = self.board.rules.rules_for_points(median_path.points)
        median = Trace(
            name=f"{pair.name}__aidt_median",
            path=median_path,
            width=pair.virtual_width(),
            net=pair.name,
        )
        meander = self._meander(
            pair.name, [pair.name, pair.trace_p.name, pair.trace_n.name], rules
        )
        result = meander.extend(median, target)
        offset = pair.center_distance() / 2.0
        left = offset_polyline(result.trace.path, +offset)
        right = offset_polyline(result.trace.path, -offset)
        p_start = pair.trace_p.path.start
        if left.start.distance_to(p_start) <= right.start.distance_to(p_start):
            new_p, new_n = left, right
        else:
            new_p, new_n = right, left
        restored = pair.with_traces(
            pair.trace_p.with_path(new_p.simplified()),
            pair.trace_n.with_path(new_n.simplified()),
        )
        self.board.replace_pair(restored)
        self._scene.update_trace(restored.trace_p)
        self._scene.update_trace(restored.trace_n)
        return MemberReport(
            name=pair.name,
            kind="pair",
            target=target,
            length_before=pair.length(),
            length_after=restored.length(),
            runtime=time.perf_counter() - started,
            iterations=result.iterations,
            patterns=result.patterns_applied,
        )

    def _naive_midline(self, pair: DifferentialPair) -> Polyline:
        """Sampled parallel merge: midpoints between P and its nearest
        point on N.

        This is the conventional "bounded by its sub-traces" conversion;
        tiny patterns and short segments pull samples sideways (Fig. 10's
        failure mode), which is precisely the behaviour the proxy should
        exhibit.  The exhaustive nearest-segment search per sample is also
        where the proxy's differential-pair runtime goes.
        """
        samples = self.config.merge_samples

        def one_sided(src: Trace, dst: Trace) -> List[Point]:
            total = src.path.length()
            segs = dst.path.segments()
            out: List[Point] = []
            for k in range(samples + 1):
                p = src.path.point_at_arclength(total * k / samples)
                best = None
                best_d = math.inf
                for seg in segs:
                    q = seg.closest_point(p)
                    d = q.distance_to(p)
                    if d < best_d:
                        best_d = d
                        best = q
                out.append((p + best) / 2.0)
            return out

        # Merge from both sides: artefacts on either sub-trace drag the
        # result (that *is* the conventional scheme's failure mode).
        from_p = one_sided(pair.trace_p, pair.trace_n)
        from_n = one_sided(pair.trace_n, pair.trace_p)
        pts = [(a + b) / 2.0 for a, b in zip(from_p, from_n)]
        dedup = [pts[0]]
        for p in pts[1:]:
            if not p.almost_equals(dedup[-1], 1e-9):
                dedup.append(p)
        return Polyline(dedup).simplified()
