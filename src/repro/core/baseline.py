"""The "without DP" ablation baseline — Table II's comparator.

The paper describes it as "based on fixed routing tracks and constant
pattern width".  Concretely:

* pattern feet sit on a fixed grid along each original segment (constant
  pattern width, constant pitch — no per-foot optimisation);
* pattern heights snap down to fixed tracks (multiples of the step);
* obstacles are never routed around: any polygon inside a candidate URA
  forces the height below it (``allow_enclosed=False`` in the shrinker),
  and there is no plocal/node-foot flexibility;
* one pass over the original segments only — no meander-on-meander.

Everything else (URA construction, clearance semantics) is shared with
the DP engine so the comparison isolates exactly the DP's contribution,
as an ablation must.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..geometry import Frame, Polygon
from ..model import DesignRules, Trace
from .extension import ExtensionConfig, ExtensionResult, TraceExtender, _PathState
from .pattern import Pattern, patterns_to_chain
from .scene import ClearanceScene


@dataclass
class FixedTrackConfig:
    """Knobs of the fixed-track meander.

    ``pattern_width``: constant foot-to-foot span; ``None`` uses
    ``d_protect`` (the minimum the DP would use).  ``track_step``: heights
    snap down to multiples of this; ``None`` uses the discretization step.
    """

    pattern_width: Optional[float] = None
    track_step: Optional[float] = None
    tolerance: float = 1e-3


class FixedTrackMeander(TraceExtender):
    """Fixed-track, constant-width meandering (no DP).

    Reuses the :class:`TraceExtender` environment machinery (same URAs,
    same clearances) but replaces the per-segment optimisation with the
    rigid scheme above.
    """

    def __init__(
        self,
        rules: DesignRules,
        area: Polygon,
        scene: Optional[ClearanceScene] = None,
        config: Optional[ExtensionConfig] = None,
        exclude: Sequence[str] = (),
        fixed: Optional[FixedTrackConfig] = None,
    ):
        super().__init__(rules, area, scene, config, exclude)
        self.fixed = fixed or FixedTrackConfig()

    def extend(self, trace: Trace, target: float) -> ExtensionResult:
        """Single pass over the original segments, left to right."""
        original = trace
        path = trace.path.simplified()
        ltrace = path.length()
        patterns_applied = 0
        iterations = 0
        index = 0
        while index < len(path.points) - 1:
            need = target - ltrace
            if need <= self.fixed.tolerance:
                break
            iterations += 1
            outcome = self._meander_segment(path, index, trace.width, need)
            if outcome is None:
                index += 1
                continue
            chain, count = outcome
            new_path = path.replace_segment(index, chain)
            # Skip past the inserted chain: single pass, no re-meandering.
            index += len(chain) - 1
            path = new_path
            patterns_applied += count
            ltrace = path.length()
        return ExtensionResult(
            trace=trace.with_path(path),
            original=original,
            target=target,
            achieved=ltrace,
            iterations=iterations,
            patterns_applied=patterns_applied,
            rollbacks=0,
        )

    def extension_upper_bound(self, trace: Trace) -> ExtensionResult:
        return self.extend(trace, math.inf)

    # -- fixed-track meandering of one segment -----------------------------------------

    def _meander_segment(self, path, index, width, need):
        seg = path.segment(index)
        dp_cfg = self._dp_config(seg, width, need)
        if dp_cfg is None:
            return None
        envs = self._environments(_PathState(path), index, width, dp_cfg)
        step = dp_cfg.step
        w_fixed = self.fixed.pattern_width or max(
            self.rules.dprotect, dp_cfg.w_min * step
        )
        w_steps = max(dp_cfg.w_min, int(round(w_fixed / step)))
        pitch = w_steps + dp_cfg.k_gap
        # Fixed tracks can never sit below the minimum useful height, or
        # the first track itself would violate d_protect.
        track = max(self.fixed.track_step or step, dp_cfg.h_min)

        patterns: List[Pattern] = []
        gain = 0.0
        # Fixed feet: the first foot keeps d_protect from the segment start,
        # then the grid marches right at constant pitch.
        start = dp_cfg.k_protect
        i = start + w_steps
        while i < dp_cfg.n:
            # Right stub rule mirrors Alg. 1 line 7.
            right_stub = (dp_cfg.n - 1 - i) * step
            if i != dp_cfg.n - 1 and right_stub < dp_cfg.h_min - 1e-12:
                break
            il = i - w_steps
            remaining = need - gain
            if remaining <= self.fixed.tolerance:
                break
            h_cap = min(remaining / 2.0, dp_cfg.h_init)
            best: Optional[Pattern] = None
            for direction in (1, -1):
                h = envs[direction].max_pattern_height(
                    il * step,
                    i * step,
                    dp_cfg.g,
                    h_cap,
                    dp_cfg.h_min,
                    allow_enclosed=False,
                )
                # Snap down to the fixed tracks.
                h = math.floor(h / track) * track
                if h < dp_cfg.h_min:
                    continue
                if best is None or h > best.height:
                    best = Pattern(
                        x_left=il * step,
                        x_right=i * step,
                        height=h,
                        direction=direction,
                        left_index=il,
                        right_index=i,
                    )
            if best is not None:
                patterns.append(best)
                gain += best.gain()
            i += pitch
        if not patterns:
            return None
        frames = {d: Frame.from_segment(seg, d) for d in (1, -1)}
        chain = patterns_to_chain(seg, patterns, frames)
        return chain, len(patterns)
