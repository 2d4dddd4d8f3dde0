"""The DP over pattern feet — Sec. IV-A/IV-C.

The segment is discretized into ``n`` points; ``dp[i][dir]`` is the best
total gain using the first ``i`` points with the last inserted pattern on
side ``dir``.  Transitions try every pattern width ``w`` ending at point
``i`` and connect it to the best admissible predecessor state:

* ``p_gap``     same side, feet at least ``d_gap`` (plus trace width) apart;
* ``p_protect`` opposite side, feet at least ``d_protect`` apart;
* ``p_local``   opposite side, feet *connected* (Fig. 3(c)) — admissible
  only when the predecessor state really ends with a pattern foot exactly
  there (the "extra condition" of Fig. 4, tracked per state);
* the segment node (Fig. 3(d)) — a foot placed on the segment's endpoint
  needs no spacing at all.

Ties prefer states that end with a pattern at the current point (they keep
``p_local`` transitions available — Fig. 4 — and connected patterns create
capacity for later meander-on-meander iterations — Fig. 5).

Each state stores ``transit[i][dir] = (i', dir', w')`` (Eq. 14) so the
chosen patterns are restored by backtracking in O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .pattern import Pattern
from .shrink import TOUCH_EPS, ShrinkEnvironment

#: Height comparisons happen in board units; gains below this are noise.
GAIN_EPS = 1e-9

#: How far a positive exact height can exceed the per-foot bounds.  One
#: ``TOUCH_EPS`` is the column bound's slack (a node less than
#: ``TOUCH_EPS`` below ``h_ob`` does not shrink it); the second covers the
#: few ulps the shrink's own roundings add on top.
BOUND_SLACK = 2.0 * TOUCH_EPS


def foot_floor(config: DPConfig) -> float:
    """The per-foot bound under which no pattern reaches ``h_min``.

    A foot whose bound lies below this floor only has shrinks that
    return 0, so both :meth:`SegmentDP.feasible` and :meth:`SegmentDP.run`
    may skip it.
    """
    return config.h_min - BOUND_SLACK


@dataclass
class DPConfig:
    """Quantities the DP needs, all in board units.

    ``step`` is the realised discretization step (``l_disc`` adjusted to
    divide the segment length); ``k_gap``/``k_protect`` the rule distances
    in steps, rounded up (the paper's "slightly increase d_gap and
    d_protect ... to make the former divisible by the latter").
    """

    step: float
    n: int
    k_gap: int
    k_protect: int
    w_min: int
    h_min: float
    h_init: float
    g: float
    #: Permit pattern feet on the segment's end nodes (Fig. 3(d)).  Median
    #: traces of differential pairs disable this: a foot on a node changes
    #: the corner decomposition, which breaks the exact skew-neutrality of
    #: the offset restoration (and a foot on the trace's end node would
    #: even rotate the pin tangent).
    allow_node_feet: bool = True
    #: Permit the p_local transition (patterns connected at a shared foot,
    #: Fig. 3(c)).  Disabled only by the ablation bench measuring what the
    #: connected-pattern machinery is worth (Fig. 5's rationale).
    allow_plocal: bool = True


@dataclass
class DPResult:
    """Outcome of one segment DP: the best gain and its patterns.

    ``patterns`` are in local-frame abscissas, sorted left to right, with
    ``direction`` recording the side.  ``gain`` is the summed ``2*h``.
    """

    gain: float
    patterns: List[Pattern] = field(default_factory=list)


class SegmentDP:
    """One DP run over a discretized segment.

    ``envs`` maps direction (+1/-1) to the :class:`ShrinkEnvironment` of
    that side (each side sees the world mirrored into its own +y frame).
    """

    def __init__(self, config: DPConfig, envs: Dict[int, ShrinkEnvironment]):
        self.config = config
        self.envs = envs
        self._height_cache: Dict[Tuple[int, int, int], float] = {}
        # Per-direction, per-foot admissible height upper bounds, one list
        # for left feet and one for right feet.  A foot at x bounds the
        # height by the lowest node in its arm column (column_bounds) and
        # by the lowest side crossing S on its outer side line, which
        # max_pattern_height caps h_ob at (Eq. 11).  The side lines are
        # built as x_left - g / x_right + g exactly as the shrink builds
        # them, so the one batch pass also fills the shrink's side memo
        # for every foot the DP can probe.
        n, g = config.n, config.g
        xs = np.arange(n) * config.step
        self._feet = xs
        # direction -> pair_heights table, built at the first height
        # lookup of that direction (inside run(), so segments feasible()
        # drops never pay for it).
        self._tables: Dict[int, np.ndarray] = {}
        #: Heights the batch table left to the scalar fixpoint.
        self.scalar_shrinks = 0
        self._left_ub: Dict[int, List[float]] = {}
        self._right_ub: Dict[int, List[float]] = {}
        for d, env in envs.items():
            col = np.minimum(
                config.h_init, np.asarray(env.column_bounds(xs, g)) - g
            )
            side = np.asarray(env.side_minima(np.concatenate([xs - g, xs + g])))
            self._left_ub[d] = np.minimum(col, side[:n] - g).tolist()
            self._right_ub[d] = np.minimum(col, side[n:] - g).tolist()

    # -- heights ---------------------------------------------------------------

    def height(self, il: int, ir: int, direction: int) -> float:
        """Max valid height for feet at points ``il``/``ir`` (cached).

        Read from the direction's :meth:`ShrinkEnvironment.pair_heights`
        table; a NaN entry (a node in the pair's URA, or a pair outside
        the width band) runs the scalar shrink.
        """
        key = (il, ir, direction)
        cached = self._height_cache.get(key)
        if cached is not None:
            return cached
        cfg = self.config
        env = self.envs[direction]
        table = self._tables.get(direction)
        if table is None:
            table = self._tables[direction] = env.pair_heights(
                self._feet,
                cfg.g,
                cfg.h_init,
                cfg.h_min,
                cfg.w_min,
                cfg.n - 1,
            )
        h = table.item(il, ir)
        if math.isnan(h):
            self.scalar_shrinks += 1
            h = env.max_pattern_height(
                il * cfg.step,
                ir * cfg.step,
                cfg.g,
                cfg.h_init,
                cfg.h_min,
            )
        self._height_cache[key] = h
        return h

    @property
    def shrinks(self) -> int:
        """Exact heights (:meth:`height` evaluations) made so far, from
        the batch table or the scalar shrink."""
        return len(self._height_cache)

    def height_upper_bound(self, il: int, ir: int, direction: int) -> float:
        """Cheap admissible bound used to prune exact shrinks: whenever
        ``height(il, ir, direction)`` is positive it is at most this."""
        return min(self._left_ub[direction][il], self._right_ub[direction][ir])

    def feasible(self) -> bool:
        """Whether any pattern can clear ``h_min`` in either direction.

        A pattern at feet ``(il, ir)`` needs height ``>= h_min``, so some
        left foot with bound at or above :func:`foot_floor` must lie at
        least ``w_min`` steps before some right foot with such a bound;
        otherwise :meth:`run` provably gains nothing.
        """
        cfg = self.config
        floor = foot_floor(cfg)
        for d in self._left_ub:
            left = np.flatnonzero(np.asarray(self._left_ub[d]) >= floor)
            right = np.flatnonzero(np.asarray(self._right_ub[d]) >= floor)
            if len(left) and len(right) and right[-1] - left[0] >= cfg.w_min:
                return True
        return False

    # -- the DP ---------------------------------------------------------------------

    def run(self) -> DPResult:
        cfg = self.config
        n = cfg.n
        dirs = (1, -1)
        # State arrays indexed [i][dir_index]; dir_index 0 -> +1, 1 -> -1.
        value = [[0.0, 0.0] for _ in range(n)]
        ends_here = [[False, False] for _ in range(n)]
        # transit[i][d] = (prev_i, prev_dir_index, w); w == 0 marks states
        # not transited through a newly inserted pattern (Eq. 14).
        transit: List[List[Tuple[int, int, int]]] = [
            [(-1, 0, 0), (-1, 0, 0)] for _ in range(n)
        ]

        def dir_index(direction: int) -> int:
            return 0 if direction == 1 else 1

        # Feet whose bound rules out any pattern of height h_min: every
        # shrink on them returns 0, so the DP can skip the call.
        floor = foot_floor(cfg)

        for i in range(1, n):
            for direction in dirs:
                d = dir_index(direction)
                left_ub = self._left_ub[direction]
                # Inherit (Eq. 6).
                value[i][d] = value[i - 1][d]
                ends_here[i][d] = False
                transit[i][d] = (i - 1, d, 0)

                # Right-foot admissibility (Alg. 1 line 7): the stub from
                # the foot to the segment end must be absent or >= d_protect.
                right_stub = (n - 1 - i) * cfg.step
                if i == n - 1:
                    if not cfg.allow_node_feet:
                        continue
                elif right_stub < cfg.h_min - GAIN_EPS:
                    continue
                if self._right_ub[direction][i] < floor:
                    continue

                for w in range(cfg.w_min, i + 1):
                    il = i - w
                    best_pred: Optional[Tuple[float, int, int]] = None
                    # Candidates in priority order (Fig. 4/5): connected
                    # (p_local / node) first, then opposite, then same side.
                    if il == 0:
                        # Foot on the segment node (Fig. 3(d)).
                        if not cfg.allow_node_feet:
                            continue
                        best_pred = (0.0, 0, d)
                    else:
                        cand: List[Tuple[float, int, int]] = []
                        opp = 1 - d
                        if cfg.allow_plocal and ends_here[il][opp]:
                            cand.append((value[il][opp], il, opp))
                        p_prot = il - cfg.k_protect
                        if p_prot >= 0:
                            v = value[p_prot][opp]
                            if self._stub_ok(v, il, cfg):
                                cand.append((v, p_prot, opp))
                        p_gap = il - cfg.k_gap
                        if p_gap >= 0:
                            v = value[p_gap][d]
                            if self._stub_ok(v, il, cfg):
                                cand.append((v, p_gap, d))
                        for entry in cand:
                            if best_pred is None or entry[0] > best_pred[0] + GAIN_EPS:
                                best_pred = entry
                    if best_pred is None:
                        continue
                    pred_value = best_pred[0]

                    cur = value[i][d]
                    # Dominance break: predecessor values are non-increasing
                    # in w (value[] is monotone in i), so once even a
                    # full-height pattern cannot beat the current state, no
                    # wider pattern can either.
                    if pred_value + 2.0 * cfg.h_init <= cur + GAIN_EPS:
                        break
                    # After the break, never before it: skipping past the
                    # break would reach wider patterns the break stops at.
                    if left_ub[il] < floor:
                        continue
                    # Prune: even the optimistic height cannot beat the
                    # current state.
                    h_ub = self.height_upper_bound(il, i, direction) + BOUND_SLACK
                    if pred_value + 2.0 * h_ub < cur - GAIN_EPS:
                        continue
                    h = self.height(il, i, direction)
                    if h <= 0.0:
                        continue
                    cand_value = pred_value + 2.0 * h
                    if cand_value > cur + GAIN_EPS or (
                        cand_value > cur - GAIN_EPS and not ends_here[i][d]
                    ):
                        value[i][d] = cand_value
                        ends_here[i][d] = True
                        transit[i][d] = (best_pred[1], best_pred[2], w)

        # Choose the best final state (Sec. IV-C).
        if value[n - 1][0] >= value[n - 1][1]:
            final_d = 0
        else:
            final_d = 1
        best = value[n - 1][final_d]
        if best <= GAIN_EPS:
            return DPResult(gain=0.0)
        patterns = self._restore(n - 1, final_d, transit)
        return DPResult(gain=best, patterns=patterns)

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _stub_ok(pred_value: float, il: int, cfg: DPConfig) -> bool:
        """Left-stub rule for predecessors without any pattern.

        A predecessor with value 0 has no pattern (every pattern gains
        ``2*h >= 2*h_min > 0``), so the straight stub from the segment
        start to the new left foot must itself satisfy ``d_protect``.
        """
        if pred_value > GAIN_EPS:
            return True
        if il == 0:
            return cfg.allow_node_feet
        return il * cfg.step >= cfg.h_min - GAIN_EPS

    def _restore(
        self,
        i: int,
        d: int,
        transit: List[List[Tuple[int, int, int]]],
    ) -> List[Pattern]:
        """Backtrack the transit table into the chosen patterns (O(n))."""
        cfg = self.config
        patterns: List[Pattern] = []
        while i > 0:
            prev_i, prev_d, w = transit[i][d]
            if w > 0:
                il = i - w
                direction = 1 if d == 0 else -1
                h = self.height(il, i, direction)
                if h > 0:
                    patterns.append(
                        Pattern(
                            x_left=il * cfg.step,
                            x_right=i * cfg.step,
                            height=h,
                            direction=direction,
                            left_index=il,
                            right_index=i,
                        )
                    )
            if prev_i < 0:
                break
            i, d = prev_i, prev_d
        patterns.reverse()
        return patterns
