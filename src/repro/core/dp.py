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

The best predecessor depends only on the left foot and the side, so it is
chosen once per (left foot, side), as soon as every state it reads is
final.  Exact heights are read on demand: the side step from per-foot
values, the scalar fixpoint only where a node lies in the pattern's URA.

Each state stores ``transit[i][dir] = (i', dir', w')`` (Eq. 14) so the
chosen patterns are restored by backtracking in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .pattern import Pattern
from .shrink import TOUCH_EPS, ShrinkEnvironment, foot_sides

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
        #: Heights the box test left to the scalar fixpoint.
        self.scalar_shrinks = 0
        # Per direction and foot: the admissible height upper bounds of a
        # left and of a right foot, and the side step's inputs to the
        # exact height, h1 = min(h_init + g, S(x - g)) and S(x + g).  A
        # foot at x bounds the height by the lowest node in its arm
        # column (column_bounds) and by the lowest side crossing S on its
        # outer side line, which max_pattern_height caps h_ob at
        # (Eq. 11).  The side lines are built as x_left - g / x_right + g
        # exactly as the shrink builds them, so the one batch pass also
        # fills the shrink's side memo for every foot the DP can probe.
        n, g = config.n, config.g
        xs = np.arange(n) * config.step
        self._feet = xs
        self._left_ub: Dict[int, List[float]] = {}
        self._right_ub: Dict[int, List[float]] = {}
        self._h1: Dict[int, List[float]] = {}
        self._side_r: Dict[int, List[float]] = {}
        for d, (side, col) in foot_sides(envs, xs, g).items():
            col = np.minimum(config.h_init, col - g)
            self._left_ub[d] = np.minimum(col, side[:n] - g).tolist()
            self._right_ub[d] = np.minimum(col, side[n:] - g).tolist()
            self._h1[d] = np.minimum(config.h_init + g, side[:n]).tolist()
            self._side_r[d] = side[n:].tolist()
        # direction -> ShrinkEnvironment.box_index, built at the first
        # exact height of that direction (inside run(), so segments
        # feasible() drops never pay for it).
        self._boxes: Dict[int, Tuple[List[int], List[int], List[List[float]]]] = {}

    # -- heights ---------------------------------------------------------------

    def height(self, il: int, ir: int, direction: int) -> float:
        """Max valid height for feet at points ``il``/``ir`` (cached).

        The scalar shrink's side step, from the per-foot values:
        ``h2 = min(h1, S(x_r + g))`` and ``h = min(h_init, h2 - g)``.  It
        returns 0 when ``h_init``, ``h1 - g`` or ``h2 - g`` lies below
        ``h_min``; since ``h2 <= h1`` and rounding is monotone, all of
        these are ``h < h_min``.  Otherwise ``h`` is the answer unless a
        node lies in the pair's ``P_check`` box, where the scalar
        fixpoint runs.
        """
        key = (il, ir, direction)
        cached = self._height_cache.get(key)
        if cached is not None:
            return cached
        cfg = self.config
        h2 = min(self._h1[direction][il], self._side_r[direction][ir])
        h = min(cfg.h_init, h2 - cfg.g)
        if h < cfg.h_min:
            h = 0.0
        elif self._busy(il, ir, direction, h2 - TOUCH_EPS):
            self.scalar_shrinks += 1
            h = self.envs[direction].max_pattern_height(
                il * cfg.step,
                ir * cfg.step,
                cfg.g,
                cfg.h_init,
                cfg.h_min,
            )
        self._height_cache[key] = h
        return h

    def _busy(self, il: int, ir: int, direction: int, top: float) -> bool:
        """Whether a node lies in the box of feet ``il``/``ir`` whose top
        is ``top = h2 - TOUCH_EPS``: the lowest box-eligible node of the
        run between the feet's x-windows, from two sparse-table reads."""
        box = self._boxes.get(direction)
        if box is None:
            cfg = self.config
            box = self._boxes[direction] = self.envs[direction].box_index(
                self._feet, cfg.g, cfg.h_init
            )
        lo_of, hi_of, levels = box
        lo = lo_of[il]
        hi = hi_of[ir]
        if lo >= hi:
            return False
        k = (hi - lo).bit_length() - 1
        level = levels[k]
        return min(level[lo], level[hi - (1 << k)]) <= top

    @property
    def shrinks(self) -> int:
        """Exact heights (:meth:`height` evaluations) made so far, from
        the side step or the scalar shrink."""
        return len(self._height_cache)

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
        # Per direction index (0 -> +1, 1 -> -1), lists over the points.
        value = ([0.0] * n, [0.0] * n)
        ends_here = ([False] * n, [False] * n)
        # transit[d][i] = (prev_i, prev_dir_index, w); w == 0 marks states
        # not transited through a newly inserted pattern (Eq. 14).
        transit: Tuple[List[Tuple[int, int, int]], ...] = (
            [(-1, 0, 0)] * n,
            [(-1, 0, 0)] * n,
        )
        # pred[d][il]: the best admissible predecessor state (value,
        # point, direction index) of a pattern on side d whose left foot
        # is il, or None.  It reads only states at or before il, so it is
        # chosen once, when il becomes final.
        pred: Tuple[List[Optional[Tuple[float, int, int]]], ...] = (
            [None] * n,
            [None] * n,
        )
        if cfg.allow_node_feet:
            # Foot on the segment node (Fig. 3(d)).
            pred[0][0] = (0.0, 0, 0)
            pred[1][0] = (0.0, 0, 1)

        # Feet whose bound rules out any pattern of height h_min: every
        # shrink on them returns 0, so the DP can skip the call.  Read
        # from the module per run, like BOUND_SLACK below.
        floor = foot_floor(cfg)
        slack = BOUND_SLACK
        full = 2.0 * cfg.h_init
        height = self.height

        for i in range(1, n):
            # Right-foot admissibility (Alg. 1 line 7): the stub from the
            # foot to the segment end must be absent or >= d_protect.
            if i == n - 1:
                right_ok = cfg.allow_node_feet
            else:
                right_ok = (n - 1 - i) * cfg.step >= cfg.h_min - GAIN_EPS
            for d, direction in ((0, 1), (1, -1)):
                val = value[d]
                # Inherit (Eq. 6).
                cur = val[i - 1]
                ends = False
                step = (i - 1, d, 0)
                right_ub = self._right_ub[direction][i]
                if right_ok and right_ub >= floor:
                    left_ub = self._left_ub[direction]
                    preds = pred[d]
                    for il in range(i - cfg.w_min, -1, -1):
                        best = preds[il]
                        if best is None:
                            continue
                        pred_value = best[0]
                        # Dominance break: predecessor values are
                        # non-increasing in w (value[] is monotone in i),
                        # so once even a full-height pattern cannot beat
                        # the current state, no wider pattern can either.
                        if pred_value + full <= cur + GAIN_EPS:
                            break
                        # After the break, never before it: skipping past
                        # the break would reach wider patterns the break
                        # stops at.
                        lub = left_ub[il]
                        if lub < floor:
                            continue
                        # Prune: even the optimistic height cannot beat
                        # the current state.  (min(lub, right_ub), ties
                        # included.)
                        h_ub = (right_ub if right_ub < lub else lub) + slack
                        if pred_value + 2.0 * h_ub < cur - GAIN_EPS:
                            continue
                        h = height(il, i, direction)
                        if h <= 0.0:
                            continue
                        cand_value = pred_value + 2.0 * h
                        if cand_value > cur + GAIN_EPS or (
                            cand_value > cur - GAIN_EPS and not ends
                        ):
                            cur = cand_value
                            ends = True
                            step = (best[1], best[2], i - il)
                val[i] = cur
                ends_here[d][i] = ends
                transit[d][i] = step
            if i <= n - 1 - cfg.w_min:
                self._settle(i, value, ends_here, pred)

        # Choose the best final state (Sec. IV-C).
        if value[0][n - 1] >= value[1][n - 1]:
            final_d = 0
        else:
            final_d = 1
        best = value[final_d][n - 1]
        if best <= GAIN_EPS:
            return DPResult(gain=0.0)
        patterns = self._restore(n - 1, final_d, transit)
        return DPResult(gain=best, patterns=patterns)

    def _settle(self, il: int, value, ends_here, pred) -> None:
        """Choose the best predecessor of left foot ``il`` (>= 1) on both
        sides, now that every state at or before ``il`` is final.

        Candidates in priority order (Fig. 4/5): connected (p_local)
        first, then opposite side, then same side; a later candidate wins
        only when it is better by more than ``GAIN_EPS``.

        Left-stub rule: a predecessor with value 0 has no pattern (every
        pattern gains ``2*h >= 2*h_min > 0``), so the straight stub from
        the segment start to the new left foot must itself satisfy
        ``d_protect``.
        """
        cfg = self.config
        p_prot = il - cfg.k_protect
        p_gap = il - cfg.k_gap
        stub_ok = il * cfg.step >= cfg.h_min - GAIN_EPS
        for d in (0, 1):
            opp = 1 - d
            best: Optional[Tuple[float, int, int]] = None
            if cfg.allow_plocal and ends_here[opp][il]:
                best = (value[opp][il], il, opp)
            if p_prot >= 0:
                v = value[opp][p_prot]
                if (v > GAIN_EPS or stub_ok) and (
                    best is None or v > best[0] + GAIN_EPS
                ):
                    best = (v, p_prot, opp)
            if p_gap >= 0:
                v = value[d][p_gap]
                if (v > GAIN_EPS or stub_ok) and (
                    best is None or v > best[0] + GAIN_EPS
                ):
                    best = (v, p_gap, d)
            pred[d][il] = best

    # -- helpers ------------------------------------------------------------------------

    def _restore(
        self,
        i: int,
        d: int,
        transit: Tuple[List[Tuple[int, int, int]], ...],
    ) -> List[Pattern]:
        """Backtrack the transit table into the chosen patterns (O(n))."""
        cfg = self.config
        patterns: List[Pattern] = []
        while i > 0:
            prev_i, prev_d, w = transit[d][i]
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
