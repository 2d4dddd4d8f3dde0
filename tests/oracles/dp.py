"""The table-driven segment DP (test oracle).

The DP as it stood before heights were read on demand: per direction,
:func:`pair_heights` fills an ``(n, n)`` table of exact heights over the
band's bounding box in one numpy pass (NaN where a node sits in the
pair's ``P_check`` box), and :meth:`SegmentDP.run` re-chooses the best
predecessor for every (right foot, width) step.  Production's
:class:`repro.core.dp.SegmentDP` must give the same ``repr`` of every
:class:`~repro.core.dp.DPResult`, the same exact-height count
(``shrinks``) and no more scalar fixpoints (``scalar_shrinks``);
``tests/core/test_dp_oracle.py`` checks this on captured corpus inputs
and generated environments.  The seed extension loop
(:mod:`oracles.extension`) routes with this DP.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.core.dp as production
from repro.core.dp import GAIN_EPS, DPConfig, DPResult, foot_floor
from repro.core.pattern import Pattern
from repro.core.shrink import TOUCH_EPS
from repro.core.shrink import ShrinkEnvironment as NumpyShrinkEnvironment

#: Most entries of one temporary of :func:`pair_heights`: foot pairs per
#: block, and (node, foot) pairs of its box test.
PAIR_BLOCK = 1 << 16


def _side_values(env, lines):
    """S at each of ``lines``: the memoized values, or one batch pass
    when any is missing."""
    try:
        return np.fromiter(
            map(env._side_memo.__getitem__, lines.tolist()), float, len(lines)
        )
    except KeyError:
        return env.side_minima(lines)


def pair_heights(env, xs, g, h_init, h_min, w_min, w_max):
    """:meth:`max_pattern_height` of the foot pairs over the grid ``xs``
    wherever the answer needs no fixpoint, in one pass over the numpy
    environment ``env``.

    Returns an ``(n, n)`` table indexed ``[il, ir]``, filled on the
    bounding box of the band ``w_min <= ir - il <= w_max``; NaN outside
    that box and at *busy* pairs, those with a node in the closed box
    the fixpoint starts from (``P_check``).  A node is in the box when
    it passes a test on the left foot alone and one on the right foot
    alone, so a pair is busy when some node passes both, a 0/1 matrix
    product over the nodes.  With more than :data:`PAIR_BLOCK` (node,
    foot) entries every pair the side step keeps is NaN.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    out = np.full((n, n), np.nan)
    h1 = np.minimum(h_init + g, _side_values(env, xs - g))
    side_r = _side_values(env, xs + g)
    keep = (env._ys >= TOUCH_EPS) & (env._ys <= (h_init + g) - TOUCH_EPS)
    node_xs = env._xs[keep][:, None]
    node_ys = env._ys[keep][:, None]
    m = len(node_xs)
    box_test = 0 < m and m * n <= PAIR_BLOCK
    if box_test:
        in_left = (node_xs >= (xs - g) + TOUCH_EPS) & (node_ys <= h1 - TOUCH_EPS)
        in_right = (node_xs <= (xs + g) - TOUCH_EPS) & (
            node_ys <= side_r - TOUCH_EPS
        )
        in_left = in_left.T.astype(float)
        in_right = in_right.astype(float)
    cols = max(1, PAIR_BLOCK // max(n, 1))
    for lo in range(w_min, n, cols):
        hi = min(n, lo + cols)
        left = slice(max(0, lo - w_max), hi - w_min)
        h2 = np.minimum(h1[left, None], side_r[lo:hi])
        h = np.minimum(h_init, h2 - g)
        valid = h >= h_min
        if box_test:
            h = np.where(in_left[left] @ in_right[:, lo:hi] > 0.0, np.nan, h)
        elif m:
            h = np.full_like(h, np.nan)
        out[left, lo:hi] = np.where(valid, h, 0.0)
    return out


def _pair_table(env, xs, cfg: DPConfig):
    """One direction's height table: the batch pass on a numpy
    environment, the scalar loop of the polygon oracle's own
    ``pair_heights`` otherwise."""
    if isinstance(env, NumpyShrinkEnvironment):
        return pair_heights(env, xs, cfg.g, cfg.h_init, cfg.h_min, cfg.w_min, cfg.n - 1)
    return env.pair_heights(xs, cfg.g, cfg.h_init, cfg.h_min, cfg.w_min, cfg.n - 1)


class SegmentDP:
    """One DP run over a discretized segment, table-driven."""

    def __init__(self, config: DPConfig, envs):
        self.config = config
        self.envs = envs
        self._height_cache: Dict[Tuple[int, int, int], float] = {}
        n, g = config.n, config.g
        xs = np.arange(n) * config.step
        self._feet = xs
        self._tables: Dict[int, np.ndarray] = {}
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

    def height(self, il: int, ir: int, direction: int) -> float:
        key = (il, ir, direction)
        cached = self._height_cache.get(key)
        if cached is not None:
            return cached
        cfg = self.config
        env = self.envs[direction]
        table = self._tables.get(direction)
        if table is None:
            table = self._tables[direction] = _pair_table(env, self._feet, cfg)
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
        return len(self._height_cache)

    def height_upper_bound(self, il: int, ir: int, direction: int) -> float:
        return min(self._left_ub[direction][il], self._right_ub[direction][ir])

    def feasible(self) -> bool:
        cfg = self.config
        floor = foot_floor(cfg)
        for d in self._left_ub:
            left = np.flatnonzero(np.asarray(self._left_ub[d]) >= floor)
            right = np.flatnonzero(np.asarray(self._right_ub[d]) >= floor)
            if len(left) and len(right) and right[-1] - left[0] >= cfg.w_min:
                return True
        return False

    def run(self) -> DPResult:
        cfg = self.config
        n = cfg.n
        dirs = (1, -1)
        value = [[0.0, 0.0] for _ in range(n)]
        ends_here = [[False, False] for _ in range(n)]
        transit: List[List[Tuple[int, int, int]]] = [
            [(-1, 0, 0), (-1, 0, 0)] for _ in range(n)
        ]

        def dir_index(direction: int) -> int:
            return 0 if direction == 1 else 1

        floor = foot_floor(cfg)

        for i in range(1, n):
            for direction in dirs:
                d = dir_index(direction)
                left_ub = self._left_ub[direction]
                value[i][d] = value[i - 1][d]
                ends_here[i][d] = False
                transit[i][d] = (i - 1, d, 0)

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
                    if il == 0:
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
                    if pred_value + 2.0 * cfg.h_init <= cur + GAIN_EPS:
                        break
                    if left_ub[il] < floor:
                        continue
                    h_ub = (
                        self.height_upper_bound(il, i, direction)
                        + production.BOUND_SLACK
                    )
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

        if value[n - 1][0] >= value[n - 1][1]:
            final_d = 0
        else:
            final_d = 1
        best = value[n - 1][final_d]
        if best <= GAIN_EPS:
            return DPResult(gain=0.0)
        patterns = self._restore(n - 1, final_d, transit)
        return DPResult(gain=best, patterns=patterns)

    @staticmethod
    def _stub_ok(pred_value: float, il: int, cfg: DPConfig) -> bool:
        if pred_value > GAIN_EPS:
            return True
        if il == 0:
            return cfg.allow_node_feet
        return il * cfg.step >= cfg.h_min - GAIN_EPS

    def _restore(self, i, d, transit) -> List[Pattern]:
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
