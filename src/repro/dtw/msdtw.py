"""Multi-Scale Dynamic Time Warping — Sec. V-B/V-C, Alg. 3.

Plain DTW matches *every* node, including the nodes of tiny length-
compensation patterns, whose matches would drag the median trace off
position (Fig. 11).  MSDTW therefore

1. drops every matched pair whose cost exceeds ``sqrt(2) * r`` (any
   legitimate match, even across an obtuse corner, stays below that bound
   for distance rule ``r``),
2. runs the matching *multi-scale*: with the rule set ``R`` sorted
   ascending, each round matches within the current differential sub-pairs
   at rule ``r_k``, keeps the surviving pairs, splits the sub-pairs at the
   matched nodes, and discards sub-pairs that have run out of nodes on
   either side (tiny patterns live on one sub-trace only).

Rounds at small rules lock in the trustworthy matches and fence off the
regions where a larger rule would mis-match across Design Rule Areas
(Fig. 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..geometry import Point
from ..model import DifferentialPair
from .dtw import MatchedPair, dtw_match


@dataclass(frozen=True)
class SubPair:
    """A contiguous slice of both sub-traces still awaiting matching.

    ``p_lo``/``p_hi`` are half-open node index ranges into trace P,
    likewise for N.
    """

    p_lo: int
    p_hi: int
    n_lo: int
    n_hi: int

    def p_empty(self) -> bool:
        return self.p_hi <= self.p_lo

    def n_empty(self) -> bool:
        return self.n_hi <= self.n_lo


@dataclass
class MSDTWResult:
    """All surviving matches plus diagnostics.

    ``pairs`` use global node indices of the two sub-traces.  ``unpaired_p``
    and ``unpaired_n`` are the filtered (tiny-pattern / noise) nodes.
    ``rounds`` records, per distance rule, how many pairs survived — the
    multi-scale trace used by tests and the Fig. 12 illustration.
    """

    pairs: List[MatchedPair] = field(default_factory=list)
    unpaired_p: List[int] = field(default_factory=list)
    unpaired_n: List[int] = field(default_factory=list)
    rounds: List[Tuple[float, int]] = field(default_factory=list)


def filter_threshold(rule: float) -> float:
    """The ``sqrt(2) * r`` bound of Sec. V-B."""
    return math.sqrt(2.0) * rule


def msdtw(
    nodes_p: Sequence[Point],
    nodes_q: Sequence[Point],
    rules: Sequence[float],
    breakout_p: int = 0,
    breakout_n: int = 0,
) -> MSDTWResult:
    """Run MSDTW over the node sequences of a differential pair.

    ``rules`` is the rule set ``R``; it is sorted ascending internally.
    ``breakout_p``/``breakout_n`` exclude that many nodes at each end from
    matching (the paper preserves the breakout part of the pair).
    """
    if not rules:
        raise ValueError("MSDTW needs at least one distance rule")
    R = sorted(set(rules))
    I, J = len(nodes_p), len(nodes_q)
    result = MSDTWResult()
    sub_pairs: List[SubPair] = [
        SubPair(breakout_p, I - breakout_p, breakout_n, J - breakout_n)
    ]

    for rule in R:
        threshold = filter_threshold(rule)
        next_round: List[SubPair] = []
        kept_this_round = 0
        for sp in sub_pairs:
            if sp.p_empty() or sp.n_empty():
                continue  # dropped: tiny patterns live on one side only
            local_pairs, _ = dtw_match(
                nodes_p[sp.p_lo : sp.p_hi],
                nodes_q[sp.n_lo : sp.n_hi],
            )
            kept = [
                MatchedPair(sp.p_lo + m.i, sp.n_lo + m.j, m.cost)
                for m in local_pairs
                if m.cost <= threshold
            ]
            if not kept:
                next_round.append(sp)  # retry at the next (larger) scale
                continue
            kept_this_round += len(kept)
            result.pairs.extend(kept)
            next_round.extend(_split(sp, kept))
        result.rounds.append((rule, kept_this_round))
        sub_pairs = next_round
        if not sub_pairs:
            break

    matched_p = {m.i for m in result.pairs}
    matched_n = {m.j for m in result.pairs}
    result.unpaired_p = [
        i for i in range(breakout_p, I - breakout_p) if i not in matched_p
    ]
    result.unpaired_n = [
        j for j in range(breakout_n, J - breakout_n) if j not in matched_n
    ]
    result.pairs.sort(key=lambda m: (m.i, m.j))
    return result


def _split(sp: SubPair, kept: Sequence[MatchedPair]) -> List[SubPair]:
    """Split a sub-pair at its matched nodes (Alg. 3 line 11).

    The gaps between consecutive matched pairs (and before the first /
    after the last) become the sub-pairs of the next round; matching
    across a gap boundary is thereby forbidden.
    """
    out: List[SubPair] = []
    ordered = sorted(kept, key=lambda m: (m.i, m.j))
    prev_i, prev_j = sp.p_lo - 1, sp.n_lo - 1
    for m in ordered:
        out.append(SubPair(prev_i + 1, m.i, prev_j + 1, m.j))
        prev_i, prev_j = m.i, m.j
    out.append(SubPair(prev_i + 1, sp.p_hi, prev_j + 1, sp.n_hi))
    return [s for s in out if not (s.p_empty() and s.n_empty())]


def msdtw_pair(pair: DifferentialPair, breakout: int = 0) -> MSDTWResult:
    """Convenience wrapper running MSDTW on a :class:`DifferentialPair`."""
    return msdtw(
        pair.trace_p.path.points,
        pair.trace_n.path.points,
        pair.distance_rules(),
        breakout_p=breakout,
        breakout_n=breakout,
    )
