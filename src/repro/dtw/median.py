"""Median-trace generation — Sec. V-A, Eq. (18), and the virtual DRC.

After MSDTW, the matched pairs connect nodes of the two sub-traces into
connected components.  Every component produces one median point: the
midpoint of the two per-trace node centroids — averaging per trace first
keeps the median centred even when several nodes of one trace match a
single node of the other.  The median points, ordered along the pair,
form the *median trace*: a single wide trace (virtual width ``r + 2w``)
that the single-ended length-matching machinery can meander, after which
the pair is restored by offsetting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..geometry import Point, Polyline, centroid
from ..model import DesignRules, DifferentialPair, Trace
from .dtw import MatchedPair
from .msdtw import MSDTWResult, msdtw_pair


@dataclass
class MedianConversion:
    """A differential pair converted to its median trace.

    Keeps everything restoration needs: the original pair, the surviving
    matches, the unpaired (tiny-pattern) nodes and their length
    contribution per sub-trace, and the virtual rules the median must be
    routed under.
    """

    pair: DifferentialPair
    median: Trace
    match: MSDTWResult
    virtual_rules: DesignRules
    #: Arc length each sub-trace loses when its unpaired nodes' detours are
    #: flattened into the median (used for post-restoration compensation).
    dropped_length_p: float = 0.0
    dropped_length_n: float = 0.0

    def offset_distance(self) -> float:
        """Centre-to-centre half-distance for restoring the sub-traces."""
        return self.pair.center_distance() / 2.0


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def median_points(
    nodes_p: Sequence[Point],
    nodes_q: Sequence[Point],
    pairs: Sequence[MatchedPair],
) -> List[Point]:
    """Median points of the matched components, ordered along the pair.

    Components are formed over the union of both node sets with one edge
    per matched pair; per Eq. (18) each component contributes the midpoint
    of its per-trace centroids.  Ordering follows the smallest P-node
    index of each component (nodes of P are ordered along the signal).
    """
    I = len(nodes_p)
    uf = _UnionFind(I + len(nodes_q))
    for m in pairs:
        uf.union(m.i, I + m.j)
    comps: Dict[int, Tuple[List[Point], List[Point], int]] = {}
    involved_p = {m.i for m in pairs}
    involved_n = {m.j for m in pairs}
    for i in sorted(involved_p):
        root = uf.find(i)
        entry = comps.setdefault(root, ([], [], i))
        entry[0].append(nodes_p[i])
    for j in sorted(involved_n):
        root = uf.find(I + j)
        entry = comps.setdefault(root, ([], [], I))
        entry[1].append(nodes_q[j])
    out: List[Tuple[int, Point]] = []
    for root, (vp, vn, order) in comps.items():
        if not vp or not vn:
            continue
        pm = (centroid(vp) + centroid(vn)) / 2.0
        out.append((order, pm))
    out.sort(key=lambda t: t[0])
    return [p for _, p in out]


def virtual_rules_for(pair: DifferentialPair, base: DesignRules) -> DesignRules:
    """The virtual DRC of a merged pair (Sec. V-A).

    Clearances are edge-to-edge quantities; with the median's width set to
    the pair envelope (``r + w``) they carry over unchanged.  The
    d_protect floor is raised by the pair rule ``r``: restoring the pair
    offsets the median by ``r/2`` to each side, which shortens every
    *inner* offset segment of a right-angle meander by exactly ``r``
    (one miter cut of ``r/2 * tan(45°)`` at each end), so a median segment
    must be ``d_protect + r`` long for both restored sub-trace segments to
    satisfy the original ``d_protect``.
    """
    return DesignRules(
        dgap=base.dgap,
        dobs=base.dobs,
        dprotect=base.dprotect + pair.rule,
        dmiter=base.dmiter,
    )


def convert_pair(
    pair: DifferentialPair,
    base_rules: DesignRules,
    breakout: int = 0,
) -> MedianConversion:
    """Merge ``pair`` into its median trace via MSDTW.

    Raises :class:`ValueError` when fewer than two median points emerge
    (no meaningful matching — the traces are not actually coupled).
    """
    match = msdtw_pair(pair, breakout=breakout)
    pts = median_points(
        pair.trace_p.path.points, pair.trace_n.path.points, match.pairs
    )
    if len(pts) < 2:
        raise ValueError(
            f"MSDTW produced {len(pts)} median points for pair '{pair.name}'"
        )
    dedup: List[Point] = []
    for p in pts:
        if not dedup or not p.almost_equals(dedup[-1], 1e-9):
            dedup.append(p)
    if len(dedup) < 2:
        raise ValueError(f"median trace of pair '{pair.name}' is degenerate")
    median_path = Polyline(dedup).simplified()
    median = Trace(
        name=f"{pair.name}__median",
        path=median_path,
        width=pair.virtual_width(),
        net=pair.name,
    )
    dropped_p = _dropped_length(pair.trace_p.path.points, match.unpaired_p)
    dropped_n = _dropped_length(pair.trace_n.path.points, match.unpaired_n)
    return MedianConversion(
        pair=pair,
        median=median,
        match=match,
        virtual_rules=virtual_rules_for(pair, base_rules),
        dropped_length_p=dropped_p,
        dropped_length_n=dropped_n,
    )


def _dropped_length(nodes: Sequence[Point], unpaired: Sequence[int]) -> float:
    """Detour length a sub-trace loses when unpaired nodes are flattened.

    For each maximal run of unpaired nodes between paired anchors ``a`` and
    ``b``, the detour through the run is replaced by the straight chord;
    the difference is what the tiny pattern contributed and what
    restoration must compensate.
    """
    if not unpaired:
        return 0.0
    unpaired_set = set(unpaired)
    total = 0.0
    n = len(nodes)
    i = 0
    while i < n:
        if i in unpaired_set:
            start = i
            while i < n and i in unpaired_set:
                i += 1
            a = start - 1
            b = i
            if a < 0 or b >= n:
                continue
            through = 0.0
            prev = nodes[a]
            for k in range(start, b + 1):
                through += prev.distance_to(nodes[k])
                prev = nodes[k]
            chord = nodes[a].distance_to(nodes[b])
            total += max(0.0, through - chord)
        else:
            i += 1
    return total
