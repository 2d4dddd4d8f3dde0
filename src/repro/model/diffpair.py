"""Differential pairs.

A differential pair is two sub-traces (``trace_p``, ``trace_n``) that must
stay coupled at a pair distance rule while the *pair* as a whole is length
matched.  The paper's MSDTW converts the pair into a median trace (Sec. V)
so the single-ended machinery applies; this module holds the data model
and the coupling measurements that motivate MSDTW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

from .trace import Trace


@dataclass(frozen=True)
class DifferentialPair:
    """Two coupled sub-traces and their pair distance rule.

    ``rule`` is the nominal *centre-to-centre* distance between the
    sub-traces — the quantity ``r`` in the ``sqrt(2) r`` filtering bound.
    (It must be centre-to-centre: the bound compares ``r`` against
    node-to-node distances, and a coupled node pair measures exactly the
    centre distance; Fig. 12 likewise uses ``d(E, F)`` between nodes as a
    distance rule.)  When the pair crosses several DRAs, the additional
    per-area rules are supplied to MSDTW via :meth:`distance_rules`.
    """

    name: str
    trace_p: Trace
    trace_n: Trace
    rule: float
    extra_rules: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.trace_p.width < self.rule < math.inf:
            raise ValueError(
                "pair distance rule is centre-to-centre and must be finite "
                "and exceed the sub-trace width"
            )

    # -- measures -------------------------------------------------------------

    def length(self) -> float:
        """Pair length: the mean of the two sub-trace lengths.

        The matched quantity for a pair; after restoration both sub-traces
        are within a tiny pattern of this value.
        """
        return (self.trace_p.length() + self.trace_n.length()) / 2.0

    def skew(self) -> float:
        """Intra-pair length mismatch |len(P) - len(N)|."""
        return abs(self.trace_p.length() - self.trace_n.length())

    def width(self) -> float:
        """Sub-trace copper width (both sub-traces share it)."""
        return self.trace_p.width

    def center_distance(self) -> float:
        """Nominal centre-to-centre distance of the coupled sub-traces."""
        return self.rule

    def virtual_width(self) -> float:
        """Width of the pair seen as one wide trace: ``r + w``.

        This is the virtual-DRC conversion of Sec. V-A: a median trace of
        this width occupies exactly the copper envelope of the coupled
        pair (centrelines ``r`` apart, each with ``w/2`` of copper beyond),
        so clearances measured from its edges equal clearances measured
        from the pair's outer edges.
        """
        return self.rule + self.width()

    def distance_rules(self) -> List[float]:
        """All distance rules the pair passes, ascending (MSDTW's ``R``)."""
        rules = {self.rule, *self.extra_rules}
        return sorted(rules)

    # -- coupling diagnostics -----------------------------------------------------

    def coupling_gaps(self, samples: int = 64) -> List[float]:
        """Sampled centre-to-centre distances along the pair.

        Used by tests and diagnostics to quantify how *decoupled* a pair is
        (Fig. 9): a perfectly coupled pair returns a constant list at
        :meth:`center_distance`.  Sampling runs along *both* sub-traces
        (artefacts that bend away from the sibling are invisible from the
        sibling's side).
        """
        gaps: List[float] = []
        for src, dst in (
            (self.trace_p, self.trace_n),
            (self.trace_n, self.trace_p),
        ):
            total = src.path.length()
            segs = dst.path.segments()
            for i in range(samples + 1):
                p = src.path.point_at_arclength(total * i / samples)
                d = min(seg.distance_to_point(p) for seg in segs)
                gaps.append(d)
        return gaps

    def max_decoupling(self, samples: int = 64) -> float:
        """Worst deviation of the sampled gap from the nominal distance."""
        nominal = self.center_distance()
        return max(abs(g - nominal) for g in self.coupling_gaps(samples))

    # -- edits ------------------------------------------------------------------------

    def with_traces(self, trace_p: Trace, trace_n: Trace) -> "DifferentialPair":
        return replace(self, trace_p=trace_p, trace_n=trace_n)
