"""Design rules and Design Rule Areas (DRAs).

The four primary distances the paper restricts (Fig. 1):

``d_gap``      minimum trace-to-trace clearance (self-inductance/crosstalk),
``d_obs``      minimum trace-to-obstacle clearance,
``d_protect``  minimum segment length (no extremely short segments),
``d_miter``    corner miter size for convex patterns.

A board has a default rule set plus any number of DRAs, each a polygon
with its own rules; a trace crossing several DRAs is subject to each
area's rules inside it, which is what MSDTW's multi-scale pass handles
for differential pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from ..geometry import Point, Polygon


@dataclass(frozen=True)
class DesignRules:
    """One coherent set of DRC distances (all in board units / mm)."""

    dgap: float = 8.0
    dobs: float = 4.0
    dprotect: float = 3.0
    dmiter: float = 0.0

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN fails every check.
        if not 0 < self.dgap < math.inf:
            raise ValueError("d_gap must be positive and finite")
        if not 0 <= self.dobs < math.inf:
            raise ValueError("d_obs must be finite and not negative")
        if not 0 <= self.dprotect < math.inf:
            raise ValueError("d_protect must be finite and not negative")
        if not 0 <= self.dmiter < math.inf:
            raise ValueError("d_miter must be finite and not negative")


@dataclass(frozen=True)
class DesignRuleArea:
    """A polygonal area with its own design rules."""

    region: Polygon
    rules: DesignRules
    name: str = ""

    def contains(self, p: Point) -> bool:
        return self.region.contains_point(p)


@dataclass
class RuleSet:
    """Board-level default rules plus a list of DRAs.

    Lookup semantics follow the paper: a point inside a DRA obeys that
    DRA's rules; areas earlier in the list win on overlap; everywhere else
    the default applies.
    """

    default: DesignRules = field(default_factory=DesignRules)
    areas: List[DesignRuleArea] = field(default_factory=list)

    def rules_at(self, p: Point) -> DesignRules:
        """The rules governing point ``p``."""
        for area in self.areas:
            if area.contains(p):
                return area.rules
        return self.default

    def rules_for_points(self, points: Sequence[Point]) -> DesignRules:
        """The most conservative combination of rules over a point set.

        Segment extension treats a segment that clips several DRAs with the
        strictest distances among them, which is always DRC-safe.
        """
        rules = [self.rules_at(p) for p in points]
        if not rules:
            return self.default
        return DesignRules(
            dgap=max(r.dgap for r in rules),
            dobs=max(r.dobs for r in rules),
            dprotect=max(r.dprotect for r in rules),
            dmiter=max(r.dmiter for r in rules),
        )

    def distance_rules(self) -> List[float]:
        """All distinct pair-distance scales in increasing order.

        This is the set ``R`` consumed by MSDTW (Alg. 3); callers may also
        supply pair-specific rule sets directly.
        """
        values = {self.default.dgap}
        values.update(a.rules.dgap for a in self.areas)
        return sorted(values)
