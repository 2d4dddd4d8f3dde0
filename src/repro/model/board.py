"""The board: the top-level layout container.

A board owns the outline, the routed traces and pairs, the obstacles, the
rule set (default rules + DRAs) and the matching groups.  It also owns the
*routable area* mapping produced by region assignment: each trace may be
given an explicit polygon it is allowed to meander inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..geometry import Polygon, rectangle
from .diffpair import DifferentialPair
from .group import MatchGroup, Member
from .obstacle import Obstacle
from .rules import DesignRules, RuleSet
from .trace import Trace


@dataclass
class Board:
    """A PCB layout for length-matching purposes."""

    outline: Polygon
    rules: RuleSet = field(default_factory=RuleSet)
    traces: List[Trace] = field(default_factory=list)
    pairs: List[DifferentialPair] = field(default_factory=list)
    obstacles: List[Obstacle] = field(default_factory=list)
    groups: List[MatchGroup] = field(default_factory=list)
    #: Explicit routable polygon per member name (from region assignment or
    #: supplied directly by the caller; the paper's "rouTable area").
    routable_areas: Dict[str, Polygon] = field(default_factory=dict)
    #: Optional identifier carried through serialization and run results.
    name: str = ""
    #: Free-form provenance (JSON-serialisable scalars/dicts only).  The
    #: scenario generators stamp ``meta["scenario"] = {name, seed, params}``
    #: here; a :class:`~repro.api.RoutingSession` copies that entry into
    #: the run's :class:`~repro.api.RunResult` so saved artifacts say
    #: which reproducible input produced them.
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def with_rect_outline(
        xmin: float,
        ymin: float,
        xmax: float,
        ymax: float,
        rules: Optional[DesignRules] = None,
    ) -> "Board":
        rs = RuleSet(default=rules) if rules is not None else RuleSet()
        return Board(outline=rectangle(xmin, ymin, xmax, ymax), rules=rs)

    def add_trace(self, trace: Trace) -> Trace:
        if self._name_taken(trace.name):
            raise ValueError(f"duplicate trace name '{trace.name}'")
        self.traces.append(trace)
        return trace

    def add_pair(self, pair: DifferentialPair) -> DifferentialPair:
        names = (pair.name, pair.trace_p.name, pair.trace_n.name)
        if len(set(names)) < 3 or any(self._name_taken(n) for n in names):
            raise ValueError(
                f"duplicate name in pair '{pair.name}' "
                f"({pair.trace_p.name!r}, {pair.trace_n.name!r})"
            )
        self.pairs.append(pair)
        return pair

    def _name_taken(self, name: str) -> bool:
        """Whether a trace, a pair or a pair sub-trace already uses
        ``name`` — a board has one name space for all three."""
        return any(t.name == name for t in self.traces) or any(
            name in (p.name, p.trace_p.name, p.trace_n.name) for p in self.pairs
        )

    def add_obstacle(self, obstacle: Obstacle) -> Obstacle:
        self.obstacles.append(obstacle)
        return obstacle

    def add_group(self, group: MatchGroup) -> MatchGroup:
        if any(g.name == group.name for g in self.groups):
            raise ValueError(f"duplicate group name '{group.name}'")
        self.groups.append(group)
        return group

    # -- lookup -------------------------------------------------------------------

    def trace_by_name(self, name: str) -> Trace:
        for t in self.traces:
            if t.name == name:
                return t
        raise KeyError(f"no trace named '{name}'")

    def pair_by_name(self, name: str) -> DifferentialPair:
        for p in self.pairs:
            if p.name == name:
                return p
        raise KeyError(f"no pair named '{name}'")

    def member_routable_area(self, member: Member) -> Polygon:
        """The routable polygon of a member; defaults to the board outline.

        When region assignment has run, the per-member polygon is stored in
        :attr:`routable_areas`; otherwise the member may roam the whole
        outline (obstacles still apply).
        """
        name = member.name
        return self.routable_areas.get(name, self.outline)

    def set_routable_area(self, member_name: str, area: Polygon) -> None:
        self.routable_areas[member_name] = area

    # -- updates after routing --------------------------------------------------------

    def replace_trace(self, new_trace: Trace) -> None:
        """Swap in a re-meandered trace by name."""
        for i, t in enumerate(self.traces):
            if t.name == new_trace.name:
                self.traces[i] = new_trace
                self._refresh_group_member(new_trace)
                return
        raise KeyError(f"no trace named '{new_trace.name}'")

    def replace_pair(self, new_pair: DifferentialPair) -> None:
        """Swap in a re-meandered pair by name."""
        for i, p in enumerate(self.pairs):
            if p.name == new_pair.name:
                self.pairs[i] = new_pair
                self._refresh_group_member(new_pair)
                return
        raise KeyError(f"no pair named '{new_pair.name}'")

    def _refresh_group_member(self, member: Member) -> None:
        for group in self.groups:
            for i, m in enumerate(group.members):
                if m.name == member.name and type(m) is type(member):
                    group.members[i] = member
