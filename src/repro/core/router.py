"""The public length-matching router.

``LengthMatchingRouter`` ties the stages together: per matching group it
resolves the target length, meanders every single-ended member with the
DP extension engine, and handles differential pairs by MSDTW-merging them
into a median trace, meandering that under the virtual DRC, and restoring
the pair (Fig. 2's flow).  Members are processed sequentially and the
board state is updated after each, so later members see their neighbours'
meanders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from .. import obs
from ..dtw import convert_pair, restore_pair
from ..model import Board, DesignRules, DifferentialPair, MatchGroup, Trace
from .extension import ExtensionConfig, TraceExtender
from .scene import ClearanceScene


@dataclass
class RouterConfig:
    """Router-level knobs on top of the extension engine's."""

    extension: ExtensionConfig = field(default_factory=ExtensionConfig)
    #: Nodes preserved unmatched at each pair end (the breakout region).
    breakout_nodes: int = 0
    #: Insert a tiny pattern to cancel residual intra-pair skew.
    compensate_pairs: bool = True
    #: Top-up rounds closing any undershoot left after pair restoration.
    pair_topup_rounds: int = 3
    #: Apply d_miter corner mitering to single-ended members (the DRC of
    #: Fig. 1; requires rules with dmiter > 0).  Median traces are never
    #: mitered — oblique corners would break the offset restoration.
    apply_miter: bool = False
    #: Tolerance override for every match; ``None`` defers to each
    #: group's own tolerance (see :meth:`effective_tolerance`).
    tolerance: Optional[float] = None

    def effective_tolerance(self, group: Optional[MatchGroup] = None) -> float:
        """The one tolerance a match works to.

        One value governs a whole match — the member skip test, the
        extension engine's termination test and the pair top-up loop.
        Precedence: :attr:`tolerance` wins when set; otherwise the
        group's own ``tolerance``; ``extension.tolerance`` only governs
        members matched outside any group.
        """
        if self.tolerance is not None:
            return self.tolerance
        if group is not None:
            return group.tolerance
        return self.extension.tolerance


@dataclass
class MemberReport:
    """Outcome for one group member."""

    name: str
    kind: str                     # "trace" | "pair"
    target: float
    length_before: float
    length_after: float
    runtime: float
    iterations: int = 0
    patterns: int = 0
    rollbacks: int = 0

    def error(self) -> float:
        """Relative error ``(l_target - l) / l_target`` (can be negative
        for slight overshoot)."""
        return (self.target - self.length_after) / self.target


@dataclass
class GroupReport:
    """Outcome for one matching group (the Table I row ingredients)."""

    group: str
    target: float
    members: List[MemberReport] = field(default_factory=list)
    runtime: float = 0.0

    def max_error(self) -> float:
        """Worst member error; ``0.0`` for a group with no members."""
        if not self.members:
            return 0.0
        return max(m.error() for m in self.members)

    def avg_error(self) -> float:
        """Mean member error; ``0.0`` for a group with no members."""
        if not self.members:
            return 0.0
        return sum(m.error() for m in self.members) / len(self.members)

    def initial_max_error(self) -> float:
        if not self.members:
            return 0.0
        return max((self.target - m.length_before) / self.target for m in self.members)


class LengthMatchingRouter:
    """Obstacle-aware any-direction length matching on a board."""

    def __init__(self, board: Board, config: Optional[RouterConfig] = None):
        self.board = board
        self.config = config or RouterConfig()
        # One clearance scene for the whole board is every member's
        # context: shared by every member's extender (the member itself
        # is masked per query) and kept in sync as members get rerouted,
        # so later members of a group see their neighbours' meanders
        # without any rebuild.  Built lazily on first use.
        self._scene: Optional[ClearanceScene] = None

    # -- shared clearance scene ----------------------------------------------------

    def _shared_scene(self) -> ClearanceScene:
        if self._scene is None:
            self._scene = ClearanceScene.from_board(self.board)
        return self._scene

    def _scene_updated(self, *traces: Trace) -> None:
        if self._scene is not None:
            for trace in traces:
                self._scene.update_trace(trace)

    # -- public API --------------------------------------------------------------

    def match_group(
        self,
        group: MatchGroup,
        on_member: Optional[Callable[[MemberReport], None]] = None,
    ) -> GroupReport:
        """Meander every member of ``group`` to the group target.

        Members already within tolerance are left untouched — preserving
        the original routing is the point of the whole exercise, and the
        longest member of a group is always such a member.  The
        tolerance is :meth:`RouterConfig.effective_tolerance` of the
        group.

        ``on_member`` is called with each :class:`MemberReport` as soon
        as that member finishes (observer hook for progress reporting).
        """
        target = group.resolved_target()
        tol = self.config.effective_tolerance(group)
        report = GroupReport(group=group.name, target=target)
        started = time.perf_counter()
        for member in list(group.members):
            if abs(target - member.length()) <= tol:
                member_report = MemberReport(
                    name=member.name,
                    kind="pair" if isinstance(member, DifferentialPair) else "trace",
                    target=target,
                    length_before=member.length(),
                    length_after=member.length(),
                    runtime=0.0,
                )
            elif isinstance(member, DifferentialPair):
                with obs.span(
                    "router.match_pair", member=member.name, group=group.name
                ) as sp:
                    member_report = self._match_pair(member, target, tol)
                    sp.set(iterations=member_report.iterations)
            else:
                with obs.span(
                    "router.match_trace", member=member.name, group=group.name
                ) as sp:
                    member_report = self._match_trace(member, target, tol)
                    sp.set(iterations=member_report.iterations)
            report.members.append(member_report)
            if on_member is not None:
                on_member(member_report)
        report.runtime = time.perf_counter() - started
        return report

    def match_trace(self, name: str, target: float) -> MemberReport:
        """Match a single trace by name (outside any group)."""
        return self._match_trace(
            self.board.trace_by_name(name), target, self.config.effective_tolerance()
        )

    def match_pair(self, name: str, target: float) -> MemberReport:
        """Match a single differential pair by name."""
        return self._match_pair(
            self.board.pair_by_name(name), target, self.config.effective_tolerance()
        )

    # -- single-ended members ------------------------------------------------------

    def _rules_for(self, trace: Trace) -> DesignRules:
        return self.board.rules.rules_for_points(trace.path.points)

    def _extender_for(
        self,
        member_name: str,
        exclude: Sequence[str],
        rules: DesignRules,
        tolerance: float,
        allow_node_feet: bool = True,
    ) -> TraceExtender:
        area = self.board.routable_areas.get(member_name, self.board.outline)
        ext_cfg = self.config.extension
        if tolerance != ext_cfg.tolerance:
            ext_cfg = replace(ext_cfg, tolerance=tolerance)
        if not allow_node_feet:
            # Median-trace mode: no node feet (pin tangents / corner
            # decomposition) and skew-free mirrored chevrons.
            ext_cfg = replace(ext_cfg, allow_node_feet=False, mirrored_chevrons=True)
        return TraceExtender(
            rules=rules,
            area=area,
            scene=self._shared_scene(),
            config=ext_cfg,
            exclude=exclude,
        )

    def _match_trace(
        self, trace: Trace, target: float, tolerance: float
    ) -> MemberReport:
        started = time.perf_counter()
        rules = self._rules_for(trace)
        extender = self._extender_for(trace.name, [trace.name], rules, tolerance)
        if self.config.apply_miter and rules.dmiter > 0:
            result = extender.extend_mitered(trace, target)
        else:
            result = extender.extend(trace, target)
        self.board.replace_trace(result.trace)
        self._scene_updated(result.trace)
        return MemberReport(
            name=trace.name,
            kind="trace",
            target=target,
            length_before=trace.length(),
            length_after=result.achieved,
            runtime=time.perf_counter() - started,
            iterations=result.iterations,
            patterns=result.patterns_applied,
            rollbacks=result.rollbacks,
        )

    # -- differential pairs -----------------------------------------------------------

    def _match_pair(
        self,
        pair: DifferentialPair,
        target: float,
        tolerance: float,
    ) -> MemberReport:
        """MSDTW merge -> meander the median -> restore (Sec. V).

        Patterns change the two offset curves symmetrically (their signed
        turn angles cancel), so the restored pair's mean length exceeds
        the median's by a constant the original bends determine plus half
        the residual skew the compensation bump adds.  A dry restoration
        of the unextended median measures that constant, and the median is
        then extended to ``target - delta`` in a single pass.
        """
        started = time.perf_counter()
        base_rules = self.board.rules.rules_for_points(
            list(pair.trace_p.path.points) + list(pair.trace_n.path.points)
        )
        with obs.span("dtw.convert_pair", member=pair.name):
            conversion = convert_pair(
                pair, base_rules, breakout=self.config.breakout_nodes
            )

        with obs.span("dtw.restore_pair", member=pair.name, round="dry"):
            dry = restore_pair(conversion, conversion.median, compensate=False)
        delta = (
            dry.pair.length() + dry.skew_before / 2.0 - conversion.median.length()
        )

        # First round aims one offset-distance short: chevron finishing on
        # the median has oblique corners whose offset asymmetry is not in
        # `delta`, so converging from below (top-up loop) avoids overshoot.
        margin = conversion.offset_distance()
        median_target = max(
            target - delta - margin, conversion.median.length()
        )
        extender = self._extender_for(
            pair.name,
            [pair.name, pair.trace_p.name, pair.trace_n.name],
            conversion.virtual_rules,
            tolerance,
            allow_node_feet=False,
        )
        extended = extender.extend(conversion.median, median_target)
        with obs.span("dtw.restore_pair", member=pair.name, round=0):
            restoration = restore_pair(
                conversion,
                extended.trace,
                compensate=self.config.compensate_pairs,
                min_bump_width=base_rules.dprotect,
            )
        iterations = extended.iterations
        patterns = extended.patterns_applied
        rollbacks = extended.rollbacks
        # Top-up: with node feet off the restoration is skew-exact and can
        # only undershoot (extension never overshoots); close the residue.
        current = extended.trace
        for topup in range(1, self.config.pair_topup_rounds + 1):
            deficit = target - restoration.pair.length()
            if deficit <= tolerance:
                break
            extended = extender.extend(current, current.length() + deficit)
            if extended.achieved <= current.length() + 1e-9:
                break  # no more space
            current = extended.trace
            iterations += extended.iterations
            patterns += extended.patterns_applied
            rollbacks += extended.rollbacks
            with obs.span("dtw.restore_pair", member=pair.name, round=topup):
                restoration = restore_pair(
                    conversion,
                    current,
                    compensate=self.config.compensate_pairs,
                    min_bump_width=base_rules.dprotect,
                )
        self.board.replace_pair(restoration.pair)
        self._scene_updated(restoration.pair.trace_p, restoration.pair.trace_n)
        return MemberReport(
            name=pair.name,
            kind="pair",
            target=target,
            length_before=pair.length(),
            length_after=restoration.pair.length(),
            runtime=time.perf_counter() - started,
            iterations=iterations,
            patterns=patterns,
            rollbacks=rollbacks,
        )
