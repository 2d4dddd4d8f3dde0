"""The pluggable pipeline stages.

A stage is anything implementing the small :class:`Stage` protocol: a
``name`` and a ``run(session, result)`` returning a
:class:`~repro.api.result.StageRecord`.  The three built-ins realise the
paper's Fig. 2 flow — region assignment (Sec. III), DP length matching
with MSDTW pair handling (Secs. IV–V), DRC verification — and new
scenarios (skew-only matching, miter-only passes, report-only probes)
drop in by appending to ``RoutingSession.stages`` without touching the
router.

Stages mutate the board in place (that *is* routing) and record what
they did in the shared :class:`~repro.api.result.RunResult`; the session
owns ordering, timing and observer notification.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..core import LengthMatchingRouter
from ..drc import check_board
from ..model import Board, Trace
from .result import STATUS_FAILED, STATUS_OK, STATUS_SKIPPED, RunResult, StageRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .config import SessionConfig
    from .session import RoutingSession


class StageFailure(RuntimeError):
    """A stage failed and its config says that is fatal (``strict``).

    ``stage`` names the raising stage when the raiser provides it; the
    session's crash capture (``run(capture_errors=True)``) and the batch
    executor surface it in ``RunResult.error["stage"]`` either way, so
    a strict failure inside a batch marks only its own board crashed.
    """

    def __init__(self, message: str, stage: str = "") -> None:
        super().__init__(message)
        self.stage = stage


@runtime_checkable
class Stage(Protocol):
    """The stage contract: mutate the board, report what happened."""

    name: str

    def run(self, session: "RoutingSession", result: RunResult) -> StageRecord:
        """Execute against ``session.board``; never set ``runtime`` (the
        session stamps it)."""
        ...


class RegionAssignmentStage:
    """Sec. III: carve per-trace routable areas with the LP.

    Only single-ended group members that still need length *and* have no
    explicit routable area yet participate — areas supplied by the
    caller (or a previous stage) are authoritative.  An infeasible LP is
    recorded as a failed stage and the pipeline continues with
    unconstrained areas, unless ``region.strict`` asks for a raise; the
    paper defers infeasibility to rip-up/re-route, which this library
    does not implement.
    """

    name = "region"

    @staticmethod
    def inputs(
        board: Board, config: "SessionConfig"
    ) -> Tuple[List[Trace], Dict[str, float], Optional[float]]:
        """The traces the LP assigns space to, their group targets, and
        the decomposition cell (``None`` when no trace needs space)."""
        from ..region.capacity import meander_pitch

        candidates: List[Trace] = []
        targets: Dict[str, float] = {}
        for group in board.groups:
            if not group.members:
                continue
            target = group.resolved_target()
            tol = config.effective_tolerance(group)
            for trace in group.traces():
                if trace.name in board.routable_areas:
                    continue  # explicit areas are authoritative
                if target - trace.length() <= tol:
                    continue  # already long enough
                candidates.append(trace)
                targets[trace.name] = target
        cell = config.region.cell
        if cell is None and candidates:
            # A cell a few leg pitches wide keeps the LP small while
            # resolving corridors finer than the trace pitch.
            width = max(t.width for t in candidates)
            cell = 3.0 * meander_pitch(board.rules.default, width)
        return candidates, targets, cell

    def run(self, session: "RoutingSession", result: RunResult) -> StageRecord:
        from ..region import AssignmentInfeasible, apply_assignment, assign_regions

        board = session.board
        cfg = session.config.region
        if not cfg.enabled:
            return StageRecord(self.name, STATUS_SKIPPED, detail="disabled by config")

        candidates, targets, cell = self.inputs(board, session.config)
        if not candidates:
            return StageRecord(
                self.name,
                STATUS_SKIPPED,
                detail="no single-ended members need assigned space",
            )
        try:
            assignment = assign_regions(
                board,
                candidates,
                targets,
                cell=cell,
                safety=cfg.safety,
                reach=cfg.reach,
            )
        except AssignmentInfeasible as exc:
            if cfg.strict:
                raise StageFailure(
                    f"region assignment infeasible: {exc}", stage=self.name
                ) from exc
            return StageRecord(self.name, STATUS_FAILED, detail=str(exc))
        apply_assignment(board, assignment)
        return StageRecord(
            self.name,
            STATUS_OK,
            data={
                "cell": cell,
                "traces": sorted(targets),
                "regions_assigned": sum(
                    len(idxs) for idxs in assignment.cells.values()
                ),
            },
        )


class LengthMatchingStage:
    """Secs. IV–V: meander every group to target (the router proper).

    The stage fails (without raising) when any member ends beyond its
    group's effective tolerance — undershoot is a real outcome when the
    routable area cannot absorb the deficit, and a run that missed its
    targets must not report OK (the CLI turns this into a non-zero
    exit, which CI gates on).
    """

    name = "match"

    def run(self, session: "RoutingSession", result: RunResult) -> StageRecord:
        board = session.board
        if not board.groups:
            return StageRecord(
                self.name, STATUS_SKIPPED, detail="board has no matching groups"
            )
        router = LengthMatchingRouter(board, session.config)
        unmatched = []
        for group in board.groups:
            tol = session.config.effective_tolerance(group)
            report = router.match_group(
                group, on_member=session.notify_member_done
            )
            result.groups.append(report)
            unmatched.extend(
                f"{group.name}/{m.name}"
                for m in report.members
                if abs(m.target - m.length_after) > tol
            )
        data = {
            "groups": len(result.groups),
            "members": sum(len(g.members) for g in result.groups),
            "max_error": result.max_error(),
        }
        if unmatched:
            return StageRecord(
                self.name,
                STATUS_FAILED,
                detail=(
                    f"{len(unmatched)} member(s) missed target beyond "
                    f"tolerance: {', '.join(unmatched[:5])}"
                ),
                data=data,
            )
        return StageRecord(self.name, STATUS_OK, data=data)


class DrcVerifyStage:
    """The closing DRC gate: the run is only OK if the board is clean."""

    name = "drc"

    def run(self, session: "RoutingSession", result: RunResult) -> StageRecord:
        cfg = session.config.drc
        if not cfg.enabled:
            return StageRecord(self.name, STATUS_SKIPPED, detail="disabled by config")
        report = check_board(session.board, check_areas=cfg.check_areas)
        result.drc = report
        if report.is_clean():
            return StageRecord(self.name, STATUS_OK, data={"violations": 0})
        if cfg.strict:
            raise StageFailure(f"DRC failed:\n{report}", stage=self.name)
        return StageRecord(
            self.name,
            STATUS_FAILED,
            detail=f"{len(report)} violation(s)",
            data={"violations": len(report)},
        )


def default_stages() -> List[Stage]:
    """The paper's Fig. 2 pipeline, in order."""
    return [RegionAssignmentStage(), LengthMatchingStage(), DrcVerifyStage()]
