"""The unified pipeline entry point.

``RoutingSession`` owns a board plus one :class:`SessionConfig` and runs
an explicit stage pipeline over it — by default region assignment →
length matching → DRC verification, the paper's Fig. 2 flow.  Each run
emits a structured :class:`~repro.api.result.RunResult` that serialises
to JSON via :mod:`repro.io`.

Quickstart::

    from repro import RoutingSession

    result = RoutingSession(board).run()
    print(result.summary())
    result.save("result.json")

Observers hook member- and stage-level progress without subclassing::

    RoutingSession(
        board,
        on_stage_start=lambda session, stage: print("->", stage.name),
        on_member_done=lambda session, report: print("  ", report.name),
    ).run()

Batch execution (``run_many``) is fault-isolated: every board yields a
:class:`~repro.api.result.RunResult` even when its pipeline crashes —
see :mod:`repro.api.executor` for the engine.
"""

from __future__ import annotations

import copy
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from .. import faults, obs
from ..core import MemberReport
from ..model import Board
from .config import SessionConfig
from .result import STATUS_CRASHED, RunResult, StageRecord
from .stages import Stage, default_stages

#: ``on_stage_start(session, stage)`` / ``on_stage_end(session, record)``.
StageStartObserver = Callable[["RoutingSession", Stage], None]
StageEndObserver = Callable[["RoutingSession", StageRecord], None]
#: ``on_member_done(session, member_report)``.
MemberObserver = Callable[["RoutingSession", MemberReport], None]

#: How many trailing traceback lines an error record keeps.
TRACEBACK_TAIL_LINES = 20


def error_record(
    exc: BaseException, stage: Optional[str] = None
) -> Dict[str, Any]:
    """A JSON-serialisable crash record for ``RunResult.error``.

    Captures the exception type and message, the stage that was running
    (``None`` when the crash happened outside any stage) and the last
    :data:`TRACEBACK_TAIL_LINES` lines of the formatted traceback — the
    tail is where the crash site lives, and whole tracebacks of deep
    router recursions would bloat batch reports.
    """
    tail = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).splitlines()[-TRACEBACK_TAIL_LINES:]
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "stage": stage,
        "traceback": tail,
    }


def run_provenance(meta: Any) -> Optional[Dict[str, Any]]:
    """What a run of a board with ``meta`` records as its provenance.

    The scenario spec of a generated board; for a hand-imported board
    (``repro import`` → ``repro route``) no spec exists, so the
    importer's record stands in — enough to say which file (and which
    bytes) this was.  ``None`` for any other board.  Deep copies: the
    nested params must not alias ``board.meta`` (mutating one would
    silently corrupt the other's record).
    """
    if not isinstance(meta, dict):
        return None
    scenario = meta.get("scenario")
    if scenario:
        return copy.deepcopy(scenario)
    kicad = meta.get("kicad")
    if isinstance(kicad, dict):
        return {"name": "imported", "kicad": copy.deepcopy(kicad)}
    return None


class RoutingSession:
    """One board, one config, one pluggable pipeline.

    ``config`` accepts a :class:`SessionConfig` or a preset name
    (``"fast"``, ``"quality"``, ``"paper"``, ...).  ``stages`` replaces
    the default pipeline wholesale; use :func:`~repro.api.default_stages`
    as the starting point when inserting a custom stage.
    """

    def __init__(
        self,
        board: Board,
        config: Union[SessionConfig, str, None] = None,
        stages: Optional[Sequence[Stage]] = None,
        on_stage_start: Optional[StageStartObserver] = None,
        on_stage_end: Optional[StageEndObserver] = None,
        on_member_done: Optional[MemberObserver] = None,
    ) -> None:
        self.board = board
        if isinstance(config, str):
            config = SessionConfig.preset(config)
        self.config = config or SessionConfig()
        self.stages: List[Stage] = list(stages) if stages is not None else default_stages()
        self.on_stage_start = on_stage_start
        self.on_stage_end = on_stage_end
        self.on_member_done = on_member_done

    # -- observer plumbing (called by stages) --------------------------------

    def notify_member_done(self, report: MemberReport) -> None:
        """Forward one finished member to the observer, if any."""
        if self.on_member_done is not None:
            self.on_member_done(self, report)

    # -- execution -----------------------------------------------------------

    def run(self, capture_errors: bool = False) -> RunResult:
        """Execute every stage in order against the board.

        The board is mutated in place (meanders are spliced in, routable
        areas stored); the returned :class:`RunResult` is the structured
        record of what happened, with ``status`` stamped ``"ok"`` /
        ``"failed"`` / ``"crashed"``.

        By default an exception escaping a stage (a strict-mode
        :class:`~repro.api.stages.StageFailure`, or any crash in
        router/geometry code) propagates to the caller.  With
        ``capture_errors=True`` — the batch executor's mode — the crash
        is captured instead: the stages that already ran keep their
        records and timings, the crashing stage gets a ``"crashed"``
        record, ``result.error`` holds the exception type, message,
        stage name and traceback tail, and the partial result is
        returned with ``status="crashed"``.  ``KeyboardInterrupt`` and
        other non-``Exception`` exits always propagate.
        """
        result = RunResult(
            board=self.board.name,
            config=self.config.to_dict(),
            provenance=run_provenance(self.board.meta),
        )
        kicad = self.board.meta.get("kicad")
        run_attrs = {
            "board": self.board.name,
            "preset": self.config.preset_name,
        }
        if isinstance(kicad, dict) and kicad.get("source"):
            # Imported boards carry their file path into the span so
            # `repro trace summarize` can say what was routed.
            run_attrs["source"] = kicad["source"]
        started = time.perf_counter()
        with obs.span("session.run", **run_attrs) as run_span:
            for stage in self.stages:
                if self.on_stage_start is not None:
                    self.on_stage_start(self, stage)
                stage_started = time.perf_counter()
                with obs.span(f"stage.{stage.name}") as stage_span:
                    try:
                        # The chaos suite's stage-boundary injection point
                        # (repro.faults): inert unless a fault plan is armed
                        # in this process or via the environment.  Inside the
                        # try so an injected crash takes the same capture
                        # path as a real stage crash.
                        faults.inject(f"stage.{stage.name}", board=self.board.name)
                        record = stage.run(self, result)
                    except Exception as exc:
                        if not capture_errors:
                            result.runtime = time.perf_counter() - started
                            raise
                        # An exception that names its own stage (StageFailure
                        # raised by a helper on behalf of another stage) wins
                        # over the loop's current stage.
                        result.error = error_record(
                            exc, stage=getattr(exc, "stage", "") or stage.name
                        )
                        record = StageRecord(
                            stage.name,
                            STATUS_CRASHED,
                            detail=f"{type(exc).__name__}: {exc}",
                        )
                    stage_span.set(status=record.status)
                record.runtime = time.perf_counter() - stage_started
                obs.REGISTRY.observe(
                    "repro_stage_seconds", record.runtime, stage=stage.name
                )
                result.stages.append(record)
                if self.on_stage_end is not None:
                    self.on_stage_end(self, record)
                if result.error is not None:
                    break
            result.runtime = time.perf_counter() - started
            result.finalize_status()
            run_span.set(status=result.status, runtime=result.runtime)
        return result

    @classmethod
    def run_many(
        cls,
        boards: Iterable[Board],
        config: Union[SessionConfig, str, None] = None,
        stages: Optional[Sequence[Stage]] = None,
        on_stage_start: Optional[StageStartObserver] = None,
        on_stage_end: Optional[StageEndObserver] = None,
        on_member_done: Optional[MemberObserver] = None,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retry: bool = False,
        on_board_done: Optional[Callable[[int, Board, RunResult], None]] = None,
    ) -> List[RunResult]:
        """Route a batch of boards with one shared config, fault-isolated.

        Each board gets its own session (stage instances are shared —
        the built-ins are stateless); results come back in input order,
        and *every* board produces one: a crashing pipeline yields a
        ``status="crashed"`` result carrying the error record and the
        surviving partial stage records instead of sinking the batch.

        ``workers=N`` (N > 1) routes the boards in ``N`` OS processes
        via :func:`repro.api.executor.run_batch`: streaming submission,
        per-board ``timeout`` seconds, optional ``retry``-once for
        crashed boards, and recovery when a worker process dies.  Each
        board and its :class:`~repro.api.result.RunResult` round-trip
        through the :mod:`repro.io` JSON codecs, the routed geometry is
        adopted back onto the caller's board objects, and observer
        callbacks are replayed *in the parent*, per board, in input
        order (see PERFORMANCE.md for the exact replay semantics).
        ``on_board_done(index, board, result)`` fires as each board
        finishes, in completion order.  Custom ``stages`` are not
        serialisable and raise :class:`ValueError` in workers mode.
        """
        from .executor import run_batch

        return run_batch(
            boards,
            config=config,
            stages=stages,
            workers=workers,
            timeout=timeout,
            retry=retry,
            on_board_done=on_board_done,
            on_stage_start=on_stage_start,
            on_stage_end=on_stage_end,
            on_member_done=on_member_done,
        )
