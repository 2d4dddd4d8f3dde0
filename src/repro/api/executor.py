"""Fault-isolated batch execution — the engine under ``run_many``.

One poisoned board must never sink a batch: :func:`run_batch` routes N
boards and returns N :class:`~repro.api.result.RunResult` objects in
input order, no matter what any single pipeline does.  A crash inside a
stage is captured by ``RoutingSession.run(capture_errors=True)`` (the
partial stage records survive, ``result.error`` holds the exception
record); a crash *around* the pipeline — payload codec errors, a worker
process dying, a board exceeding its time budget — is converted into a
synthetic crashed result by this module.

Workers mode replaces the old ``pool.map`` barrier (which re-raised the
first worker exception and discarded every other board's completed
work) with streaming submission over ``concurrent.futures.wait``: at
most ``workers`` boards are in flight, completions settle as they
arrive (feeding the ``on_board_done`` progress callback), each board
gets an optional per-submission ``timeout``, crashed boards can be
retried once, and a broken process pool is rebuilt with the in-flight
boards re-run one at a time until the worker-killing board convicts
itself alone.  Boards, configs and results cross the process boundary
as the plain dicts :mod:`repro.io` defines.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..model import Board
from .config import SessionConfig
from .result import RunResult
from .session import (
    MemberObserver,
    RoutingSession,
    StageEndObserver,
    StageStartObserver,
    error_record,
    run_provenance,
)
from .stages import Stage

#: ``on_board_done(index, board, result)`` — fires once per board, in
#: completion order (input order in serial mode).
BoardObserver = Callable[[int, Board, RunResult], None]


class _StageStub:
    """Stands in for a live Stage when replaying parallel-run observers.

    ``on_stage_start`` consumers only read ``stage.name``; in workers
    mode the stage objects lived in another process, so the replay hands
    out a named stub instead.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


def crashed_result(
    board_name: str,
    exc: BaseException,
    config: Union[SessionConfig, None] = None,
    stage: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> RunResult:
    """A synthetic ``status="crashed"`` result for a board whose failure
    happened outside any running pipeline (codec error, dead worker,
    timeout) — the batch contract is one result per board, always.
    ``meta`` is the board's, so the result records the same provenance
    a completed run of that board would."""
    result = RunResult(
        board=board_name,
        config=config.to_dict() if config is not None else {},
        provenance=run_provenance(meta),
    )
    result.error = error_record(exc, stage=stage)
    result.finalize_status()
    return result


def _route_board_worker(payload):
    """Route one JSON-encoded board in a worker process.

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it.  Never raises: pipeline crashes are captured by
    ``run(capture_errors=True)`` (so the partially-routed geometry still
    travels home), and codec failures around the pipeline come back as a
    synthetic crashed result — an exception escaping this function would
    look like a dead worker to the parent.

    Returns ``(result_dict, routed_board_dict_or_None, trace_dict_or_None)``;
    the routed board is ``None`` when the codecs failed.
    The trace is present only when the parent armed tracing through
    ``obs.ENV_VAR`` (collectors are thread-local and cannot cross the
    process boundary any other way); the parent grafts it back into its
    own live trace.
    """
    board_dict, config_dict = payload
    name = board_dict.get("name", "") if isinstance(board_dict, dict) else ""
    if not os.environ.get(obs.ENV_VAR):
        result_dict, routed_dict = _route_board_impl(board_dict, config_dict, name)
        return result_dict, routed_dict, None
    with obs.trace(f"worker {name}", board=name, pid=os.getpid()) as wtrace:
        result_dict, routed_dict = _route_board_impl(board_dict, config_dict, name)
    return result_dict, routed_dict, wtrace.to_dict()


def _route_board_impl(board_dict, config_dict, name):
    from .. import faults
    from ..io import board_from_dict, board_to_dict, run_result_to_dict

    config = (
        SessionConfig.from_dict(config_dict) if config_dict is not None else None
    )
    try:
        # Worker-level chaos (repro.faults, armed via the environment
        # so it crosses the process boundary): ``kill`` hard-exits this
        # worker — the parent sees a broken pool and must attribute
        # guilt; ``hang`` trips the per-board timeout path.
        faults.inject("executor.worker", board=name)
        board = board_from_dict(board_dict)
        result = RoutingSession(board, config=config).run(capture_errors=True)
        return run_result_to_dict(result), board_to_dict(board)
    except Exception as exc:
        result = crashed_result(
            name,
            exc,
            config=config,
            meta=board_dict.get("meta"),
        )
        # No routed geometry to send home: the parent keeps its board
        # (which the decoder may just have rejected).
        return run_result_to_dict(result), None


def _adopt_routed(board: Board, routed: Board) -> None:
    """Copy a worker's routed geometry back onto the caller's board.

    ``run()`` mutates its board in place; workers mutated a JSON copy,
    so the parent re-applies the meandered traces/pairs (which also
    refreshes group membership by name) and the assigned routable areas.
    """
    for trace in routed.traces:
        board.replace_trace(trace)
    for pair in routed.pairs:
        board.replace_pair(pair)
    board.routable_areas.clear()
    board.routable_areas.update(routed.routable_areas)


def _replay_observers(session: RoutingSession, result: RunResult) -> None:
    """Fire a finished run's observer callbacks in the parent process.

    Per stage record: ``on_stage_start`` (with a :class:`_StageStub`),
    then — for the match stage — every member report in order, then
    ``on_stage_end``.  Batch-level ordering is by input board, so the
    callbacks arrive exactly as a serial run would deliver them, just
    after the fact.
    """
    for record in result.stages:
        if session.on_stage_start is not None:
            session.on_stage_start(session, _StageStub(record.name))
        if record.name == "match":
            for group in result.groups:
                for member in group.members:
                    session.notify_member_done(member)
        if session.on_stage_end is not None:
            session.on_stage_end(session, record)


def run_batch(
    boards: Iterable[Board],
    config: Union[SessionConfig, str, None] = None,
    stages: Optional[Sequence[Stage]] = None,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retry: bool = False,
    on_board_done: Optional[BoardObserver] = None,
    on_stage_start: Optional[StageStartObserver] = None,
    on_stage_end: Optional[StageEndObserver] = None,
    on_member_done: Optional[MemberObserver] = None,
) -> List[RunResult]:
    """Route every board; return one result per board, in input order.

    The fault-isolation contract: this function does not raise on any
    per-board failure.  A pipeline crash yields that board's
    ``status="crashed"`` result (error record + surviving partial stage
    records) while every other board routes normally.

    ``workers=N`` (N > 1, batch > 1) fans out over OS processes with
    streaming submission; ``timeout`` bounds each board's wall-clock
    from submission (workers mode only — a single process cannot
    preempt its own pipeline), and ``retry=True`` resubmits a crashed
    board once (workers mode only — a serial in-process retry would
    re-run on the partially-mutated board).  When a requested knob
    cannot apply on the serial path, a :class:`RuntimeWarning` says so
    instead of silently dropping it.
    """
    boards = list(boards)
    if workers is not None and workers > 1 and stages is not None:
        # Fail fast even for batches that would fall back to the
        # serial path (e.g. a single board) — the contract must not
        # depend on batch size.
        raise ValueError(
            "run_batch(workers=...) runs the default pipeline; "
            "custom stages cannot be shipped to worker processes"
        )
    parallel = workers is not None and workers > 1 and len(boards) > 1
    with obs.span(
        "executor.run_batch",
        boards=len(boards),
        mode="parallel" if parallel else "serial",
        workers=(workers if parallel else 1),
    ):
        if not parallel:
            if workers is not None and workers > 1:
                warnings.warn(
                    f"workers={workers} ignored: a single-board batch runs "
                    "serially",
                    RuntimeWarning,
                    stacklevel=3,
                )
            ignored = [
                name
                for name, requested in (
                    ("timeout", timeout is not None),
                    ("retry", retry),
                )
                if requested
            ]
            if ignored:
                warnings.warn(
                    f"{' and '.join(ignored)} ignored: only workers-mode "
                    "batches can preempt or cleanly re-run a board",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return _run_batch_serial(
                boards,
                config,
                stages,
                on_board_done,
                on_stage_start,
                on_stage_end,
                on_member_done,
            )
        return _run_batch_parallel(
            boards,
            config,
            workers,
            timeout,
            retry,
            on_board_done,
            on_stage_start,
            on_stage_end,
            on_member_done,
        )


def _run_batch_serial(
    boards: List[Board],
    config: Union[SessionConfig, str, None],
    stages: Optional[Sequence[Stage]],
    on_board_done: Optional[BoardObserver],
    on_stage_start: Optional[StageStartObserver],
    on_stage_end: Optional[StageEndObserver],
    on_member_done: Optional[MemberObserver],
) -> List[RunResult]:
    if isinstance(config, str):
        config = SessionConfig.preset(config)
    results: List[RunResult] = []
    for index, board in enumerate(boards):
        with obs.span("executor.board", board=board.name, index=index) as sp:
            try:
                result = RoutingSession(
                    board,
                    config=config,
                    stages=stages,
                    on_stage_start=on_stage_start,
                    on_stage_end=on_stage_end,
                    on_member_done=on_member_done,
                ).run(capture_errors=True)
            except Exception as exc:
                # run(capture_errors=True) only lets non-stage failures
                # out (config snapshotting, a broken custom Stage list);
                # the per-board contract still holds.
                result = crashed_result(
                    board.name,
                    exc,
                    config=config,
                    meta=board.meta,
                )
            sp.set(status=result.status)
        results.append(result)
        if on_board_done is not None:
            on_board_done(index, board, result)
    return results


def _run_batch_parallel(
    boards: List[Board],
    config: Union[SessionConfig, str, None],
    workers: int,
    timeout: Optional[float],
    retry: bool,
    on_board_done: Optional[BoardObserver],
    on_stage_start: Optional[StageStartObserver],
    on_stage_end: Optional[StageEndObserver],
    on_member_done: Optional[MemberObserver],
) -> List[RunResult]:
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    from ..io import board_from_dict, board_to_dict, run_result_from_dict

    if isinstance(config, str):
        config = SessionConfig.preset(config)
    config_dict = config.to_dict() if config is not None else None
    payloads = [(board_to_dict(board), config_dict) for board in boards]

    n = len(boards)
    max_workers = min(workers, n)
    results: List[Optional[RunResult]] = [None] * n
    routed_dicts: List[Optional[Dict[str, Any]]] = [None] * n
    worker_traces: List[Optional[Dict[str, Any]]] = [None] * n
    submits = [0] * n
    queue = deque(range(n))
    #: Suspects after a pool break: routed one at a time so the next
    #: break identifies its guilty board exactly (see below).
    solo: deque = deque()
    inflight: Dict[Any, Tuple[int, Optional[float]]] = {}
    max_submits = 2 if retry else 1

    def discard_pool(pool) -> None:
        # shutdown(wait=False) alone leaves a worker mid-task running
        # (a hung board would leak a runaway process per recycle);
        # terminate the children outright — every result this pool
        # still owed has already been settled or requeued.
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()

    def settle(index: int, result: RunResult) -> None:
        # Adopt before the progress callback: on_board_done consumers
        # (the corpus runner's per-case artifact writer, progress bars
        # measuring routed geometry) see the board as a serial run would
        # leave it.
        if routed_dicts[index] is not None:
            _adopt_routed(boards[index], board_from_dict(routed_dicts[index]))
        results[index] = result
        if obs.enabled():
            # One completed span per settled board (timed in the worker;
            # monotonic clocks don't cross processes, so the duration is
            # shipped, not measured here), with the worker's own span
            # tree grafted beneath it.
            board_span = obs.record(
                "executor.board",
                result.runtime,
                board=boards[index].name,
                index=index,
                submits=submits[index],
                status=result.status,
            )
            shipped = worker_traces[index]
            if shipped and board_span is not None:
                obs.current_trace().graft(shipped, parent_id=board_span.span_id)
        if on_board_done is not None:
            on_board_done(index, boards[index], result)

    def settle_or_retry(index: int, result: RunResult) -> None:
        """Crashed boards get one more submission when ``retry`` allows."""
        if result.status == "crashed" and submits[index] < max_submits:
            # Drop any partial geometry from the failed attempt — the
            # retry resubmits the pristine payload and must not mix
            # attempts on adoption.
            routed_dicts[index] = None
            worker_traces[index] = None
            obs.record(
                "executor.retry",
                0.0,
                board=boards[index].name,
                attempt=submits[index],
            )
            queue.append(index)
        else:
            settle(index, result)

    # Arm worker-side tracing only while this (traced) batch runs:
    # workers read the flag at fork/spawn, run each board under a local
    # trace and ship it home with the result.
    tracing = obs.enabled()
    prev_env = os.environ.get(obs.ENV_VAR)
    if tracing:
        os.environ[obs.ENV_VAR] = "1"
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        while queue or solo or inflight:
            # Streaming submission: keep exactly the pool's width in
            # flight so a board's deadline clock starts when it actually
            # begins executing, not when the whole batch was enqueued.
            # While suspects from a pool break are pending, width drops
            # to one — solo runs are what make the next break
            # attributable to exactly one board.
            submit_failed = False
            while not submit_failed and len(inflight) < (
                1 if solo else max_workers
            ):
                if solo:
                    if inflight:
                        break
                    source = solo
                elif queue:
                    source = queue
                else:
                    break
                index = source.popleft()
                try:
                    future = pool.submit(_route_board_worker, payloads[index])
                except (BrokenProcessPool, RuntimeError):
                    # A worker died in the window between the done-loop
                    # and this submission; put the board back and let
                    # the break handling below rebuild the pool (the
                    # contract is that run_batch never raises per-board).
                    source.appendleft(index)
                    submit_failed = True
                    break
                submits[index] += 1
                obs.record(
                    "executor.submit",
                    0.0,
                    board=boards[index].name,
                    attempt=submits[index],
                )
                deadline = (
                    time.monotonic() + timeout if timeout is not None else None
                )
                inflight[future] = (index, deadline)
            if not inflight:
                # Submission failed with nothing in flight: there are no
                # futures for the done-loop to surface the break through,
                # so rebuild here and resubmit.
                discard_pool(pool)
                pool = ProcessPoolExecutor(max_workers=max_workers)
                continue

            wait_s = None
            if timeout is not None:
                now = time.monotonic()
                wait_s = max(
                    0.0,
                    min(d for _, d in inflight.values() if d is not None) - now,
                )
            with obs.span("executor.wait", inflight=len(inflight)):
                done, _ = wait(
                    list(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
                )

            pool_broke = False
            for future in done:
                index, _ = inflight.pop(future)
                try:
                    result_dict, routed_dict, worker_trace = future.result()
                except BrokenProcessPool:
                    # The pool is gone and every unfinished future gets
                    # this exception at once; handled wholesale below
                    # alongside the still-inflight boards.
                    pool_broke = True
                    inflight[future] = (index, None)
                except Exception as exc:  # pickling failures and kin
                    settle_or_retry(
                        index,
                        crashed_result(
                            boards[index].name,
                            exc,
                            config=config,
                            meta=boards[index].meta,
                        ),
                    )
                else:
                    routed_dicts[index] = routed_dict
                    worker_traces[index] = worker_trace
                    result = run_result_from_dict(result_dict)
                    settle_or_retry(index, result)

            if pool_broke:
                # Graceful degradation with exact guilt attribution.  A
                # break with one board in flight is that board's doing:
                # settle it crashed.  With several in flight, guilt is
                # unattributable, so every one becomes a suspect routed
                # *one at a time* (see the submission loop) — innocents
                # complete their solo run untouched, and the killer's
                # solo break convicts it alone.  Submissions are
                # refunded (the abort is the pool's doing, it must not
                # spend anyone's retry).
                broken = list(inflight.items())
                inflight.clear()
                if len(broken) == 1:
                    _future, (index, _deadline) = broken[0]
                    settle(
                        index,
                        crashed_result(
                            boards[index].name,
                            RuntimeError(
                                "worker process died while routing "
                                "this board"
                            ),
                            config=config,
                            meta=boards[index].meta,
                        ),
                    )
                else:
                    for _future, (index, _deadline) in broken:
                        submits[index] -= 1
                        solo.append(index)
                discard_pool(pool)
                pool = ProcessPoolExecutor(max_workers=max_workers)
                continue

            if timeout is not None:
                now = time.monotonic()
                expired = [
                    (future, index)
                    for future, (index, deadline) in inflight.items()
                    if deadline is not None and now >= deadline
                ]
                recycle = False
                for future, index in expired:
                    del inflight[future]
                    if not future.cancel():
                        # Already executing: the worker cannot be
                        # preempted, so the pool is recycled below to
                        # reclaim the slot deterministically.
                        recycle = True
                    settle_or_retry(
                        index,
                        crashed_result(
                            boards[index].name,
                            TimeoutError(
                                f"board exceeded the per-board timeout "
                                f"of {timeout} s"
                            ),
                            config=config,
                            meta=boards[index].meta,
                        ),
                    )
                if recycle:
                    # Innocent in-flight boards are resubmitted with a
                    # fresh deadline and without spending a retry (their
                    # abort is the executor's doing, not theirs); the
                    # discarded pool's workers are terminated, so the
                    # hung board's process does not outlive its budget.
                    for future, (index, _) in list(inflight.items()):
                        submits[index] -= 1
                        queue.append(index)
                    inflight.clear()
                    discard_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=max_workers)
    finally:
        discard_pool(pool)
        if tracing:
            if prev_env is None:
                os.environ.pop(obs.ENV_VAR, None)
            else:
                os.environ[obs.ENV_VAR] = prev_env

    final_results: List[RunResult] = []
    replay = (
        on_stage_start is not None
        or on_stage_end is not None
        or on_member_done is not None
    )
    for index, board in enumerate(boards):
        result = results[index]
        assert result is not None  # the scheduling loop settles every index
        final_results.append(result)
        if replay:
            session = RoutingSession(
                board,
                config=config,
                on_stage_start=on_stage_start,
                on_stage_end=on_stage_end,
                on_member_done=on_member_done,
            )
            _replay_observers(session, result)
    return final_results
