"""Fault-isolated batch execution: one crashing board must not sink a batch.

Covers the executor contract end to end: crash capture inside ``run()``
(partial stage records survive), per-board isolation in serial and
workers mode, the per-board timeout, retry-once, worker-death recovery,
the ``on_board_done`` progress callback, and JSON round-tripping of
crashed results.  The worker-patching tests rely on the ``fork`` start
method (the child inherits the patched module) and are skipped on
platforms without it.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro import (
    Board,
    DesignRules,
    MatchGroup,
    Point,
    Polyline,
    RoutingSession,
    Trace,
)
from repro import faults
from repro.api import STATUS_CRASHED, LengthMatchingStage
from repro.api import executor as executor_mod
from repro.faults import FaultPlan, FaultSpec
from repro.io import run_result_from_dict, run_result_to_dict

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker patching needs fork-inherited module state",
)


def good_board(name, target=115.0):
    board = Board.with_rect_outline(0, 0, 100, 45, RULES)
    board.name = name
    member = board.add_trace(
        Trace("s0", Polyline([Point(5, 15), Point(95, 15)]), width=1.0)
    )
    board.add_group(MatchGroup("bus", members=[member], target_length=target))
    return board


def poison_board(name="poison"):
    """A board whose default pipeline crashes (ZeroDivisionError): the
    group member's path is a single zero-length segment.  Survives the
    JSON codecs, so the crash happens inside the worker's pipeline."""
    board = Board.with_rect_outline(0, 0, 100, 40, RULES)
    board.name = name
    trace = board.add_trace(
        Trace("bad", Polyline([Point(5, 20), Point(5, 20)]), width=1.0)
    )
    board.add_group(MatchGroup("g", members=[trace], target_length=100.0))
    return board


def batch_with_poison():
    return [good_board("b0"), poison_board("p1"), good_board("b2")]


@pytest.fixture
def poisoned_batch():
    """Three good boards; the match stage crashes on ``p1`` wherever it
    runs.  Workers decode their board, and the decoder rejects the
    zero-length path of :func:`poison_board` before any stage runs, so
    the crash is an injected fault exported to the workers instead."""
    plan = FaultPlan(
        "poison", specs=[FaultSpec(site="stage.match", mode="raise", match="p1")]
    )
    with faults.activate(plan, env=True):
        yield [good_board("b0"), good_board("p1"), good_board("b2")]


class TestRunCaptureErrors:
    def test_default_still_raises(self):
        with pytest.raises(ZeroDivisionError):
            RoutingSession(poison_board(), config="fast").run()

    def test_capture_returns_partial_result(self):
        result = RoutingSession(poison_board(), config="fast").run(
            capture_errors=True
        )
        assert result.status == STATUS_CRASHED
        assert not result.ok()
        # Stages that ran before the crash keep their records; the
        # crashing stage gets a "crashed" record.
        assert [(s.name, s.status) for s in result.stages] == [
            ("region", "skipped"),
            ("match", "crashed"),
        ]
        assert result.error["type"] == "ZeroDivisionError"
        assert result.error["stage"] == "match"
        assert any("ZeroDivisionError" in line for line in result.error["traceback"])
        assert result.runtime > 0.0

    def test_crashed_summary_mentions_error(self):
        result = RoutingSession(poison_board(), config="fast").run(
            capture_errors=True
        )
        text = result.summary()
        assert "CRASHED" in text
        assert "ZeroDivisionError" in text


class TestSerialIsolation:
    def test_poisoned_board_does_not_sink_batch(self):
        results = RoutingSession.run_many(batch_with_poison(), config="fast")
        assert [r.status for r in results] == ["ok", "crashed", "ok"]
        assert results[1].error["type"] == "ZeroDivisionError"
        assert results[0].ok() and results[2].ok()

    def test_injected_raising_stage_isolated(self):
        class BoomStage:
            name = "boom"

            def run(self, session, result):
                if session.board.name == "b1":
                    raise RuntimeError("injected stage crash")
                from repro.api import StageRecord

                return StageRecord(self.name)

        boards = [good_board(f"b{k}") for k in range(3)]
        results = RoutingSession.run_many(
            boards, stages=[LengthMatchingStage(), BoomStage()]
        )
        assert [r.status for r in results] == ["ok", "crashed", "ok"]
        crashed = results[1]
        assert crashed.error == {
            "type": "RuntimeError",
            "message": "injected stage crash",
            "stage": "boom",
            "traceback": crashed.error["traceback"],
        }
        # The match stage's record and group report survived the crash.
        assert crashed.stage("match").status == "ok"
        assert len(crashed.groups) == 1

    def test_on_board_done_fires_in_input_order(self):
        events = []
        RoutingSession.run_many(
            batch_with_poison(),
            config="fast",
            on_board_done=lambda i, b, r: events.append((i, b.name, r.status)),
        )
        assert events == [(0, "b0", "ok"), (1, "p1", "crashed"), (2, "b2", "ok")]


class TestWorkersIsolation:
    def test_poisoned_board_does_not_sink_batch(self, poisoned_batch):
        results = RoutingSession.run_many(poisoned_batch, config="fast", workers=2)
        assert [r.board for r in results] == ["b0", "p1", "b2"]
        assert [r.status for r in results] == ["ok", "crashed", "ok"]
        crashed = results[1]
        assert crashed.error["type"] == "FaultInjected"
        assert crashed.error["stage"] == "match"
        assert crashed.stage("region").status == "skipped"

    def test_matches_serial_outcomes(self, poisoned_batch):
        serial = RoutingSession.run_many(poisoned_batch, config="fast")
        parallel = RoutingSession.run_many(
            [good_board(b.name) for b in poisoned_batch], config="fast", workers=2
        )
        for rs, rp in zip(serial, parallel):
            assert rs.status == rp.status
            assert (rs.error is None) == (rp.error is None)
            assert [s.status for s in rs.stages] == [s.status for s in rp.stages]

    def test_on_board_done_covers_every_board(self, poisoned_batch):
        events = []
        RoutingSession.run_many(
            poisoned_batch,
            config="fast",
            workers=2,
            on_board_done=lambda i, b, r: events.append((i, r.status)),
        )
        assert sorted(events) == [(0, "ok"), (1, "crashed"), (2, "ok")]

    def test_crashed_result_roundtrips_through_io(self, poisoned_batch):
        results = RoutingSession.run_many(poisoned_batch, config="fast", workers=2)
        crashed = results[1]
        rebuilt = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(crashed)))
        )
        assert rebuilt == crashed
        assert rebuilt.status == STATUS_CRASHED

    def test_board_the_decoder_rejects_is_crashed_not_raised(self):
        # The worker's decoder refuses the zero-length path; the parent
        # must get a crashed row and keep its board, not re-decode the
        # rejected document and raise.
        batch = batch_with_poison()
        before = batch[1].trace_by_name("bad").path.points
        results = RoutingSession.run_many(batch, config="fast", workers=2)
        assert [r.status for r in results] == ["ok", "crashed", "ok"]
        assert results[1].error["type"] == "ValueError"
        assert "zero length" in results[1].error["message"]
        assert batch[1].trace_by_name("bad").path.points == before

    def test_synthetic_crash_records_run_provenance(self):
        # Boards settled crashed by the parent (here: every board past a
        # 1 ms budget) record the provenance a completed run of the
        # same board records, never an alias into board.meta.
        generated = good_board("generated")
        generated.meta["scenario"] = {
            "name": "serpentine_bus",
            "seed": 0,
            "params": {"members": 2},
        }
        imported = good_board("imported")
        imported.meta["kicad"] = {"source": "board.kicad_pcb", "sha256": "ab" * 32}
        boards = [generated, imported]
        results = RoutingSession.run_many(
            boards, config="fast", workers=2, timeout=0.001
        )
        assert [r.error["type"] for r in results] == ["TimeoutError"] * 2
        assert results[0].provenance is not generated.meta["scenario"]
        for board, result in zip(boards, results):
            completed = RoutingSession(board, config="fast").run()
            assert result.provenance == completed.provenance
        assert results[1].provenance == {
            "name": "imported",
            "kicad": imported.meta["kicad"],
        }

    def test_single_board_fallback_warns(self):
        with pytest.warns(RuntimeWarning, match="workers=8 ignored"):
            results = RoutingSession.run_many(
                [good_board("only")], config="fast", workers=8
            )
        assert len(results) == 1 and results[0].ok()

    def test_timeout_and_retry_warn_on_serial_path(self):
        with pytest.warns(RuntimeWarning, match="timeout and retry ignored"):
            RoutingSession.run_many(
                [good_board("only")], config="fast", timeout=5.0, retry=True
            )


# The fault-injecting worker must be a module-level function: the pool
# pickles it by reference in the parent (closures would fail right
# there), and the forked child resolves it against its inherited copy
# of this module — including the _FAULT configuration set by the test.
_REAL_WORKER = executor_mod._route_board_worker
_FAULT = {"mode": None, "flag": None}


def _faulty_worker(payload):
    name = payload[0]["name"]
    mode = _FAULT["mode"]
    if mode == "slow" and name == "slow":
        time.sleep(30)
    elif mode == "die" and name == "die":
        os._exit(13)
    elif mode == "crash_once" and name == "flaky":
        if not os.path.exists(_FAULT["flag"]):
            open(_FAULT["flag"], "w").close()
            raise RuntimeError("transient")
    elif mode == "crash_always" and name == "flaky":
        raise RuntimeError("always")
    return _REAL_WORKER(payload)


@fork_only
class TestWorkerDegradation:
    """Timeout, retry and worker-death recovery, via a fault-injecting
    worker (fork-inherited, so the child executes the configured fault)."""

    @pytest.fixture(autouse=True)
    def _patch_worker(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_route_board_worker", _faulty_worker)
        yield
        _FAULT["mode"] = None
        _FAULT["flag"] = None

    def test_per_board_timeout_marks_board_crashed(self):
        _FAULT["mode"] = "slow"
        boards = [good_board("b0"), good_board("slow"), good_board("b2")]
        started = time.perf_counter()
        # The good boards route in ~0.1 s but share a loaded CI core
        # with the pool spin-up; the budget needs real headroom so only
        # the sleeping board can plausibly exceed it.
        results = RoutingSession.run_many(
            boards, config="fast", workers=2, timeout=8.0
        )
        assert time.perf_counter() - started < 28.0
        assert [r.status for r in results] == ["ok", "crashed", "ok"]
        assert results[1].error["type"] == "TimeoutError"

    def test_dead_worker_recovered_and_batch_completes(self):
        _FAULT["mode"] = "die"
        boards = [
            good_board("b0"),
            good_board("die"),
            good_board("b2"),
            good_board("b3"),
        ]
        results = RoutingSession.run_many(boards, config="fast", workers=2)
        assert [r.board for r in results] == ["b0", "die", "b2", "b3"]
        assert results[1].status == STATUS_CRASHED
        assert "worker process died" in results[1].error["message"]
        # Solo re-runs attribute the break exactly: every innocent that
        # shared the broken pool completes, none is falsely crashed.
        assert [results[k].status for k in (0, 2, 3)] == ["ok", "ok", "ok"]

    def test_two_worker_killers_both_convicted_innocents_survive(self):
        _FAULT["mode"] = "die"
        # Two killers bracketing innocents: each pool break sends the
        # in-flight set to solo runs, where each killer convicts itself
        # alone and every innocent still settles ok.
        boards = [
            good_board("die"),
            good_board("b1"),
            good_board("die-2"),
            good_board("b3"),
        ]
        # _faulty_worker matches the exact name "die"; rename the second
        # board so both trigger the fault.
        boards[2].name = "die"
        results = RoutingSession.run_many(boards, config="fast", workers=2)
        assert [r.status for r in results] == ["crashed", "ok", "crashed", "ok"]
        for crashed in (results[0], results[2]):
            assert "worker process died" in crashed.error["message"]

    def test_retry_once_recovers_transient_crash(self, tmp_path):
        _FAULT["mode"] = "crash_once"
        _FAULT["flag"] = str(tmp_path / "crashed_once")
        boards = [good_board("b0"), good_board("flaky"), good_board("b2")]
        results = RoutingSession.run_many(
            boards, config="fast", workers=2, retry=True
        )
        assert [r.status for r in results] == ["ok", "ok", "ok"]

    def test_without_retry_transient_crash_settles_crashed(self):
        _FAULT["mode"] = "crash_always"
        boards = [good_board("b0"), good_board("flaky")]
        results = RoutingSession.run_many(boards, config="fast", workers=2)
        assert [r.status for r in results] == ["ok", "crashed"]
        assert results[1].error["message"] == "always"
