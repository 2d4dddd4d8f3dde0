"""The output checks catch what they claim to."""

import copy
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest  # noqa: E402

import checks  # noqa: E402

BOARD = {
    "traces": [
        {"name": "a", "path": [[0.0, 0.0], [10.0, 0.0]]},
        {"name": "b", "path": [[0.0, 5.0], [8.0, 5.0]]},
    ],
    "pairs": [],
    "groups": [{"name": "g", "members": ["a", "b"], "target_length": 10.0, "tolerance": 0.01}],
}


def routed_board(b_path):
    routed = copy.deepcopy(BOARD)
    routed["traces"][1]["path"] = b_path
    return routed


def result(status, b_length):
    return {
        "status": status,
        "groups": [{"members": [{"name": "a", "length_after": 10.0}, {"name": "b", "length_after": b_length}]}],
    }


MEANDER = [[0.0, 5.0], [4.0, 5.0], [4.0, 6.0], [5.0, 6.0], [5.0, 5.0], [8.0, 5.0]]


def failed_kinds(outcomes):
    return {kind for kind, problems in outcomes.items() if problems}


@pytest.fixture
def fake_drc(monkeypatch):
    """``check_board`` stand-in: reports ``violations`` per call."""
    calls = []
    drc = types.ModuleType("repro.drc")
    io = types.ModuleType("repro.io")
    io.board_from_dict = lambda d: d
    drc.check_board = lambda board, check_areas: calls.append(board) or [None] * fake.violations
    fake = types.SimpleNamespace(calls=calls, violations=0)
    monkeypatch.setitem(sys.modules, "repro", types.ModuleType("repro"))
    monkeypatch.setitem(sys.modules, "repro.drc", drc)
    monkeypatch.setitem(sys.modules, "repro.io", io)
    return fake


def test_matched_member_passes_and_counts():
    outcomes, stats = checks.check_routed(BOARD, routed_board(MEANDER), result("failed", 10.0))
    assert set(outcomes) == {"answer", "pins", "lengths"} and not failed_kinds(outcomes)
    assert stats["members"] == 2 and stats["outside"] == 1 and stats["matched"] == 1
    assert len(stats["sha256"]) == 64


def test_moved_pin_is_a_failure():
    moved = [[0.0, 5.0 + 1e-6]] + MEANDER[1:]
    outcomes, _ = checks.check_routed(BOARD, routed_board(moved), result("failed", 10.0))
    assert failed_kinds(outcomes) == {"pins"}
    assert "pins moved" in outcomes["pins"][0]


def test_reported_length_must_match_geometry():
    outcomes, _ = checks.check_routed(BOARD, routed_board(MEANDER), result("failed", 9.0))
    assert failed_kinds(outcomes) == {"lengths"}
    assert "geometry says" in outcomes["lengths"][0]


def test_ok_status_requires_every_member_in_tolerance(fake_drc):
    short = [[0.0, 5.0], [8.0, 5.0]]
    outcomes, stats = checks.check_routed(BOARD, routed_board(short), result("ok", 8.0))
    assert failed_kinds(outcomes) == {"tolerance"}
    assert stats["matched"] == 0


def test_drc_runs_on_an_ok_board_that_already_fails_another_check(fake_drc):
    moved = [[0.0, 5.0 + 1e-6]] + MEANDER[1:]
    fake_drc.violations = 2
    outcomes, _ = checks.check_routed(BOARD, routed_board(moved), result("ok", 10.0))
    assert len(fake_drc.calls) == 1
    assert failed_kinds(outcomes) == {"pins", "drc"}


def test_drc_runs_only_on_boards_called_ok(fake_drc):
    outcomes, _ = checks.check_routed(BOARD, routed_board(MEANDER), result("failed", 10.0))
    assert fake_drc.calls == [] and "drc" not in outcomes


def test_crash_is_a_failure():
    outcomes, _ = checks.check_routed(BOARD, None, {"status": "crashed", "error": {"type": "X"}})
    assert failed_kinds(outcomes) == {"answer"}


def test_every_kind_reported_is_a_known_kind(fake_drc):
    outcomes, _ = checks.check_routed(BOARD, routed_board(MEANDER), result("ok", 10.0))
    assert set(outcomes) <= set(checks.KINDS)
