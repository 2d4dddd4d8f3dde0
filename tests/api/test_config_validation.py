"""Config knobs are checked when a snapshot is loaded.

``SessionConfig.from_dict`` runs :meth:`SessionConfig.check`, which
``POST /route`` answers with a 400 and ``repro route --tolerance`` with
exit 2.  Without it a NaN ``cell`` crashed the region stage ("cannot
convert float NaN to integer"), a NaN or negative ``reach`` silently
ended as "no neighbour regions", a NaN tolerance turned a missed target
into a 200 ``ok`` (``abs(miss) > nan`` is never true), and a one-point
DP, a zero or NaN ``ldisc``, a negative extension tolerance or a string
count crashed the router with a 500.
"""

import json
import math
import re

import pytest

from repro.api import RoutingSession, SessionConfig
from repro.cli import main
from repro.io import board_to_dict, save_board
from repro.scenarios import generate
from repro.server import RouterApp

BAD_REGION_KNOBS = [
    {"cell": math.nan},
    {"cell": math.inf},
    {"cell": 0.0},
    {"cell": -2.0},
    {"cell": "3"},
    {"cell": True},
    {"safety": math.nan},
    {"safety": 0},
    {"safety": -1.5},
    {"safety": None},
    {"reach": math.nan},
    {"reach": -math.inf},
    {"reach": math.inf},
    {"reach": -0.5},
]


@pytest.mark.smoke
@pytest.mark.parametrize("knobs", BAD_REGION_KNOBS, ids=repr)
def test_from_dict_rejects_bad_region_knob(knobs):
    (name,) = knobs
    with pytest.raises(ValueError, match=f"region.{name} must be a finite number"):
        SessionConfig.from_dict({"region": knobs})


@pytest.mark.parametrize(
    "knobs",
    [
        {"cell": None, "reach": None},
        {"cell": 4, "safety": 1, "reach": 0},
        {"cell": 2.5, "safety": 0.75, "reach": 12.0},
    ],
    ids=repr,
)
def test_from_dict_accepts_valid_region_knobs(knobs):
    config = SessionConfig.from_dict({"region": knobs})
    for name, value in knobs.items():
        assert getattr(config.region, name) == value


def test_default_snapshot_still_round_trips():
    config = SessionConfig.preset("default")
    clone = SessionConfig.from_dict(config.to_dict())
    assert clone.fingerprint() == config.fingerprint()


def test_zero_reach_runs_the_region_stage():
    # reach 0 is a legal (if useless) setting: the stage runs and reports
    # its own failure instead of being refused at the door.
    from repro.scenarios import generate

    board = generate("mixed_groups", seed=0)
    board.routable_areas.clear()
    config = SessionConfig.from_dict({"region": {"reach": 0}})
    result = RoutingSession(board, config=config).run()
    region = next(r for r in result.stages if r.name == "region")
    assert region.status in ("ok", "failed")
    assert result.status != "crashed"


def _fast_snapshot(**patch):
    """The ``fast`` preset's snapshot with top-level or ``section.knob``
    values replaced."""
    snapshot = SessionConfig.preset("fast").to_dict()
    for dotted, value in patch.items():
        *section, name = dotted.split("__")
        target = snapshot
        for part in section:
            target = target[part]
        target[name] = value
    return snapshot


BAD_KNOBS = [
    ("tolerance", {"tolerance": math.nan, "extension__max_iterations": 0}),
    ("tolerance", {"tolerance": math.inf}),
    ("tolerance", {"tolerance": 0.0}),
    ("tolerance", {"tolerance": "0.1"}),
    ("extension.tolerance", {"extension__tolerance": -1}),
    ("extension.tolerance", {"extension__tolerance": None}),
    ("extension.tolerance", {"extension__tolerance": math.nan}),
    ("extension.ldisc", {"extension__ldisc": 0}),
    ("extension.ldisc", {"extension__ldisc": math.nan}),
    ("extension.ldisc", {"extension__ldisc": -0.5}),
    ("extension.max_points", {"extension__max_points": 1}),
    ("extension.max_points", {"extension__max_points": 64.0}),
    ("extension.max_points", {"extension__max_points": True}),
    ("extension.max_iterations", {"extension__max_iterations": "10"}),
    ("extension.max_iterations", {"extension__max_iterations": -1}),
    ("extension.max_iterations", {"extension__max_iterations": True}),
    ("pair_topup_rounds", {"pair_topup_rounds": -1}),
    ("pair_topup_rounds", {"pair_topup_rounds": 1.5}),
    ("breakout_nodes", {"breakout_nodes": False}),
    ("breakout_nodes", {"breakout_nodes": None}),
    ("compensate_pairs", {"compensate_pairs": 1}),
    ("apply_miter", {"apply_miter": "no"}),
    ("extension.allow_node_feet", {"extension__allow_node_feet": None}),
    ("extension.mirrored_chevrons", {"extension__mirrored_chevrons": 0}),
    ("extension.allow_plocal", {"extension__allow_plocal": "true"}),
    ("region.enabled", {"region__enabled": 0}),
    ("drc.enabled", {"drc__enabled": None}),
    ("drc.check_areas", {"drc__check_areas": 1.0}),
]


@pytest.mark.smoke
@pytest.mark.parametrize("name, patch", BAD_KNOBS, ids=repr)
def test_from_dict_rejects_bad_knob(name, patch):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        SessionConfig.from_dict(_fast_snapshot(**patch))


@pytest.fixture(scope="module")
def serpentine_doc():
    return board_to_dict(generate("serpentine_bus", seed=0))


@pytest.mark.parametrize("name, patch", BAD_KNOBS, ids=repr)
def test_route_answers_bad_knob_with_400(name, patch, serpentine_doc, tmp_path):
    app = RouterApp(str(tmp_path / "cache"))
    payload = {"board": serpentine_doc, "config": _fast_snapshot(**patch)}
    # The request the server decodes: JSON accepts NaN and Infinity.
    payload = json.loads(json.dumps(payload))
    http, body = app.route(payload)
    assert http == 400, body
    assert name in body["error"]["message"]


def test_nan_tolerance_is_not_a_false_ok(serpentine_doc, tmp_path):
    # Without iterations the members miss their target: the finite
    # tolerance reads 422 "failed"; a NaN one must not read 200 "ok".
    app = RouterApp(str(tmp_path / "cache"))
    finite = {"tolerance": 1e-3, "extension__max_iterations": 0}
    http, body = app.route(
        {"board": serpentine_doc, "config": _fast_snapshot(**finite)}
    )
    assert (http, body["status"]) == (422, "failed")
    http, _ = app.route(
        {"board": serpentine_doc, "config": _fast_snapshot(**BAD_KNOBS[0][1])}
    )
    assert http == 400


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_cli_tolerance_is_checked(value, tmp_path, capsys):
    path = str(tmp_path / "board.json")
    save_board(generate("serpentine_bus", seed=0), path)
    assert main(["route", path, "--preset", "fast", f"--tolerance={value}"]) == 2
    assert "tolerance must be a finite number > 0" in capsys.readouterr().err


def test_valid_knobs_pass_the_check():
    for name in SessionConfig.PRESETS:
        snapshot = SessionConfig.preset(name).to_dict()
        assert SessionConfig.from_dict(snapshot).fingerprint() == (
            SessionConfig.preset(name).fingerprint()
        )
    config = SessionConfig.from_dict(
        _fast_snapshot(
            tolerance=2,
            extension__ldisc=0.5,
            extension__max_points=2,
            extension__max_iterations=0,
            pair_topup_rounds=0,
            breakout_nodes=3,
        )
    )
    assert config.extension.max_points == 2 and config.tolerance == 2
