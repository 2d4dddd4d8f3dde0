"""Region knobs are checked when a config snapshot is loaded.

A NaN ``cell`` used to crash the region stage ("cannot convert float NaN
to integer"), and a NaN or negative ``reach`` silently ended as "no
neighbour regions"; both are now refused by ``SessionConfig.from_dict``.
"""

import math

import pytest

from repro.api import RoutingSession, SessionConfig

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
