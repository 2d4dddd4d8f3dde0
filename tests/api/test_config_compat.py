"""Snapshots that still carry the hard-wired knobs load unchanged.

``verify_after_apply``, ``min_extension_gain`` and ``max_width_steps``
left :class:`~repro.core.ExtensionConfig`, and ``strict`` left
``RegionConfig`` and ``DrcConfig``: every caller ran them at their
defaults.  Config snapshots and run results stored before then carry
those keys.  They must still load, and a route under such a loaded
config must give the same routed board as today's preset.
"""

import json
import os

import pytest

from oracles.digests import board_digest
from repro.api import RoutingSession, SessionConfig
from repro.io import load_result
from repro.scenarios import generate

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "route_result.golden.json"
)


def with_removed_keys(snapshot):
    """``snapshot`` as it was written while the knobs still existed."""
    snapshot = json.loads(json.dumps(snapshot))
    snapshot["extension"].update(
        max_width_steps=None, verify_after_apply=True, min_extension_gain=1e-6
    )
    snapshot["region"]["strict"] = False
    snapshot["drc"]["strict"] = False
    return snapshot


@pytest.mark.smoke
@pytest.mark.parametrize("preset", SessionConfig.PRESETS)
def test_stored_config_snapshot_loads(preset):
    current = SessionConfig.preset(preset)
    loaded = SessionConfig.from_dict(with_removed_keys(current.to_dict()))
    assert loaded.to_dict() == current.to_dict()
    assert loaded.fingerprint() == current.fingerprint()


def test_stored_run_result_loads(tmp_path):
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["config"] = with_removed_keys(doc["config"])
    path = tmp_path / "old_result.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = load_result(str(path))
    # The artifact keeps what was stored; the config it names is today's.
    assert result.config["extension"]["verify_after_apply"] is True
    assert result.config["drc"]["strict"] is False
    config = SessionConfig.from_dict(result.config)
    assert config.fingerprint() == SessionConfig.preset("fast").fingerprint()


@pytest.mark.parametrize("family", ["serpentine_bus", "diffpair_cluster"])
def test_route_under_stored_config_matches_default(family):
    default = SessionConfig.preset("default")
    loaded = SessionConfig.from_dict(with_removed_keys(default.to_dict()))
    digests = []
    for config in (default, loaded):
        board = generate(family, seed=0)
        result = RoutingSession(board, config=config).run()
        digests.append((result.status, board_digest(board)))
    assert digests[0] == digests[1]
