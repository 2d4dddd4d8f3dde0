"""Imported boards through the serving stack: POST /route semantics.

The server never learns about KiCad — the imported board travels as
plain board JSON with its ``meta["kicad"]`` stamp, and the
content-addressed cache keys off those bytes, so re-posting the same
fixture import is a cache hit.
"""

import pytest

from repro.io import board_to_dict
from repro.model.kicad import import_board_file
from repro.server import RouterApp

from conftest import fixture_path


@pytest.fixture
def app(tmp_path) -> RouterApp:
    return RouterApp(str(tmp_path / "cache"))


@pytest.fixture
def payload():
    board, _report, _digest = import_board_file(
        fixture_path("demo_bus.kicad_pcb"), match="BUS"
    )
    return {"board": board_to_dict(board), "preset": "fast"}


@pytest.mark.smoke
def test_route_imported_board(app, payload, decoded):
    status, envelope = app.route(payload)
    assert status == 200
    assert envelope["status"] == "ok"
    assert envelope["cache"] == "miss"
    result = decoded(envelope)["result"]
    assert result["board"] == "demo_bus"
    # The run artifact keeps the ingestion provenance end to end.
    assert result["provenance"]["name"] == "imported"
    assert result["provenance"]["kicad"]["match"] == "BUS"


@pytest.mark.smoke
def test_reimported_fixture_is_a_cache_hit(app, payload):
    first_status, first = app.route(payload)
    assert first_status == 200 and first["cache"] == "miss"
    # A fresh import of the same bytes produces the same board JSON,
    # hence the same key: the pipeline never runs again.
    board, _report, _digest = import_board_file(
        fixture_path("demo_bus.kicad_pcb"), match="BUS"
    )
    second_status, second = app.route(
        {"board": board_to_dict(board), "preset": "fast"}
    )
    assert second_status == 200
    assert second["cache"] == "hit"
    assert second["key"] == first["key"]
