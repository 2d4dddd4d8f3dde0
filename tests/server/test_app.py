"""RouterApp unit tests — the whole protocol without a socket.

Covers the status→HTTP mapping (ok→200, failed→422, crashed→500),
request validation (→400 envelopes), the cache hit/miss lifecycle
including the poisoned-stage proof that a hit never touches the
pipeline, batch event streaming, and worker-count clamping.  The
body-framing checks (``Content-Length`` → 400/413) live in the HTTP
adapter, so :class:`TestContentLength` drives a live daemon with raw
socket writes.
"""

import json
import socket

import pytest

import repro.server.app as app_mod
from repro import faults
from repro.api import SessionConfig
from repro.api.config import DrcConfig, RegionConfig
from repro.faults import FaultPlan, FaultSpec
from repro.io import board_to_dict
from repro.geometry import Point, Polyline
from repro.model import Board, DesignRules, MatchGroup, Trace
from repro.server import RequestError, RouterApp, make_http_server

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)


def good_board(name="b0", target=115.0) -> Board:
    board = Board.with_rect_outline(0, 0, 100, 45, RULES)
    board.name = name
    member = board.add_trace(
        Trace("s0", Polyline([Point(5, 15), Point(95, 15)]), width=1.0)
    )
    board.add_group(MatchGroup("bus", members=[member], target_length=target))
    return board


@pytest.fixture
def match_crashes():
    """Crash the match stage of every request (an injected fault): no
    board the decoder accepts is known to crash the router."""
    plan = FaultPlan("crash", specs=[FaultSpec(site="stage.match", mode="raise")])
    with faults.activate(plan):
        yield


def failing_payload() -> dict:
    """A request whose routing verdict is ``failed`` (match misses its
    target in a corridor too tight to absorb the deficit)."""
    board = Board.with_rect_outline(0, 0, 30, 8, RULES)
    board.name = "doomed"
    t = board.add_trace(
        Trace("t0", Polyline([Point(2, 4), Point(28, 4)]), width=1.0)
    )
    board.add_group(MatchGroup("g", members=[t], target_length=200.0))
    config = SessionConfig(
        region=RegionConfig(enabled=False), drc=DrcConfig(enabled=False)
    )
    config.extension.max_iterations = 50
    return {"board": board_to_dict(board), "config": config.to_dict()}


@pytest.fixture
def app(tmp_path) -> RouterApp:
    return RouterApp(str(tmp_path / "cache"))


@pytest.mark.smoke
class TestPlumbing:
    def test_healthz(self, app):
        status, envelope = app.healthz()
        assert status == 200
        assert envelope["ok"] is True and envelope["version"]

    def test_stats_shape_and_request_counters(self, app):
        app.healthz()
        status, envelope = app.stats()
        assert status == 200
        assert envelope["kind"] == "stats_response"
        assert envelope["requests"]["healthz"] == 1
        assert envelope["cache"]["entries"] == 0
        assert envelope["uptime_s"] >= 0


@pytest.mark.smoke
class TestRouteStatusMapping:
    def test_ok_is_200_miss_then_hit(self, app):
        payload = {"board": board_to_dict(good_board()), "preset": "fast"}
        status, first = app.route(payload)
        assert status == 200
        assert first["kind"] == "route_response"
        assert first["cache"] == "miss" and first["status"] == "ok"
        status, second = app.route(payload)
        assert status == 200 and second["cache"] == "hit"
        # The artifact served from cache is the routed artifact.
        assert second["key"] == first["key"]
        assert second["result"] == first["result"]
        assert app.cache.stats()["hits"] == 1

    def test_failed_is_422_with_verdict(self, app):
        status, envelope = app.route(failing_payload())
        assert status == 422
        assert envelope["status"] == "failed"
        assert envelope["result"]["board"] == "doomed"

    def test_failed_verdict_is_cached(self, app):
        # failed is a deterministic verdict, same as ok: the second
        # request must not re-route the board.
        payload = failing_payload()
        app.route(payload)
        status, envelope = app.route(payload)
        assert status == 422 and envelope["cache"] == "hit"

    def test_crashed_is_500_with_error_record(self, app, match_crashes):
        payload = {"board": board_to_dict(good_board())}
        status, envelope = app.route(payload)
        assert status == 500
        assert envelope["status"] == "crashed"
        # The error record rides at the top level: type, message,
        # failing stage and a traceback tail.
        error = envelope["error"]
        assert error["type"] == "FaultInjected"
        assert error["stage"] == "match"
        assert error["traceback"]

    def test_crashed_is_not_cached(self, app, match_crashes):
        payload = {"board": board_to_dict(good_board())}
        _, first = app.route(payload)
        _, second = app.route(payload)
        assert first["cache"] == "miss" and second["cache"] == "miss"
        assert app.cache.stats()["entries"] == 0

    def test_return_board_round_trips_geometry(self, app):
        payload = {
            "board": board_to_dict(good_board()),
            "preset": "fast",
            "return_board": True,
        }
        _, envelope = app.route(payload)
        assert envelope["routed_board"]["name"] == "b0"
        # Without the flag the (large) geometry stays out of the wire.
        _, envelope = app.route({k: payload[k] for k in ("board", "preset")})
        assert "routed_board" not in envelope


@pytest.mark.smoke
class TestValidation:
    def test_missing_board_is_400(self, app):
        status, envelope = app.route({"preset": "fast"})
        assert status == 400
        assert envelope["kind"] == "error_response"
        assert "board" in envelope["error"]["message"]

    def test_unknown_preset_is_400(self, app):
        status, envelope = app.route(
            {"board": board_to_dict(good_board()), "preset": "warp-speed"}
        )
        assert status == 400
        assert "warp-speed" in envelope["error"]["message"]

    def test_garbage_board_is_400(self, app):
        status, envelope = app.route({"board": {"name": "junk"}})
        assert status == 400
        assert "invalid board" in envelope["error"]["message"]

    def test_pair_reusing_a_trace_name_is_400(self, app):
        # A pair whose sub-trace shares a board trace's name used to reach
        # the match stage and crash there (500); one name space per board
        # turns it into a rejected document at the door.
        board = Board.with_rect_outline(0, 0, 100, 45, RULES)
        member = board.add_trace(
            Trace("bus0", Polyline([Point(5, 15), Point(95, 15)]), width=1.0)
        )
        board.add_group(MatchGroup("bus", members=[member], target_length=115.0))
        doc = board_to_dict(board)
        sub_p = dict(doc["traces"][0], name="px")
        sub_n = dict(
            doc["traces"][0],
            name="bus0",
            path=[[x, y + 3.0] for x, y in doc["traces"][0]["path"]],
        )
        doc["pairs"] = [
            {"name": "P0", "trace_p": sub_p, "trace_n": sub_n, "rule": 3.0}
        ]
        status, envelope = app.route({"board": doc, "preset": "fast"})
        assert status == 400
        assert envelope["kind"] == "error_response"
        assert "invalid board" in envelope["error"]["message"]
        assert "bus0" in envelope["error"]["message"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["rules"]["default"].__setitem__("dgap", float("nan")),
            lambda doc: doc["traces"][0]["path"][1].__setitem__(1, float("nan")),
            lambda doc: doc["traces"][0]["path"][1].__setitem__(0, float("inf")),
        ],
        ids=["nan_dgap", "nan_coordinate", "inf_coordinate"],
    )
    def test_non_finite_document_is_400(self, app, mutate):
        # Each used to reach the match stage and crash there (500):
        # NaN slips through every ``<= 0`` check, and an inf coordinate
        # makes an infinitely long trace.
        from repro.scenarios import generate

        doc = board_to_dict(generate("serpentine_bus", seed=0))
        mutate(doc)
        status, envelope = app.route({"board": doc, "preset": "fast"})
        assert status == 400
        assert envelope["kind"] == "error_response"
        assert "invalid board document" in envelope["error"]["message"]

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda doc: doc.__setitem__("meta", 5), "meta"),
            (lambda doc: doc["groups"][0].__setitem__("members", []), "'mixed'"),
            (lambda doc: doc["groups"][0].__setitem__("target_length", 50.0), "'mixed'"),
            (
                lambda doc: doc["traces"][0].__setitem__("path", [[1, 1], [1, 1]]),
                "'mix_t0'",
            ),
        ],
        ids=["meta_not_object", "empty_group", "target_below_longest", "zero_length_path"],
    )
    def test_document_the_router_would_crash_on_is_400(self, app, mutate, named):
        # Each used to reach the pipeline and come back a 500: an
        # AttributeError on the meta, ValueError from the group target,
        # ZeroDivisionError in the extender on the zero-length path.
        from repro.scenarios import generate

        doc = board_to_dict(generate("mixed_groups", seed=0))
        assert doc["groups"][0]["name"] == "mixed"
        assert doc["traces"][0]["name"] == "mix_t0"
        mutate(doc)
        status, envelope = app.route({"board": doc, "preset": "fast"})
        assert status == 400
        assert envelope["kind"] == "error_response"
        assert "invalid board document" in envelope["error"]["message"]
        assert named in envelope["error"]["message"]

    def test_repeated_interior_node_still_routes(self, app):
        from repro.scenarios import generate

        doc = board_to_dict(generate("mixed_groups", seed=0))
        path = doc["traces"][0]["path"]
        doc["traces"][0]["path"] = [path[0], path[1], path[1]] + path[2:]
        status, envelope = app.route({"board": doc, "preset": "fast"})
        assert status == 200 and envelope["status"] == "ok"

    def test_non_dict_config_is_400(self, app):
        status, envelope = app.route(
            {"board": board_to_dict(good_board()), "config": "fast"}
        )
        assert status == 400

    @pytest.mark.parametrize(
        "knobs",
        [
            {"cell": float("nan")},
            {"safety": -1.0},
            {"reach": float("nan")},
            {"reach": -3.0},
        ],
        ids=["nan_cell", "negative_safety", "nan_reach", "negative_reach"],
    )
    def test_bad_region_knob_is_400(self, app, knobs):
        # A NaN cell used to crash the region stage (500); a NaN or
        # negative reach silently failed the stage.  Both are refused.
        config = SessionConfig.preset("default").to_dict()
        config["region"].update(knobs)
        board = board_to_dict(good_board())
        status, envelope = app.route({"board": board, "config": config})
        assert status == 400
        assert envelope["kind"] == "error_response"
        assert f"region.{next(iter(knobs))}" in envelope["error"]["message"]
        with pytest.raises(RequestError):
            app.route_batch_events({"boards": [board], "config": config})

    def test_batch_requires_nonempty_list(self, app):
        with pytest.raises(RequestError):
            app.route_batch_events({"boards": []})
        with pytest.raises(RequestError):
            app.route_batch_events({"boards": "nope"})


class TestPoisonedStage:
    def test_cache_hit_never_invokes_pipeline(self, app, monkeypatch):
        """THE cache-correctness proof: after one miss, the entire
        routing machinery can be ripped out and the same request is
        still answered — the hit path touches nothing but the store."""
        payload = {"board": board_to_dict(good_board()), "preset": "fast"}
        _, first = app.route(payload)
        assert first["cache"] == "miss"

        def boom(*args, **kwargs):
            raise AssertionError("pipeline invoked on a cache hit")

        monkeypatch.setattr(app_mod, "RoutingSession", boom)
        monkeypatch.setattr(app_mod, "board_from_dict", boom)
        status, second = app.route(payload)
        assert status == 200 and second["cache"] == "hit"
        assert second["result"] == first["result"]


@pytest.mark.smoke
class TestResultEndpoint:
    def test_cached_artifact_by_key(self, app):
        _, routed = app.route(
            {"board": board_to_dict(good_board()), "preset": "fast"}
        )
        status, envelope = app.result(routed["key"])
        assert status == 200
        assert envelope["kind"] == "result_response"
        assert envelope["result"] == routed["result"]
        assert envelope["routed_board"]["name"] == "b0"

    def test_unknown_key_is_404(self, app):
        status, envelope = app.result("ab" * 32)
        assert status == 404 and envelope["kind"] == "error_response"

    def test_malformed_key_is_400(self, app):
        status, envelope = app.result("../etc/passwd")
        assert status == 400


class TestBatchEvents:
    def test_hits_stream_first_then_misses_then_summary(self, app):
        warm = good_board("warm")
        app.route({"board": board_to_dict(warm), "preset": "fast"})
        boards = [
            board_to_dict(good_board("cold", target=118.0)),
            board_to_dict(warm),
            {"name": "junk"},  # malformed: its own crashed line
        ]
        events = list(
            app.route_batch_events({"boards": boards, "preset": "fast"})
        )
        assert [e["event"] for e in events].count("board_done") == 3
        done = events[-1]
        assert done["event"] == "batch_done"
        assert done["boards"] == 3 and done["cache_hits"] == 1
        assert done["ok"] == 2 and done["crashed"] == 1

        by_index = {e["index"]: e for e in events[:-1]}
        assert by_index[1]["cache"] == "hit"  # warm board served first
        assert events[0]["index"] == 1
        assert by_index[0]["cache"] == "miss" and by_index[0]["status"] == "ok"
        assert by_index[2]["status"] == "crashed"

    def test_batch_misses_populate_cache(self, app):
        boards = [board_to_dict(good_board("fresh"))]
        list(app.route_batch_events({"boards": boards}))
        events = list(app.route_batch_events({"boards": boards}))
        assert events[0]["cache"] == "hit"
        assert events[-1]["cache_hits"] == 1


class TestWorkerClamp:
    def test_request_can_lower_never_raise(self):
        app = RouterApp(cache_dir="/tmp/unused-clamp", workers=4)
        assert app._request_workers({}) == 4
        assert app._request_workers({"workers": 2}) == 2
        assert app._request_workers({"workers": 16}) == 4

    def test_uncapped_daemon_accepts_request(self, app):
        assert app._request_workers({}) is None
        assert app._request_workers({"workers": 3}) == 3

    def test_invalid_workers_rejected(self, app):
        with pytest.raises(RequestError):
            app._request_workers({"workers": 0})
        with pytest.raises(RequestError):
            app._request_workers({"workers": "many"})


class TestCorpusEvents:
    def test_quick_sweep_streams_cases_then_report(self, app):
        events = list(
            app.corpus_events(
                {
                    "scenarios": ["serpentine_bus"],
                    "seeds": [0],
                    "quick": True,
                }
            )
        )
        assert events[-1]["event"] == "report"
        cases = [e for e in events if e["event"] == "case_done"]
        assert len(cases) == 1 and cases[0]["board"] == "serpentine_bus-s0"
        report = events[-1]["report"]
        assert report["summary"]["boards"] == 1
        # The daemon's cache sat underneath: the sweep populated it.
        assert report["cache"]["entries"] >= 1

        # Second sweep: everything cached, nothing routed.
        events = list(
            app.corpus_events(
                {"scenarios": ["serpentine_bus"], "seeds": [0], "quick": True}
            )
        )
        assert events[-1]["report"]["summary"]["cached"] == 1

    def test_unknown_scenario_rejected(self, app):
        with pytest.raises(RequestError):
            app.corpus_events({"scenarios": ["no_such_family"]})

    def test_unknown_preset_rejected(self, app):
        with pytest.raises(RequestError):
            app.corpus_events({"preset": "warp-speed"})


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    srv = make_http_server(
        cache_dir=str(tmp_path_factory.mktemp("framing-cache")), port=0
    ).start_background()
    try:
        yield srv
    finally:
        srv.shutdown()


def raw_post(server, length_header: str, body: bytes = b""):
    """POST /route with a verbatim Content-Length; (status, envelope)."""
    head = (
        "POST /route HTTP/1.1\r\n"
        f"Host: {server.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length_header}\r\n"
        "\r\n"
    ).encode("latin-1")
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(head + body)
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(65536)
            assert chunk, "connection closed before a response"
            reply += chunk
        header, _, rest = reply.partition(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        size = next(
            int(line.split(":", 1)[1])
            for line in lines[1:]
            if line.lower().startswith("content-length:")
        )
        while len(rest) < size:
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-body"
            rest += chunk
    return status, json.loads(rest[:size])


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", "0x10", "1_0", ""])
    def test_malformed_length_is_400(self, live_server, value):
        status, envelope = raw_post(live_server, value, b"{}")
        assert status == 400
        assert envelope["kind"] == "error_response"
        assert envelope["error"]["type"] == "RequestError"

    def test_body_over_the_cap_is_413(self, live_server):
        # Answered from the header alone: no body bytes are sent.
        status, envelope = raw_post(live_server, str(app_mod.MAX_BODY_BYTES + 1))
        assert status == 413
        assert envelope["error"]["type"] == "PayloadTooLarge"

    def test_body_that_is_not_utf8_is_400(self, live_server):
        body = b'{"board":"\xff"}'
        status, envelope = raw_post(live_server, str(len(body)), body)
        assert status == 400
        assert envelope["error"]["message"].startswith("invalid JSON body:")

    def test_cap_sits_above_real_requests(self, live_server):
        body = json.dumps({"board": board_to_dict(good_board())}).encode()
        assert len(body) < app_mod.MAX_BODY_BYTES
        status, envelope = raw_post(live_server, str(len(body)), body)
        assert status == 200 and envelope["status"] == "ok"
