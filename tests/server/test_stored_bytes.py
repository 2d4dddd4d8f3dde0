"""Cache hits answered from stored bytes, and the request-key memo.

A hit splices the entry's stored ``result`` (and ``routed_board``) bytes
into the ``route_response`` envelope; the wire must not be able to tell:
every body is byte-identical to encoding the decoded envelope.  The key
memo maps a request body's digest to its cache key, so only a
byte-identical repeat skips the canonicalisation.
"""

import hashlib
import http.client
import json
import os
import sys
import threading
import time

import pytest

import repro.server.app as app_mod
from repro import obs
from repro.api import SessionConfig
from repro.cache import CacheEntry, cache_key
from repro.faults import stable_report_bytes
from repro.io import Encoded, board_to_dict, load_trace, route_response
from repro.server import RouterApp, make_http_server

from test_app import failing_payload, good_board  # same-directory module


@pytest.fixture
def server(tmp_path):
    srv = make_http_server(
        str(tmp_path / "cache"), port=0, trace_dir=str(tmp_path / "traces")
    ).start_background()
    try:
        yield srv
    finally:
        srv.shutdown(drain_timeout=5.0)


def post(server, body: bytes):
    """POST /route on a new connection: (status, body, trace id)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request(
            "POST", "/route", body=body, headers={"Content-Type": "application/json"}
        )
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.headers.get("X-Repro-Trace")
    finally:
        conn.close()


def ok_payload() -> dict:
    return {"board": board_to_dict(good_board()), "preset": "fast"}


def compact(data) -> bytes:
    return json.dumps(data, separators=(",", ":")).encode() + b"\n"


class TestHitBytes:
    @pytest.mark.parametrize("return_board", [False, True])
    @pytest.mark.parametrize(
        "make, http_status",
        [(ok_payload, 200), (failing_payload, 422)],
        ids=["ok", "failed"],
    )
    def test_hit_body_is_the_encoded_envelope(
        self, server, make, http_status, return_board
    ):
        payload = make()
        if return_board:
            payload["return_board"] = True
        body = json.dumps(payload).encode()
        miss_status, miss, _ = post(server, body)
        hit_status, hit, _ = post(server, body)
        assert miss_status == hit_status == http_status

        entry = server.app.cache.get(json.loads(miss)["key"])
        expected = route_response(json.loads(miss)["key"], "hit", entry["result"])
        if return_board:
            expected["routed_board"] = entry["routed_board"]
        assert hit == compact(expected)
        # The miss answered with the bytes it stored: the two bodies
        # differ only in "cache".
        assert miss.replace(b'"cache":"miss"', b'"cache":"hit"', 1) == hit
        assert (b'"routed_board":' in hit) == return_board

    def test_hit_decodes_the_board_only_when_asked(self, tmp_path, monkeypatch):
        app = RouterApp(str(tmp_path / "cache"))
        payload = ok_payload()
        _, miss = app.route(dict(payload, return_board=True))
        read = []
        real_getitem = CacheEntry.__getitem__

        def recording_getitem(entry, name):
            read.append(name)
            return real_getitem(entry, name)

        monkeypatch.setattr(CacheEntry, "__getitem__", recording_getitem)
        status, hit = app.route(payload)
        assert status == 200 and hit["cache"] == "hit"
        assert read == ["result"] and "routed_board" not in hit

        read.clear()
        status, hit = app.route(dict(payload, return_board=True))
        assert status == 200 and sorted(read) == ["result", "routed_board"]
        # Both values are plain dicts that carry the bytes the miss
        # encoded and stored, so the envelope still encodes as JSON.
        for name in ("result", "routed_board"):
            assert isinstance(hit[name], Encoded)
            assert hit[name].encoded == miss[name].encoded
            assert hit[name] == miss[name]
        assert app_mod._json_body(hit) == json.dumps(
            hit, separators=(",", ":")
        ).encode()


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"kind": "healthz_response", "ok": True, "uptime_s": 1.5, "x": None},
        {"name": "caf\u00e9 \u2192", "nested": {"b": [1, 2.0], "a": "\u00e9"}},
        {"result": Encoded.of({"status": "ok", "v": [0.1, -2]}), "k": "v"},
    ],
    ids=["empty", "scalars", "non-ascii", "encoded"],
)
def test_json_body_equals_json_dumps(payload):
    assert app_mod._json_body(payload) == json.dumps(
        payload, separators=(",", ":")
    ).encode()


def post_batch(server, body: bytes):
    """POST a batch /route; its NDJSON lines."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request("POST", "/route", body=body)
        return conn.getresponse().read().splitlines()
    finally:
        conn.close()


class TestBatchBytes:
    def test_hit_event_differs_from_the_miss_event_only_in_cache(self, server):
        body = json.dumps(
            {"boards": [board_to_dict(good_board())], "preset": "fast", "return_board": True}
        ).encode()
        miss, miss_done = post_batch(server, body)
        hit, hit_done = post_batch(server, body)
        assert json.loads(hit)["cache"] == "hit"
        assert miss.replace(b'"cache":"miss"', b'"cache":"hit"', 1) == hit
        assert json.loads(hit_done)["cache_hits"] == 1


def respelled(value):
    """``value`` with integral floats as ints and every key order reversed."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {k: respelled(v) for k, v in reversed(list(value.items()))}
    if isinstance(value, list):
        return [respelled(v) for v in value]
    return value


def key_spans(trace):
    return [s for s in trace.to_dict()["spans"] if s["name"] == "cache.key"]


class TestKeyMemo:
    def test_respelled_board_misses_the_memo_and_hits_the_entry(self, tmp_path):
        app = RouterApp(str(tmp_path / "cache"))
        payload = ok_payload()
        other = respelled(payload)
        first, second = json.dumps(payload).encode(), json.dumps(other).encode()
        assert first != second and b"[100, 0]" in second
        _, miss = app.route(payload, body=first)
        with obs.trace("respelled") as trace:
            status, hit = app.route(other, body=second)
        assert status == 200 and hit["cache"] == "hit"
        assert hit["key"] == miss["key"]
        assert [s["attrs"]["memo"] for s in key_spans(trace)] == ["miss"]
        with obs.trace("repeat") as trace:
            app.route(other, body=second)
        assert [s["attrs"]["memo"] for s in key_spans(trace)] == ["hit"]

    def test_memo_stays_within_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(app_mod, "KEY_MEMO_ENTRIES", 3)
        app = RouterApp(str(tmp_path / "cache"))
        bodies = []
        for i in range(4):
            # Keyed, probed, then refused at decoding: cheap distinct bodies.
            payload = {"board": {"name": f"junk{i}"}}
            body = json.dumps(payload).encode()
            status, _ = app.route(payload, body=body)
            assert status == 400
            bodies.append(body)
            assert len(app._key_memo) == min(i + 1, 3)
        with obs.trace("oldest") as trace:
            app.route(json.loads(bodies[0]), body=bodies[0])
        assert [s["attrs"]["memo"] for s in key_spans(trace)] == ["miss"]
        assert len(app._key_memo) == 3

    def test_refused_request_is_not_memoized(self, tmp_path):
        app = RouterApp(str(tmp_path / "cache"))
        payload = dict(ok_payload(), preset="warp-speed")
        status, _ = app.route(payload, body=json.dumps(payload).encode())
        assert status == 400
        assert not app._key_memo


    def test_memo_under_concurrent_requests(self, tmp_path, monkeypatch):
        # More threads than cores, a tiny switch interval and a small
        # bound: a lost update would leave the memo past its bound or a
        # digest mapped to another body's key.
        monkeypatch.setattr(app_mod, "KEY_MEMO_ENTRIES", 5)
        app = RouterApp(str(tmp_path / "cache"))
        bodies = [json.dumps({"board": {"name": f"junk{i}"}}).encode() for i in range(12)]
        statuses = []

        def client(offset: int) -> None:
            for n in range(60):
                body = bodies[(offset + n) % len(bodies)]
                statuses.append(app.route(json.loads(body), body=body)[0])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == [400] * 8 * 60
        assert len(app._key_memo) <= 5
        fingerprint = SessionConfig.preset("default").fingerprint()
        expected = {
            hashlib.sha256(body).digest(): cache_key(json.loads(body)["board"], fingerprint)
            for body in bodies
        }
        for digest, (key, return_board) in app._key_memo.items():
            assert expected[digest] == key and return_board is False


class TestNonObjectBoard:
    @pytest.mark.parametrize("board", [[1, 2], "x", 7])
    def test_refused_before_the_cache_is_probed(self, tmp_path, board):
        app = RouterApp(str(tmp_path / "cache"))
        for _ in range(3):
            status, envelope = app.route({"board": board})
            assert status == 400
            assert "JSON object" in envelope["error"]["message"]
        _, stats = app.stats()
        assert stats["cache"]["misses"] == 0

    @pytest.mark.parametrize("board", [[1, 2], "x", 7])
    def test_batch_streams_its_crashed_line_and_goes_on(self, tmp_path, board):
        app = RouterApp(str(tmp_path / "cache"))
        boards = [board, board_to_dict(good_board("after"))]
        events = list(app.route_batch_events({"boards": boards, "preset": "fast"}))
        assert [(e["event"], e.get("index")) for e in events] == [
            ("board_done", 0),
            ("board_done", 1),
            ("batch_done", None),
        ]
        bad, good, done = events
        assert bad["status"] == "crashed" and bad["cache"] is None
        assert bad["key"] is None
        assert "JSON object" in bad["error"]["message"]
        assert good["status"] == "ok" and good["cache"] == "miss"
        assert done["crashed"] == 1 and done["ok"] == 1
        json.dumps(events)  # every line is NDJSON-encodable
        _, stats = app.stats()
        assert stats["cache"]["misses"] == 1  # the valid board's alone

    def test_check_refuses_it_with_400(self, tmp_path):
        app = RouterApp(str(tmp_path / "cache"))
        status, envelope = app.check({"board": [1, 2]})
        assert status == 400
        assert "JSON object" in envelope["error"]["message"]

    def test_undecodable_object_board_still_probes(self, tmp_path):
        # A hit never decodes, so an object board is looked up first.
        app = RouterApp(str(tmp_path / "cache"))
        status, _ = app.route({"board": {"name": "junk"}})
        assert status == 400
        _, stats = app.stats()
        assert stats["cache"]["misses"] == 1


class TestDaemonSpans:
    def _trace(self, server, trace_id):
        path = os.path.join(server.app.trace_dir, f"{trace_id}.json")
        # The artifact is written after the response flushes.
        deadline = time.monotonic() + 5.0
        while not os.path.exists(path) and time.monotonic() < deadline:
            time.sleep(0.02)
        return load_trace(path)

    def test_body_and_key_spans(self, server):
        body = json.dumps(ok_payload()).encode()
        memo, parsed = [], []
        for _ in range(2):
            status, _, trace_id = post(server, body)
            assert status == 200
            trace = self._trace(server, trace_id)
            spans = {s["name"]: s for s in trace.to_dict()["spans"]}
            assert spans["server.read_body"]["attrs"]["bytes"] == len(body)
            parsed.append("server.parse_body" in spans)
            memo.append(spans["cache.key"]["attrs"]["memo"])
        assert memo == ["miss", "hit"]
        # A memo hit whose entry is cached is answered unparsed.
        assert parsed == [True, False]


class TestMemoHitPath:
    """A body the key memo knows is answered without parsing it; every
    answer must be byte-identical to the one the parse path gives."""

    @staticmethod
    def _unparsable(monkeypatch):
        def refuse(raw):
            raise AssertionError("a memo hit parsed its body")

        monkeypatch.setattr(app_mod, "_parse_body", refuse)

    @pytest.mark.parametrize("return_board", [False, True])
    def test_memo_hit_equals_the_parse_path(
        self, tmp_path, monkeypatch, return_board
    ):
        payload = ok_payload()
        if return_board:
            payload["return_board"] = True
        body = json.dumps(payload).encode()
        app = RouterApp(str(tmp_path / "cache"))
        app.route(payload, body=body)
        # A fresh app on the same store keys the body from its payload.
        parsed = RouterApp(str(tmp_path / "cache")).route(payload, body=body)
        assert app.memoized(hashlib.sha256(body).digest())
        self._unparsable(monkeypatch)
        status, envelope = app.route(None, body=body)
        assert (status, envelope["cache"]) == (200, "hit")
        assert status == parsed[0]
        assert app_mod._json_body(envelope) == app_mod._json_body(parsed[1])
        assert ("routed_board" in envelope) == return_board

    def test_memo_hit_over_http_is_unparsed_and_identical(
        self, server, tmp_path, monkeypatch
    ):
        body = json.dumps(dict(ok_payload(), return_board=True)).encode()
        post(server, body)
        _, memo_hit, _ = post(server, body)
        srv = make_http_server(server.app.cache.cache_dir, port=0).start_background()
        try:
            _, parsed_hit, _ = post(srv, body)
        finally:
            srv.shutdown(drain_timeout=5.0)
        assert memo_hit == parsed_hit and json.loads(memo_hit)["cache"] == "hit"
        self._unparsable(monkeypatch)
        assert post(server, body)[1] == memo_hit

    def test_evicted_entry_parses_and_routes(self, tmp_path):
        app = RouterApp(str(tmp_path / "cache"))
        body = json.dumps(ok_payload()).encode()
        _, miss = app.route(json.loads(body), body=body)
        app.cache.clear()
        assert app.memoized(hashlib.sha256(body).digest())
        with obs.trace("evicted") as trace:
            status, again = app.route(None, body=body)
        names = [s["name"] for s in trace.to_dict()["spans"]]
        assert "server.parse_body" in names
        assert status == 200 and again["cache"] == "miss"
        assert again["key"] == miss["key"]
        # Routed again: the same verdict, other wall-clock timings.
        assert stable_report_bytes(again["result"]) == stable_report_bytes(
            miss["result"]
        )
        assert app.route(None, body=body)[1]["cache"] == "hit"

    def test_memoized_invalid_board_gets_the_same_400(self, server):
        body = json.dumps({"board": {"name": "junk"}}).encode()
        answers = [post(server, body)[:2] for _ in range(3)]
        assert hashlib.sha256(body).digest() in server.app._key_memo
        assert answers[0][0] == 400
        assert answers[1:] == answers[:1] * 2
        message = json.loads(answers[0][1])["error"]["message"]
        assert message.startswith("invalid board document:")

    def test_respelled_body_misses_the_memo_and_hits_the_entry(self, server):
        payload = ok_payload()
        first = json.dumps(payload).encode()
        second = json.dumps(respelled(payload)).encode()
        post(server, first)
        _, memo_hit, _ = post(server, first)
        _, respelled_hit, _ = post(server, second)
        assert respelled_hit == memo_hit
        assert json.loads(respelled_hit)["cache"] == "hit"

    def test_batch_bodies_are_never_memoized(self, server):
        body = json.dumps(
            {"boards": [board_to_dict(good_board())], "preset": "fast"}
        ).encode()
        post_batch(server, body)
        hit, done = post_batch(server, body)
        assert json.loads(hit)["cache"] == "hit"
        assert json.loads(done)["event"] == "batch_done"
        assert not server.app._key_memo
