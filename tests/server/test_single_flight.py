"""Identical concurrent misses are routed once.

While one request routes a board, every other request for the same
cache key waits for that route and answers from the cache as a hit; a
waiter routes the board itself only when nothing was stored.
"""

import http.client
import json
import sys
import threading
import time

import pytest

from repro import faults
from repro.api import RoutingSession
from repro.faults import FaultPlan, FaultSpec
from repro.io import board_to_dict
from repro.server import RouterApp, make_http_server

from test_app import good_board  # same-directory module

CLIENTS = 8


@pytest.fixture
def slow_runs(monkeypatch):
    """Slow every ``RoutingSession.run`` by 0.5 s; the list counts them."""
    calls = []
    real_run = RoutingSession.run

    def slow_run(session, *args, **kwargs):
        calls.append(session)
        time.sleep(0.5)
        return real_run(session, *args, **kwargs)

    monkeypatch.setattr(RoutingSession, "run", slow_run)
    return calls


@pytest.fixture
def server(tmp_path):
    srv = make_http_server(str(tmp_path / "cache"), port=0).start_background()
    try:
        yield srv
    finally:
        srv.shutdown(drain_timeout=10.0)


def burst(server, body: bytes):
    """``CLIENTS`` concurrent POST /route of ``body``: (status, body) each."""
    start = threading.Barrier(CLIENTS)
    answers = []

    def post() -> None:
        start.wait()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            conn.request("POST", "/route", body=body)
            resp = conn.getresponse()
            answers.append((resp.status, resp.read()))
        finally:
            conn.close()

    threads = [threading.Thread(target=post) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert len(answers) == CLIENTS
    return answers


def test_identical_misses_route_once(server, slow_runs):
    body = json.dumps({"board": board_to_dict(good_board()), "preset": "fast"}).encode()
    answers = burst(server, body)
    assert len(slow_runs) == 1
    assert [status for status, _ in answers] == [200] * CLIENTS
    states = sorted(json.loads(raw)["cache"] for _, raw in answers)
    assert states == ["hit"] * (CLIENTS - 1) + ["miss"]
    (miss,) = [raw for _, raw in answers if b'"cache":"miss"' in raw]
    hit = miss.replace(b'"cache":"miss"', b'"cache":"hit"', 1)
    assert all(raw in (miss, hit) for _, raw in answers)
    assert not server.app._routing


def test_waiters_route_themselves_after_a_crash(server, slow_runs):
    # The first run crashes (an injected fault in its match stage) and
    # stores nothing: every waiter then routes the board itself.
    body = json.dumps({"board": board_to_dict(good_board()), "preset": "fast"}).encode()
    plan = FaultPlan(
        "crash-once",
        specs=[FaultSpec(site="stage.match", mode="raise", max_fires=1)],
    )
    with faults.activate(plan):
        answers = burst(server, body)
    assert len(slow_runs) == CLIENTS
    envelopes = [(status, json.loads(raw)) for status, raw in answers]
    assert sorted((s, e["status"], e["cache"]) for s, e in envelopes) == [
        (200, "ok", "miss")
    ] * (CLIENTS - 1) + [(500, "crashed", "miss")]
    assert not server.app._routing
    status, raw = burst(server, body)[0]
    assert status == 200 and json.loads(raw)["cache"] == "hit"


def test_a_waiter_keeps_the_request_deadline(tmp_path, slow_runs):
    app = RouterApp(str(tmp_path / "cache"), request_deadline=0.2)
    payload = {"board": board_to_dict(good_board()), "preset": "fast"}
    answers = []
    threads = [
        threading.Thread(target=lambda: answers.append(app.route(payload)))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
        time.sleep(0.05)  # the first one routes, the second one waits
    for thread in threads:
        thread.join(timeout=30)
    assert [status for status, _ in answers] == [504, 504]
    # The overrun route goes on in the background and stores its entry.
    deadline = time.monotonic() + 30
    while app._routing and time.monotonic() < deadline:
        time.sleep(0.05)
    assert app.route(payload)[1]["cache"] == "hit"
    assert len(slow_runs) == 1


def test_each_board_routes_once_under_thread_churn(tmp_path, monkeypatch):
    # More threads than cores and a tiny switch interval: a lost update
    # of the in-flight table would let two requests route one board.
    routed = []
    real_run = RoutingSession.run

    def counting_run(session, *args, **kwargs):
        routed.append(session.board.name)
        return real_run(session, *args, **kwargs)

    monkeypatch.setattr(RoutingSession, "run", counting_run)
    app = RouterApp(str(tmp_path / "cache"))
    payloads = [
        {"board": board_to_dict(good_board(f"b{i}")), "preset": "fast"} for i in range(3)
    ]
    answers = []
    start = threading.Barrier(8)

    def client(offset: int) -> None:
        start.wait()
        for n in range(3):
            answers.append(app.route(payloads[(offset + n) % 3])[0])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=client, args=(k,), daemon=True) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [200] * 24
    assert sorted(routed) == ["b0", "b1", "b2"]
    assert not app._routing
