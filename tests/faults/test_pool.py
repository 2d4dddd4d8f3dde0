"""The daemon's capped handler pool under overload: idle connections
that hold every handler thread, bursts past the cap and its queue, 429
answers with ``Retry-After``, the client's retry, and a drain that still
finishes.
"""

import http.client
import json
import random
import socket
import sys
import threading
import time

import pytest

import repro.server.app as app_mod
from repro.faults import FaultPlan, FaultSpec, activate
from repro.io import board_to_dict
from repro.server import make_http_server
from repro.server.client import ServerClient

from conftest import small_board  # same-directory module


def handler_threads() -> int:
    return sum(1 for t in threading.enumerate() if t.name == "repro-handler")


def wait_busy(server, busy: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while server._server.stats()["busy"] < busy:
        assert time.monotonic() < deadline, server._server.stats()
        time.sleep(0.01)


def hold_idle(server, count: int):
    """``count`` connections that send nothing: each holds a handler
    thread (or a queue slot) until it is closed or times out."""
    return [
        socket.create_connection((server.host, server.port), timeout=10)
        for _ in range(count)
    ]


def post_route(server, body: bytes):
    """(status, Retry-After header, envelope) of one POST /route."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(
            "POST", "/route", body=body, headers={"Content-Type": "application/json"}
        )
        resp = conn.getresponse()
        return resp.status, resp.getheader("Retry-After"), json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture
def tiny_pool(tmp_path, monkeypatch):
    """A daemon with one handler thread and no queue."""
    monkeypatch.setattr(app_mod, "HANDLER_THREADS", 1)
    monkeypatch.setattr(app_mod, "HANDLER_QUEUE", 0)
    srv = make_http_server(str(tmp_path / "cache"), port=0).start_background()
    try:
        yield srv
    finally:
        srv.shutdown(drain_timeout=5.0)


class TestRefusal:
    def test_full_pool_answers_429_with_retry_after(self, tiny_pool):
        idle = hold_idle(tiny_pool, 1)
        try:
            wait_busy(tiny_pool, 1)
            body = json.dumps({"board": board_to_dict(small_board())}).encode()
            status, retry_after, envelope = post_route(tiny_pool, body)
        finally:
            for sock in idle:
                sock.close()
        assert status == 429 and retry_after == str(app_mod.RETRY_AFTER_S)
        assert envelope["kind"] == "error_response"
        assert envelope["error"]["type"] == "TooManyRequests"
        handlers = tiny_pool.app.stats()[1]["handlers"]
        assert handlers["rejected"] == 1 and handlers["max_threads"] == 1

    def test_client_retries_429_no_sooner_than_retry_after(self, tiny_pool):
        idle = hold_idle(tiny_pool, 1)
        wait_busy(tiny_pool, 1)
        # The slot frees well before Retry-After runs out.
        release = threading.Timer(0.2, lambda: [s.close() for s in idle])
        release.start()
        client = ServerClient(
            tiny_pool.url, retries=2, backoff_base=0.01, rng=random.Random(0)
        )
        started = time.monotonic()
        try:
            resp = client.route(small_board("retried"), preset="fast")
        finally:
            release.join()
        assert resp.ok and resp.payload["status"] == "ok"
        assert client.retry_count == 1
        assert time.monotonic() - started >= app_mod.RETRY_AFTER_S
        assert tiny_pool.app.stats()[1]["handlers"]["rejected"] == 1


class TestBurst:
    def test_burst_past_the_cap_is_served_or_refused_and_drains(self, tmp_path):
        cap, queue = app_mod.HANDLER_THREADS, app_mod.HANDLER_QUEUE
        assert 2 * cap <= 64  # the test starts a few dozen threads at most
        srv = make_http_server(str(tmp_path / "cache"), port=0).start_background()
        idle = []
        try:
            # Half the connections sit idle on every handler thread ...
            idle = hold_idle(srv, cap)
            wait_busy(srv, cap)
            # ... while the other half post: the queue admits `queue`
            # of them, the accept thread refuses the rest.
            body = json.dumps(
                {"board": board_to_dict(small_board("burst")), "preset": "fast"}
            ).encode()
            answers, peaks = [], []

            def poster() -> None:
                answers.append(post_route(srv, body))

            posters = [threading.Thread(target=poster) for _ in range(cap)]
            for thread in posters:
                thread.start()
            deadline = time.monotonic() + 10.0
            while len(answers) < cap - queue and time.monotonic() < deadline:
                peaks.append(handler_threads())
                time.sleep(0.01)
            assert srv._server.stats()["queued"] == queue
            for sock in idle:
                sock.close()
            for thread in posters:
                thread.join(timeout=30)
                peaks.append(handler_threads())
            assert not any(thread.is_alive() for thread in posters)

            statuses = sorted(status for status, _, _ in answers)
            assert statuses == [200] * queue + [429] * (cap - queue)
            assert all(
                retry == str(app_mod.RETRY_AFTER_S)
                for status, retry, _ in answers
                if status == 429
            )
            assert max(peaks) <= cap
            handlers = srv.app.stats()[1]["handlers"]
            assert handlers["threads"] <= cap
            assert handlers["max_threads"] == cap
            assert handlers["max_queued"] == queue
            assert handlers["rejected"] == cap - queue
            metrics = srv.app.metrics_text()[1]
            assert f"repro_server_rejected_total {cap - queue}" in metrics
            assert f"repro_server_handler_threads_max {cap}" in metrics
            assert ServerClient(srv.url).healthz().ok
        finally:
            for sock in idle:
                sock.close()
            assert srv.shutdown(drain_timeout=10.0)

    def test_drain_finishes_behind_a_full_pool(self, tmp_path, monkeypatch):
        """A drain that begins with the pool full delivers the request in
        flight and answers the queued one 503, never dropping or hanging
        either."""
        monkeypatch.setattr(app_mod, "HANDLER_THREADS", 1)
        monkeypatch.setattr(app_mod, "HANDLER_QUEUE", 1)
        srv = make_http_server(str(tmp_path / "cache"), port=0).start_background()
        plan = FaultPlan(
            "slow-route",
            specs=[FaultSpec(site="stage.match", mode="slow", delay_s=0.5)],
        )
        answers = {}

        def post(name: str) -> None:
            body = json.dumps({"board": board_to_dict(small_board(name))}).encode()
            answers[name] = post_route(srv, body)[0]

        with activate(plan):
            inflight = threading.Thread(target=post, args=("inflight",))
            inflight.start()
            deadline = time.monotonic() + 10.0
            while srv.app._inflight < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = threading.Thread(target=post, args=("queued",))
            queued.start()
            while srv._server.stats()["queued"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert srv.shutdown(drain_timeout=10.0)
        for thread in (inflight, queued):
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert answers == {"inflight": 200, "queued": 503}


def test_pool_counts_survive_a_thread_storm(tmp_path, monkeypatch):
    """More clients than cores, a tiny switch interval and a pool of two
    threads and two queue slots: a lost update to the pool's counts
    would leave a slot taken (refusing everything after) or a thread
    past the cap."""
    monkeypatch.setattr(app_mod, "HANDLER_THREADS", 2)
    monkeypatch.setattr(app_mod, "HANDLER_QUEUE", 2)
    srv = make_http_server(str(tmp_path / "cache"), port=0).start_background()
    statuses, peaks = [], []

    def client() -> None:
        for _ in range(20):
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
            try:
                conn.request("GET", "/healthz")
                statuses.append(conn.getresponse().status)
            finally:
                conn.close()
            peaks.append(handler_threads())

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client) for _ in range(12)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    try:
        assert not any(thread.is_alive() for thread in clients)
        assert len(statuses) == 12 * 20 and set(statuses) <= {200, 429}
        assert max(peaks) <= 2
        deadline = time.monotonic() + 10.0
        while srv._server.stats()["busy"]:
            assert time.monotonic() < deadline, srv._server.stats()
            time.sleep(0.01)
        assert srv._server.stats()["queued"] == 0
        # Every slot is free again: a full pool's worth of requests in a
        # row is served, none refused.
        for _ in range(4):
            assert ServerClient(srv.url, retries=0).healthz().ok
    finally:
        assert srv.shutdown(drain_timeout=10.0)
