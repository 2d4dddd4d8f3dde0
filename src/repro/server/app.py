"""The routing service: application core plus the stdlib HTTP adapter.

:class:`RouterApp` is deliberately transport-free — every endpoint is a
method taking a parsed JSON payload and returning ``(http_status,
envelope)`` or an iterator of NDJSON event dicts — so the whole protocol
is unit-testable without sockets.  :func:`make_http_server` wraps it in
an ``HTTPServer`` whose accept loop hands each connection to a capped
pool of reused handler threads (past the cap and a short queue, the
accept thread answers 429 with ``Retry-After``); a handler only does
wire work: read the body, dispatch, serialise.

Every routing answer goes through the content-addressed cache first
(:mod:`repro.cache`): the key is computed from the *request* (canonical
board JSON + config fingerprint + library version), so a hit is served
without constructing a session, running a stage, or even decoding the
board — the poisoned-stage test in ``tests/server`` proves exactly
that.  A hit decodes no part of the stored entry either: the result's
status (which sets the HTTP code), error and board name come from the
entry header, and the transport writes the stored bytes verbatim.  A
miss answers with the bytes it just stored, so each result is encoded
once, and concurrent misses of one key route it once: the others wait
for its entry.  A byte-identical repeat request also skips keying and
parsing:
each app remembers, by the sha256 of recent single-board request
bodies, their cache key and whether they asked for the routed board, so
a repeat whose entry is cached is answered without reading its JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import socket
import sys
import threading
import time
from collections import OrderedDict, deque
from http.server import HTTPServer
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from .. import faults, obs
from .._version import __version__
from ..api import RoutingSession, SessionConfig
from ..api.executor import run_batch
from ..cache import DEFAULT_MAX_BYTES, CacheEntry, ResultCache, cache_key
from ..drc import check_board
from ..io import (
    board_from_dict,
    board_to_dict,
    check_response,
    corpus_report_to_dict,
    error_response,
    route_response,
    run_result_to_dict,
    save_trace,
)

# ``board_to_dict`` stays a name of this module although nothing here
# calls it: perfbench's tracer wraps the io codecs on this module.

#: RunResult.status → HTTP status for single-board responses.  Batch
#: endpoints always answer 200 and carry per-board status per line.
STATUS_TO_HTTP = {"ok": 200, "failed": 422, "crashed": 500}

#: Why a board that is not a JSON object is refused (400 for a single
#: board, that board's ``crashed`` line in a batch).
NOT_AN_OBJECT = "board must be a JSON object (see repro.io)"


class RequestError(ValueError):
    """A malformed request (missing field, bad board document, unknown
    preset); mapped to HTTP 400 by the transport."""


class PayloadTooLarge(RequestError):
    """A request body longer than :data:`MAX_BODY_BYTES`; mapped to
    HTTP 413 by the transport."""


#: Longest request body the daemon reads.  A 48-tile board document is
#: well under 1 MB, so this only stops a client from making a worker
#: thread buffer an unbounded body.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most request-body digests one app remembers the cache key of (least
#: recently used first out).  An entry is a 32-byte digest, a 64-char
#: key and a flag, so the memo stays under a few megabytes.
KEY_MEMO_ENTRIES = 4096

#: Most connections the daemon serves at once, one handler thread each.
#: Routing holds the GIL, so more threads would not route faster; the
#: cap bounds the daemon's threads and memory under a burst.
HANDLER_THREADS = 16

#: Accepted connections that may wait for a free handler thread.  Past
#: ``HANDLER_THREADS + HANDLER_QUEUE`` connections the accept thread
#: answers 429 itself.
HANDLER_QUEUE = 8

#: Seconds a connection may sit idle between keep-alive requests (or
#: inside one) before its handler thread drops it, so an idle client
#: cannot hold a slot for long.
KEEPALIVE_IDLE_S = 10.0

#: The ``Retry-After`` of a 429, in whole seconds.
RETRY_AFTER_S = 1

#: How long a refused connection stays half-open so the client can read
#: its 429 before the socket closes, and how many may wait at once.
#: Closing a socket that still holds unread request bytes resets the
#: connection, and the client would lose the answer.
REFUSED_LINGER_S = 2.0
REFUSED_LINGER_MAX = 64


class ShuttingDown(RuntimeError):
    """The daemon is draining: new requests are refused with 503 while
    in-flight ones run to completion (the SIGTERM contract)."""


def _helper_thread(target: Callable[[], None]) -> threading.Thread:
    """Start ``target`` on a daemon thread that adopts the caller's trace
    (collectors are thread-local), so the pipeline's spans land in the
    request's trace."""
    parent_trace = obs.current_trace()

    def run() -> None:
        with obs.use_trace(parent_trace):
            target()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def _stream(
    work: Callable[[Callable[[Dict[str, Any]], None]], None]
) -> Iterator[Dict[str, Any]]:
    """Run ``work(emit)`` on a helper thread; yield each emitted event.

    ``run_batch`` and ``run_corpus`` report only through callbacks; the
    thread turns that push interface into the pull iterator a chunked
    HTTP response needs.
    """
    events: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()

    def run() -> None:
        try:
            work(events.put)
        finally:
            events.put(None)

    thread = _helper_thread(run)
    while True:
        event = events.get()
        if event is None:
            break
        yield event
    thread.join()


class RouterApp:
    """One daemon's worth of state: the cache, the knobs, the counters."""

    def __init__(
        self,
        cache_dir: str,
        workers: Optional[int] = None,
        cache_max_bytes: int = DEFAULT_MAX_BYTES,
        request_deadline: Optional[float] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        self.cache = ResultCache(cache_dir, max_bytes=cache_max_bytes)
        #: Default worker-process count for batch requests (a request
        #: may override it downward; never upward past this cap).
        self.workers = workers
        #: Per-request wall-clock budget for single-answer endpoints
        #: (``/route`` one-board, ``/check``); ``None`` = unbounded.
        self.request_deadline = request_deadline
        #: When set, every request runs under its own ``repro.obs``
        #: trace, written here as ``<trace_id>.json`` and echoed back in
        #: the ``X-Repro-Trace`` response header.  ``None`` (the
        #: default) keeps request handling on the no-op span fast path.
        self.trace_dir = trace_dir
        #: Per-app registry (request counters and latencies), merged
        #: with the cache's and the process-global one at /metrics.
        self.metrics = obs.MetricsRegistry()
        self._started = time.time()
        #: Guards the request counters, the key memo and ``_routing``.
        self._lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        #: ``sha256(request body)`` → the cache key of that body's
        #: request and its ``return_board`` flag.  Both are pure
        #: functions of the body bytes (board, preset or config,
        #: version), so a byte-identical repeat skips the parse and the
        #: canonicalisation.
        self._key_memo: "OrderedDict[bytes, Tuple[str, bool]]" = OrderedDict()
        #: Cache key of each single-board miss being routed → an event
        #: set once that route is over, so concurrent requests for the
        #: same board wait for it instead of routing it again.
        self._routing: Dict[str, threading.Event] = {}
        #: Handler-pool counts of the HTTP transport serving this app
        #: (set by :class:`ReproHTTPServer`; ``None`` without one).
        self.transport_stats: Optional[Callable[[], Dict[str, int]]] = None
        self.metrics.counter("repro_server_rejected_total")
        #: Graceful-shutdown state: once draining, new requests get 503
        #: while the in-flight count runs down to zero.
        self._draining = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    # -- bookkeeping --------------------------------------------------------

    def _count(self, endpoint: str) -> None:
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
        self.metrics.inc("repro_requests_total", endpoint=endpoint)

    def observe_request(self, endpoint: str, seconds: float) -> None:
        """Record one request's wall-clock (the transport calls this
        for every answered request, whatever the outcome)."""
        self.metrics.observe("repro_request_seconds", seconds, endpoint=endpoint)

    def request_trace(self, path: str):
        """Context manager activating a per-request trace when
        :attr:`trace_dir` is set (yields the live
        :class:`~repro.obs.Trace`), and a no-op yielding ``None``
        otherwise — request handling stays on the span fast path unless
        an operator opted in with ``serve --trace-dir``."""
        if self.trace_dir is None:
            return obs.use_trace(None)
        return _RequestTrace(self, path)

    # -- graceful shutdown ---------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def enter_request(self) -> None:
        """Admit one request into the in-flight set (503 while draining).

        The transport calls this before dispatching and *must* pair it
        with :meth:`exit_request` in a ``finally`` — the drain barrier
        is exactly this counter reaching zero.
        """
        with self._inflight_cond:
            if self._draining:
                raise ShuttingDown("server is draining; retry elsewhere")
            self._inflight += 1

    def exit_request(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            if self._inflight <= 0:
                self._inflight_cond.notify_all()

    def begin_drain(self) -> None:
        """Stop admitting requests; in-flight ones keep running."""
        with self._inflight_cond:
            self._draining = True

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Block until every in-flight request has finished (or
        ``timeout`` elapsed); returns whether the set emptied.

        Open NDJSON streams count as in-flight until their final event
        is written, so a drained server has delivered every byte it
        promised.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._inflight_cond.wait(remaining)
        return True

    # -- per-request deadline ------------------------------------------------

    def _with_deadline(self, fn):
        """Run ``fn`` under :attr:`request_deadline`; 504 on overrun.

        The work runs in a helper thread so the transport can answer
        within the budget; an overrunning computation is left to finish
        (and populate the cache) in the background — the *response* has
        a deadline, the cache entry is still worth keeping.
        """
        if self.request_deadline is None:
            return fn()
        box: Dict[str, Any] = {}

        def call() -> None:
            try:
                box["value"] = fn()
            except BaseException as exc:  # re-raised on the request thread
                box["error"] = exc

        thread = _helper_thread(call)
        thread.join(self.request_deadline)
        if thread.is_alive():
            return self._deadline_exceeded()
        if "error" in box:
            raise box["error"]
        return box["value"]

    def _deadline_exceeded(self) -> Tuple[int, Dict[str, Any]]:
        return 504, {
            "kind": "error_response",
            "error": {
                "type": "DeadlineExceeded",
                "message": (
                    f"request exceeded the server's "
                    f"{self.request_deadline} s deadline"
                ),
            },
        }

    # -- config resolution --------------------------------------------------

    def _resolve_config(self, payload: Dict[str, Any]) -> SessionConfig:
        """The request's effective config: a full ``config`` snapshot
        wins over a ``preset`` name; the default preset otherwise."""
        if "config" in payload and payload["config"] is not None:
            if not isinstance(payload["config"], dict):
                raise RequestError("'config' must be a SessionConfig snapshot")
            try:
                return SessionConfig.from_dict(payload["config"])
            except ValueError as exc:
                raise RequestError(str(exc)) from exc
        preset = payload.get("preset", "default")
        try:
            return SessionConfig.preset(preset)
        except ValueError as exc:
            raise RequestError(str(exc)) from exc

    def _request_workers(self, payload: Dict[str, Any]) -> Optional[int]:
        requested = payload.get("workers")
        if requested is None:
            return self.workers
        if type(requested) is not int or requested < 1:
            raise RequestError("'workers' must be a positive integer")
        if self.workers is not None:
            return min(requested, self.workers)
        return requested

    # -- the cached routing core --------------------------------------------

    def memoized(self, digest: bytes) -> bool:
        """Whether a request body with this sha256 was keyed before: it
        is then a valid single-board request, and :meth:`route` can
        answer it without its parsed payload."""
        with self._lock:
            return digest in self._key_memo

    def _key(
        self,
        payload: Optional[Dict[str, Any]],
        body: Optional[bytes],
        digest: Optional[bytes],
    ) -> Tuple[str, bool, Optional[Dict[str, Any]], Optional[SessionConfig]]:
        """``(key, return_board, payload, config)`` of the request.

        On a memo hit the payload is passed through as given (``None``
        when the transport skipped the parse) and the config is
        ``None``.  A body the memo knows passed every check below when
        it was keyed, so a memo hit skips them along with the
        canonicalisation.
        """
        with obs.span("cache.key") as sp:
            memo = None
            if digest is not None:
                with self._lock:
                    memo = self._key_memo.get(digest)
                    if memo is not None:
                        self._key_memo.move_to_end(digest)
            sp.set(memo="miss" if memo is None else "hit")
            if memo is not None:
                return memo[0], memo[1], payload, None
            if payload is None:
                # Dropped from the memo since the transport looked.
                payload = _parse_body(body)
            config = self._resolve_config(payload)
            board_dict = payload.get("board")
            if board_dict is None:
                raise RequestError("missing 'board' (send 'boards' for a batch)")
            if not isinstance(board_dict, dict):
                raise RequestError(NOT_AN_OBJECT)
            key = cache_key(board_dict, config.fingerprint())
            return_board = bool(payload.get("return_board"))
            if digest is not None:
                with self._lock:
                    self._key_memo[digest] = (key, return_board)
                    if len(self._key_memo) > KEY_MEMO_ENTRIES:
                        self._key_memo.popitem(last=False)
            return key, return_board, payload, config

    def _route_one(
        self,
        payload: Optional[Dict[str, Any]],
        body: Optional[bytes],
        digest: Optional[bytes],
    ) -> Union[Dict[str, Any], Tuple[int, Dict[str, Any]]]:
        """The request's ``route_response`` envelope (with the routed
        board when it asks for it back), or the 504 answer of a request
        that waited past the deadline for another one's route.

        On a hit nothing of the pipeline runs — not even board
        decoding, nor parsing the body when the memo knows it — and no
        part of the stored entry is decoded (see :func:`_answer`).  On a
        miss the board is routed in-process with crash capture, and any
        non-crashed outcome (ok *and* failed are both deterministic
        verdicts) is published to the cache.  A miss whose key another
        request is routing waits for that route and answers from the
        cache; it routes the board itself only when nothing was stored
        (a crash, a degraded cache, an eviction).
        """
        key, return_board, payload, config = self._key(payload, body, digest)
        entry = self.cache.get(key)
        routing = None
        if entry is None:
            with self._lock:
                waiting = self._routing.get(key)
                if waiting is None:
                    routing = self._routing[key] = threading.Event()
            if waiting is not None:
                if not waiting.wait(self.request_deadline):
                    return self._deadline_exceeded()
                entry = self.cache.get(key)
        if entry is not None:
            return _answer(key, "hit", entry, return_board)
        try:
            if payload is None:
                # A memoized body whose entry was evicted routes as a new one.
                payload = _parse_body(body)
            if config is None:
                config = self._resolve_config(payload)
            try:
                board = board_from_dict(payload["board"])
            except (ValueError, KeyError, TypeError) as exc:
                raise RequestError(f"invalid board document: {exc}") from exc
            result = RoutingSession(board, config=config).run(capture_errors=True)
            entry = self.cache.publish(key, result, board)
        finally:
            if routing is not None:
                with self._lock:
                    del self._routing[key]
                routing.set()
        return _answer(key, "miss", entry, return_board)

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness plus the degradation flags operators alert on: a
        daemon with an unwritable cache keeps serving (``ok`` stays
        true) but says ``cache="degraded"`` instead of dying."""
        self._count("healthz")
        return 200, {
            "kind": "healthz_response",
            "ok": True,
            "version": __version__,
            "repro_version": __version__,
            "uptime_s": time.time() - self._started,
            "cache": "degraded" if self.cache.degraded is not None else "ok",
            "draining": self._draining,
        }

    def stats(self) -> Tuple[int, Dict[str, Any]]:
        self._count("stats")
        with self._lock:
            requests = dict(self._requests)
        return 200, {
            "kind": "stats_response",
            "version": __version__,
            "repro_version": __version__,
            "uptime_s": time.time() - self._started,
            "workers": self.workers,
            "requests": requests,
            # Live/busy handler threads, queued connections, the caps
            # and refusals; ``None`` when no HTTP transport serves us.
            "handlers": (
                self.transport_stats() if self.transport_stats is not None else None
            ),
            "cache": self.cache.stats(),
            # Counter values plus histogram count/sum/p50/p90/p99 — the
            # JSON view of what /metrics serves in Prometheus format.
            "metrics": {
                "app": self.metrics.snapshot(),
                "cache": self.cache.metrics.snapshot(),
                "process": obs.REGISTRY.snapshot(),
            },
        }

    def metrics_text(self) -> Tuple[int, str]:
        """``GET /metrics``: Prometheus text exposition.

        Three registries concatenated — this app's request counters and
        latencies, its cache's hit/miss/eviction family, and the
        process-global registry (stage/DTW latencies, extension
        iterations, fault fires) — plus build/uptime gauges and, when an
        HTTP transport serves the app, its handler-pool gauges.  Metric
        names are disjoint across the three by construction.
        """
        self._count("metrics")
        preamble = (
            "# TYPE repro_build_info gauge\n"
            f'repro_build_info{{version="{__version__}"}} 1\n'
            "# TYPE repro_uptime_seconds gauge\n"
            f"repro_uptime_seconds {time.time() - self._started:.3f}\n"
        )
        if self.transport_stats is not None:
            pool = self.transport_stats()
            for name, field in (
                ("repro_server_handler_threads", "threads"),
                ("repro_server_handler_threads_busy", "busy"),
                ("repro_server_handler_threads_max", "max_threads"),
                ("repro_server_queued_connections", "queued"),
                ("repro_server_queued_connections_max", "max_queued"),
            ):
                preamble += f"# TYPE {name} gauge\n{name} {pool[field]}\n"
        body = preamble + obs.render_prometheus(
            self.metrics, self.cache.metrics, obs.REGISTRY
        )
        return 200, body

    def result(self, key: str) -> Tuple[int, Dict[str, Any]]:
        """A cached artifact by content address (404 when absent).

        Reads go through :meth:`ResultCache.get`, so they count in the
        hit/miss statistics and refresh the entry's LRU clock like any
        other consumer.
        """
        self._count("result")
        try:
            entry = self.cache.get(key)
        except ValueError as exc:
            return 400, error_response(RequestError(str(exc)))
        if entry is None:
            return 404, {
                "kind": "error_response",
                "error": {
                    "type": "KeyError",
                    "message": f"no cached result under {key}",
                },
            }
        return 200, {
            "kind": "result_response",
            "key": key,
            "result": entry.encoded["result"],
            "routed_board": entry.encoded.get("routed_board"),
        }

    def route(
        self,
        payload: Optional[Dict[str, Any]],
        body: Optional[bytes] = None,
        digest: Optional[bytes] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Single-board ``POST /route``: status-mapped JSON response.

        ``body`` is the request's raw bytes when the transport has them
        (``digest``, their sha256, when it already computed it): the
        digest keys the memo that lets a byte-identical repeat skip
        canonicalising its board.  ``payload`` may be ``None`` for a
        body the memo knows (:meth:`memoized`); it is then parsed only
        if the cache no longer holds the answer.
        """
        self._count("route")
        if digest is None and body is not None:
            digest = hashlib.sha256(body).digest()
        try:
            envelope = self._with_deadline(
                lambda: self._route_one(payload, body, digest)
            )
        except RequestError as exc:
            return 400, error_response(exc)
        if isinstance(envelope, tuple):
            return envelope  # the 504 answer of an overrun
        return STATUS_TO_HTTP.get(envelope["status"], 500), envelope

    def route_batch_events(
        self, payload: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        """Batch ``POST /route``: one NDJSON event per board as it
        settles (cache hits first, then misses in completion order),
        then a ``batch_done`` summary.

        Misses run through the PR 5 fault-isolated
        :func:`~repro.api.executor.run_batch` — with worker processes
        when configured — so one poisoned board yields its own
        ``status="crashed"`` line while the rest of the batch streams on.
        """
        self._count("route_batch")
        config = self._resolve_config(payload)
        boards = payload.get("boards")
        if not isinstance(boards, list) or not boards:
            raise RequestError("'boards' must be a non-empty list")
        return_board = bool(payload.get("return_board"))
        workers = self._request_workers(payload)
        fingerprint = config.fingerprint()

        # A non-object board has no content address: it is neither keyed
        # nor probed, only answered with its own ``crashed`` line.
        keys = [
            cache_key(b, fingerprint) if isinstance(b, dict) else None
            for b in boards
        ]
        counts = {"ok": 0, "failed": 0, "crashed": 0}
        hits = 0
        misses: list = []  # (input index, decoded board) pairs

        def board_event(
            index: int, cache_state: Optional[str], entry: CacheEntry
        ) -> Dict[str, Any]:
            envelope = _answer(keys[index], cache_state, entry, return_board)
            counts[envelope["status"]] = counts.get(envelope["status"], 0) + 1
            event = {
                "event": "board_done",
                "index": index,
                "board": entry.answer["board"],
                **envelope,
            }
            event["kind"] = "route_event"
            return event

        def generate() -> Iterator[Dict[str, Any]]:
            nonlocal hits
            for index, board_dict in enumerate(boards):
                entry = None if keys[index] is None else self.cache.get(keys[index])
                if entry is not None:
                    hits += 1
                    yield board_event(index, "hit", entry)
                else:
                    try:
                        if keys[index] is None:
                            raise TypeError(NOT_AN_OBJECT)
                        misses.append((index, board_from_dict(board_dict)))
                    except (ValueError, KeyError, TypeError) as exc:
                        # One malformed board in a batch is that board's
                        # problem, same as one crashing board.
                        from ..api.executor import crashed_result

                        doc = board_dict if isinstance(board_dict, dict) else {}
                        result = crashed_result(
                            doc.get("name", ""),
                            exc,
                            config=config,
                            meta=doc.get("meta"),
                        )
                        yield board_event(
                            index,
                            None if keys[index] is None else "miss",
                            CacheEntry.of({"result": run_result_to_dict(result)}),
                        )
            if misses:
                indices = [index for index, _ in misses]

                def work(emit) -> None:
                    def on_board_done(pos: int, board, result) -> None:
                        index = indices[pos]
                        entry = self.cache.publish(keys[index], result, board)
                        emit(board_event(index, "miss", entry))

                    run_batch(
                        [board for _, board in misses],
                        config=config,
                        workers=workers,
                        on_board_done=on_board_done,
                    )

                yield from _stream(work)
            yield {
                "kind": "route_event",
                "event": "batch_done",
                "boards": len(boards),
                "cache_hits": hits,
                **counts,
            }

        return generate()

    def check(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """``POST /check`` — the stand-alone DRC gate.

        Always 200 on a well-formed request: violations are the
        endpoint's *answer*, not a transport failure (the ``clean``
        flag and count carry the verdict).
        """
        self._count("check")
        board_dict = payload.get("board")
        if board_dict is None:
            return 400, error_response(RequestError("missing 'board'"))
        if not isinstance(board_dict, dict):
            return 400, error_response(RequestError(NOT_AN_OBJECT))
        try:
            board = board_from_dict(board_dict)
        except (ValueError, KeyError, TypeError) as exc:
            return 400, error_response(
                RequestError(f"invalid board document: {exc}")
            )
        report = check_board(
            board, check_areas=not payload.get("no_areas", False)
        )
        return 200, check_response(report)

    def corpus_events(
        self, payload: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        """``POST /corpus``: per-case NDJSON progress, then the report.

        The sweep runs through :func:`repro.scenarios.run_corpus` with
        this daemon's cache wired underneath, so only boards whose
        content address is new actually route — repeated sweeps are
        incremental far beyond ``--resume``.
        """
        self._count("corpus")
        from ..scenarios import CORPUS_GATE, run_corpus
        from ..scenarios.registry import get as get_scenario

        names = payload.get("scenarios")
        if names is not None:
            if not isinstance(names, list):
                raise RequestError("'scenarios' must be a list of names")
            for name in names:
                try:
                    get_scenario(name)
                except KeyError as exc:
                    raise RequestError(str(exc.args[0])) from exc
        seeds = payload.get("seeds")
        if seeds is not None and not (
            isinstance(seeds, list) and all(type(seed) is int for seed in seeds)
        ):
            raise RequestError("'seeds' must be a list of integers")
        quick = payload.get("quick", False)
        if type(quick) is not bool:
            raise RequestError("'quick' must be true or false")
        gate = payload.get("gate")
        if gate is not None and not (
            type(gate) in (int, float) and abs(gate) <= sys.float_info.max
        ):
            raise RequestError("'gate' must be a finite number")
        preset = payload.get("preset", "fast")
        if preset not in SessionConfig.PRESETS:
            raise RequestError(
                f"unknown preset {preset!r}; expected one of "
                f"{', '.join(SessionConfig.PRESETS)}"
            )
        workers = self._request_workers(payload)

        def work(emit) -> None:
            try:
                report = run_corpus(
                    scenarios=names,
                    seeds=seeds,
                    quick=quick,
                    preset=preset,
                    workers=workers,
                    cache=self.cache,
                    gate=CORPUS_GATE if gate is None else float(gate),
                    on_case=lambda case: emit(
                        {"kind": "corpus_event", "event": "case_done", **case}
                    ),
                )
            except Exception as exc:  # surfaced as the final event
                emit(
                    {
                        "kind": "corpus_event",
                        "event": "error",
                        **error_response(exc),
                    }
                )
                return
            emit(
                {
                    "kind": "corpus_event",
                    "event": "report",
                    "report": corpus_report_to_dict(report),
                }
            )

        return _stream(work)


class _RequestTrace:
    """One request's trace: opened around dispatch, saved on exit.

    Write failures are swallowed — a full disk on the trace volume must
    not fail the request it was meant to observe.
    """

    def __init__(self, app: RouterApp, path: str) -> None:
        self._app = app
        self._ctx = obs.trace(f"request {path}", path=path)

    def __enter__(self):
        return self._ctx.__enter__()

    def __exit__(self, *exc) -> None:
        self._ctx.__exit__(*exc)
        trace = self._ctx.trace
        try:
            os.makedirs(self._app.trace_dir, exist_ok=True)
            save_trace(
                trace,
                os.path.join(self._app.trace_dir, f"{trace.trace_id}.json"),
            )
        except OSError:
            pass


def _parse_body(raw: bytes) -> Dict[str, Any]:
    """A request body's JSON object; :class:`RequestError` otherwise."""
    with obs.span("server.parse_body"):
        try:
            payload = json.loads(raw)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise RequestError(f"invalid JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    return payload


def _answer(
    key: Optional[str],
    cache_state: Optional[str],
    entry: CacheEntry,
    return_board: bool,
) -> Dict[str, Any]:
    """The ``route_response`` envelope of a stored or just-published
    entry, with its routed board when ``return_board``.  The status and
    error come from ``entry.answer`` and the parts ride as their stored
    bytes, which :func:`_json_body` writes verbatim: no part is decoded
    or encoded again."""
    envelope = route_response(key, cache_state, entry.encoded["result"], entry.answer)
    if return_board:
        envelope["routed_board"] = entry.encoded.get("routed_board")
    return envelope


def _json_body(payload: Dict[str, Any]) -> bytes:
    """``json.dumps(payload, separators=(",", ":"))`` as bytes, where a
    ``bytes`` value is JSON already encoded that way and is written
    verbatim."""
    items = []
    for name, value in payload.items():
        if isinstance(value, bytes):
            raw = value
        else:
            raw = json.dumps(value, separators=(",", ":")).encode("utf-8")
        items.append(json.dumps(name).encode("utf-8") + b":" + raw)
    return b"{" + b",".join(items) + b"}"


def _endpoint_name(path: str) -> str:
    """The latency-metric label for a request path (``/result/<key>``
    collapses to ``result`` — content keys must not explode the label
    space)."""
    if path.startswith("/result/"):
        return "result"
    name = path.lstrip("/").split("/", 1)[0].split("?", 1)[0]
    return name or "root"


# -- the HTTP adapter -------------------------------------------------------


def _make_handler_class(app: RouterApp, quiet: bool):
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-serve/{__version__}"
        # Answers are small header writes followed by one body write;
        # Nagle would hold the tail behind a delayed ACK and put
        # milliseconds on every cache hit.
        disable_nagle_algorithm = True
        # Every socket read and write; an idle keep-alive connection is
        # dropped after this long, freeing its handler thread.
        timeout = KEEPALIVE_IDLE_S

        # -- wire helpers ---------------------------------------------------

        def _send_trace_header(self) -> None:
            # Echo the live request trace's id so a client can pair its
            # response with the artifact in --trace-dir.
            trace = obs.current_trace()
            if trace is not None:
                self.send_header("X-Repro-Trace", trace.trace_id)

        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            body = _json_body(payload) + b"\n"
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self._send_trace_header()
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self._send_trace_header()
            self.end_headers()
            self.wfile.write(body)

        def _send_ndjson(self, events: Iterator[Dict[str, Any]]) -> None:
            # Length is unknowable up front (events settle as boards
            # route), so the stream ends by closing the connection —
            # valid HTTP/1.1 with an explicit Connection: close.
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Connection", "close")
            self._send_trace_header()
            self.end_headers()
            self.close_connection = True
            for event in events:
                data = _json_body(event) + b"\n"
                spec = faults.decide("transport.stream", path=self.path)
                if spec is not None and spec.mode == "disconnect":
                    # Mid-body abort: write *half* an event, then drop
                    # the TCP connection — exactly what a crashed proxy
                    # leaves behind.  The truncated line (no newline
                    # before EOF) is what the client detects.
                    self.wfile.write(data[: max(1, len(data) // 2)])
                    self.wfile.flush()
                    self.connection.close()
                    return
                self.wfile.write(data)
                self.wfile.flush()

        def _read_body(self) -> bytes:
            """The request's raw body bytes."""
            text = (self.headers.get("Content-Length") or "0").strip()
            if not (text.isascii() and text.isdigit()):
                # The body's extent is unknown: answer, then drop the
                # connection rather than parse its bytes as a request.
                self.close_connection = True
                raise RequestError(f"invalid Content-Length {text!r}")
            length = int(text)
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                raise PayloadTooLarge(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
            with obs.span("server.read_body", bytes=length):
                raw = self.rfile.read(length) if length else b""
            if not raw:
                raise RequestError("empty request body; send a JSON object")
            return raw

        # -- dispatch -------------------------------------------------------

        def _inject_transport(self) -> bool:
            """Server-side transport faults; True = request consumed.

            ``http_503`` answers with the retryable-overload envelope
            (what the client's backoff is for); ``stall`` sleeps
            ``delay_s`` then serves normally (tripping client
            timeouts); ``disconnect`` drops the TCP connection before
            any response byte.
            """
            spec = faults.decide("transport.response", path=self.path)
            if spec is None:
                return False
            if spec.mode == "http_503":
                self._send_json(
                    503,
                    {
                        "kind": "error_response",
                        "error": {
                            "type": "ServiceUnavailable",
                            "message": "injected overload",
                        },
                    },
                )
                return True
            if spec.mode == "stall":
                time.sleep(spec.delay_s if spec.delay_s is not None else 1.0)
                return False
            if spec.mode == "disconnect":
                self.connection.close()
                return True
            return False

        def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
            try:
                if self._inject_transport():
                    return
                app.enter_request()
            except ShuttingDown as exc:
                self._send_json(503, error_response(exc))
                return
            except BrokenPipeError:
                return
            started = time.perf_counter()
            try:
                with app.request_trace(self.path):
                    if self.path == "/healthz":
                        self._send_json(*app.healthz())
                    elif self.path == "/stats":
                        self._send_json(*app.stats())
                    elif self.path == "/metrics":
                        self._send_text(*app.metrics_text())
                    elif self.path.startswith("/result/"):
                        key = self.path[len("/result/") :]
                        self._send_json(*app.result(key))
                    else:
                        self._send_json(
                            404,
                            error_response(
                                RequestError(f"unknown path {self.path}")
                            ),
                        )
            except BrokenPipeError:
                pass
            except Exception as exc:  # a handler bug must not kill the thread
                self._send_json(500, error_response(exc))
            finally:
                app.observe_request(
                    _endpoint_name(self.path), time.perf_counter() - started
                )
                app.exit_request()

        def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
            try:
                if self._inject_transport():
                    return
                app.enter_request()
            except ShuttingDown as exc:
                self._send_json(503, error_response(exc))
                return
            except BrokenPipeError:
                return
            started = time.perf_counter()
            try:
                with app.request_trace(self.path):
                    raw = self._read_body()
                    if self.path == "/route":
                        # A body the key memo knows is a single-board
                        # request: the app answers a cached one unparsed.
                        digest = hashlib.sha256(raw).digest()
                        payload = None if app.memoized(digest) else _parse_body(raw)
                        if payload is not None and "boards" in payload:
                            self._send_ndjson(app.route_batch_events(payload))
                        else:
                            self._send_json(
                                *app.route(payload, body=raw, digest=digest)
                            )
                        return
                    payload = _parse_body(raw)
                    if self.path == "/check":
                        self._send_json(*app.check(payload))
                    elif self.path == "/corpus":
                        self._send_ndjson(app.corpus_events(payload))
                    else:
                        self._send_json(
                            404,
                            error_response(
                                RequestError(f"unknown path {self.path}")
                            ),
                        )
            except PayloadTooLarge as exc:
                self._send_json(413, error_response(exc))
            except RequestError as exc:
                self._send_json(400, error_response(exc))
            except BrokenPipeError:
                pass
            except TimeoutError:
                # The client went quiet inside its request: drop it.
                self.close_connection = True
            except Exception as exc:
                try:
                    self._send_json(500, error_response(exc))
                except Exception:
                    pass
            finally:
                app.observe_request(
                    _endpoint_name(self.path), time.perf_counter() - started
                )
                app.exit_request()

        def log_message(self, format: str, *args: Any) -> None:
            if not quiet:
                super().log_message(format, *args)

    return Handler


def _refusal_bytes(threads: int, queued: int) -> bytes:
    """The whole 429 answer the accept thread writes when ``threads``
    connections are in service and ``queued`` more wait."""
    body = _json_body(
        {
            "kind": "error_response",
            "error": {
                "type": "TooManyRequests",
                "message": (
                    f"server busy: {threads} connections in service "
                    f"and {queued} queued; retry after "
                    f"{RETRY_AFTER_S} s"
                ),
            },
        }
    ) + b"\n"
    head = (
        "HTTP/1.1 429 Too Many Requests\r\n"
        f"Server: repro-serve/{__version__}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Retry-After: {RETRY_AFTER_S}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _drained(sock: socket.socket) -> bool:
    """Read and drop what a refused client has sent; whether it is done
    (its end closed, or the socket failed)."""
    try:
        while True:
            if not sock.recv(65536):
                return True
    except BlockingIOError:
        return False
    except OSError:
        return True


class _PooledHTTPServer(HTTPServer):
    """An ``HTTPServer`` whose accept loop hands each connection to a
    capped pool of reused daemon handler threads.

    A new thread starts only when no idle one can take the connection,
    and never past :data:`HANDLER_THREADS`; up to :data:`HANDLER_QUEUE`
    more connections wait for a free thread.  Past that the accept
    thread answers 429 itself.  Idle threads block on a condition, so
    nothing joins them at process exit.
    """

    # A burst is accepted (and served or refused) rather than left to
    # SYN retries in a five-deep listen backlog.
    request_queue_size = 64

    def __init__(self, address, handler, app: RouterApp) -> None:
        super().__init__(address, handler)
        self._app = app
        self.max_threads = HANDLER_THREADS
        self.max_queued = HANDLER_QUEUE
        self._refusal = _refusal_bytes(self.max_threads, self.max_queued)
        self._cond = threading.Condition()
        #: Accepted connections no handler thread has taken yet.
        self._pending: Deque[Tuple[socket.socket, Any]] = deque()
        self._threads = 0  # live handler threads
        self._idle = 0  # of which waiting for a connection
        self._admitted = 0  # connections queued or in service
        self._closing = False
        #: ``(close-by time, socket)`` of refused connections; touched
        #: only by the accept thread (and by ``server_close`` after it).
        self._refused: List[Tuple[float, socket.socket]] = []

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "threads": self._threads,
                "busy": self._threads - self._idle,
                "queued": len(self._pending),
                "max_threads": self.max_threads,
                "max_queued": self.max_queued,
                "rejected": int(
                    self._app.metrics.value("repro_server_rejected_total")
                ),
            }

    def process_request(self, request, client_address) -> None:
        with self._cond:
            admit = self._admitted < self.max_threads + self.max_queued
            spawn = False
            if admit:
                self._admitted += 1
                self._pending.append((request, client_address))
                spawn = (
                    len(self._pending) > self._idle
                    and self._threads < self.max_threads
                )
                if spawn:
                    self._threads += 1
                else:
                    self._cond.notify()
        if not admit:
            self._refuse(request)
        elif spawn:
            threading.Thread(
                target=self._handle_connections, name="repro-handler", daemon=True
            ).start()

    def _handle_connections(self) -> None:
        """One handler thread: serve queued connections until closing."""
        while True:
            with self._cond:
                self._idle += 1
                while not self._pending and not self._closing:
                    self._cond.wait()
                self._idle -= 1
                if not self._pending:
                    self._threads -= 1
                    return
                request, client_address = self._pending.popleft()
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
                with self._cond:
                    self._admitted -= 1

    def _refuse(self, request: socket.socket) -> None:
        """Answer 429 on the accept thread, then half-close: the socket
        stays open (see :data:`REFUSED_LINGER_S`) until the client has
        read the answer."""
        self._app.metrics.inc("repro_server_rejected_total")
        try:
            request.setblocking(False)
            request.send(self._refusal)
            request.shutdown(socket.SHUT_WR)
        except OSError:
            request.close()
            return
        self._refused.append((time.monotonic() + REFUSED_LINGER_S, request))
        if len(self._refused) > REFUSED_LINGER_MAX:
            self._refused.pop(0)[1].close()

    def service_actions(self) -> None:
        # Runs on the accept thread after each connection and each poll.
        if self._refused:
            now = time.monotonic()
            waiting = []
            for close_by, sock in self._refused:
                if _drained(sock) or now >= close_by:
                    sock.close()
                else:
                    waiting.append((close_by, sock))
            self._refused = waiting

    def server_close(self) -> None:
        super().server_close()
        for _, sock in self._refused:
            sock.close()
        self._refused = []
        # Handler threads finish the queued connections (answered 503
        # once the app drains), then exit.
        with self._cond:
            self._closing = True
            self._cond.notify_all()


class ReproHTTPServer:
    """A bound, ready-to-serve daemon (a pooled ``HTTPServer`` wrapper).

    ``port=0`` binds an ephemeral port; read the real one back from
    :attr:`port` (the bench and tests rely on this).
    """

    def __init__(
        self,
        app: RouterApp,
        host: str = "127.0.0.1",
        port: int = 8765,
        quiet: bool = True,
    ) -> None:
        self.app = app
        handler = _make_handler_class(app, quiet=quiet)
        self._server = _PooledHTTPServer((host, port), handler, app)
        app.transport_stats = self._server.stats
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def start_background(self) -> "ReproHTTPServer":
        """Serve from a daemon thread (tests and the perf bench)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def request_graceful_shutdown(self) -> None:
        """Begin a graceful shutdown without blocking (signal-handler
        safe): stop admitting requests now; the accept loop is stopped
        from a helper thread (``shutdown()`` blocks until the loop
        exits, which must not happen on the thread running it)."""
        self.app.begin_drain()
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def shutdown(self, drain_timeout: Optional[float] = 30.0) -> bool:
        """Stop accepting, drain in-flight requests, close the socket.

        Returns whether the drain emptied within ``drain_timeout`` —
        open NDJSON streams finish their final event before this
        returns (the SIGTERM contract ``repro serve`` relies on).
        """
        self.app.begin_drain()
        self._server.shutdown()
        drained = self.app.drain(drain_timeout)
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return drained


def make_http_server(
    cache_dir: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: Optional[int] = None,
    cache_max_bytes: int = DEFAULT_MAX_BYTES,
    quiet: bool = True,
    request_deadline: Optional[float] = None,
    trace_dir: Optional[str] = None,
) -> ReproHTTPServer:
    """A bound daemon fronting a fresh :class:`RouterApp`."""
    app = RouterApp(
        cache_dir,
        workers=workers,
        cache_max_bytes=cache_max_bytes,
        request_deadline=request_deadline,
        trace_dir=trace_dir,
    )
    return ReproHTTPServer(app, host=host, port=port, quiet=quiet)


def serve_forever(server: ReproHTTPServer) -> None:
    """Blocking serve loop with a clean shutdown (the CLI path).

    Ctrl-C and SIGTERM (when the CLI installed its handler) both land
    here: the loop exits, then ``shutdown()`` drains in-flight requests
    before the process goes away — a deployed daemon behind a rolling
    restart finishes the work it already accepted.
    """
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
