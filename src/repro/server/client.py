"""A stdlib client for the repro routing service.

Used by ``python -m repro route --remote URL``, the CI server-smoke job
and the test-suite; any HTTP client speaks the same protocol (see the
README "Serving" section), this one just packages the envelope handling.

The server maps routing verdicts onto HTTP status codes (failed → 422,
crashed → 500), so non-2xx answers still carry a JSON envelope —
:class:`ServerClient` surfaces every such response as a
:class:`ServerResponse` instead of raising, keeping local and remote
error handling symmetrical.  Only transport-level failures (connection
refused, malformed reply) raise.

Transport failures are *retried* when the request is safe to replay:
every GET, plus ``POST /route`` (single board) and ``POST /check`` —
the route endpoint is content-addressed, so replaying the identical
request can only re-derive (or re-serve) the identical artifact, and a
DRC check is a pure function of its board.  Retries use capped
exponential backoff with jitter under an overall deadline budget;
jitter draws from an injectable ``random.Random``, so tests pin the
exact retry schedule by seed.  A server that stays dead surfaces
:class:`ServerUnavailable` — a typed error naming the attempts and
elapsed budget — instead of an infinite hang or a raw ``URLError``.
Streaming requests (batch ``/route``, ``/corpus``) are never replayed:
half a stream may already have been consumed.

Retryable signals: connection refused/reset (``URLError``), a
mid-response disconnect (``IncompleteRead``/``ConnectionError``), a
socket timeout, HTTP 429 (the daemon's handler pool is full) and HTTP
503 (the overload/draining answer) — never other 4xx/422/500, which are
*verdicts* about the request, not the transport.  A retry after an
answer that carries ``Retry-After`` waits at least that long.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Sequence, Union

from .. import faults
from ..io import board_to_dict
from ..model import Board

#: Per-request socket timeout; routing a large cold board takes a while,
#: a hung daemon should still fail the client eventually.
DEFAULT_TIMEOUT = 300.0

#: Default retry schedule: 3 tries total, 0.1 s base doubling to a 2 s
#: cap, full jitter — a restarting daemon gets ~2 chances to come back
#: without the client stalling a pipeline for long.
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_BASE = 0.1
DEFAULT_BACKOFF_CAP = 2.0

#: HTTP statuses that mean "not now" rather than a verdict: the daemon's
#: handler pool is full (429), or it is overloaded or draining (503).
RETRY_STATUSES = (429, 503)


def _retry_after_s(exc: urllib.error.HTTPError) -> float:
    """The answer's ``Retry-After`` in seconds (0 when absent, or an
    HTTP date rather than a number)."""
    try:
        return max(0.0, float(exc.headers.get("Retry-After", 0)))
    except (TypeError, ValueError):
        return 0.0


class TransportError(OSError):
    """A transport-level failure talking to the daemon (the envelope
    never arrived); carries no routing verdict."""


class ServerUnavailable(TransportError):
    """The daemon stayed unreachable through every allowed retry (or
    the deadline budget ran out first)."""

    def __init__(
        self, url: str, attempts: int, elapsed: float, cause: BaseException
    ) -> None:
        super().__init__(
            f"{url} unavailable after {attempts} attempt(s) over "
            f"{elapsed:.2f} s: {type(cause).__name__}: {cause}"
        )
        self.url = url
        self.attempts = attempts
        self.elapsed = elapsed
        self.cause = cause


@dataclass
class ServerResponse:
    """One HTTP answer: status code, parsed envelope, raw body bytes."""

    status: int
    payload: Dict[str, Any]
    raw: bytes = field(repr=False, default=b"")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ServerClient:
    """Typed access to one daemon's endpoints.

    ``retries`` bounds *additional* attempts after the first for
    idempotent requests; ``deadline`` is the overall wall-clock budget
    across all attempts (``None`` = bounded only by per-attempt
    ``timeout`` × attempts); ``rng`` supplies the backoff jitter —
    pass ``random.Random(seed)`` for a deterministic schedule.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        deadline: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.deadline = deadline
        self.rng = rng if rng is not None else random.Random()
        #: Total transport retries performed over this client's life
        #: (the bench's retry-overhead number).
        self.retry_count = 0

    # -- retry plumbing ------------------------------------------------------

    def _backoff_s(self, attempt: int) -> float:
        """Capped exponential backoff with full jitter for retry
        ``attempt`` (1-based): ``uniform(0, min(cap, base * 2^(n-1)))``."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return self.rng.uniform(0.0, ceiling)

    @staticmethod
    def _retryable(exc: BaseException) -> bool:
        if isinstance(exc, urllib.error.HTTPError):
            return exc.code in RETRY_STATUSES
        if isinstance(exc, urllib.error.URLError):
            return True
        return isinstance(
            exc,
            (
                http.client.IncompleteRead,
                http.client.BadStatusLine,
                ConnectionError,
                socket.timeout,
                TimeoutError,
            ),
        )

    def _open_with_retry(
        self, request: urllib.request.Request, idempotent: bool
    ):
        """``urlopen`` with the retry/deadline policy; returns the live
        response.  An ``HTTPError`` outside :data:`RETRY_STATUSES`
        propagates to the caller (it carries an envelope); exhausted
        transport failures become :class:`ServerUnavailable`.
        """
        started = time.monotonic()
        attempts = self.retries + 1 if idempotent else 1
        made = 0
        last_exc: Optional[BaseException] = None
        for attempt in range(1, attempts + 1):
            made = attempt
            spec = faults.decide(
                "transport.request", path=request.full_url, attempt=attempt
            )
            try:
                if spec is not None and spec.mode == "refuse":
                    raise urllib.error.URLError(
                        ConnectionRefusedError("injected connection refusal")
                    )
                if spec is not None and spec.mode == "stall":
                    time.sleep(
                        spec.delay_s if spec.delay_s is not None else 1.0
                    )
                timeout = self.timeout
                if self.deadline is not None:
                    remaining = self.deadline - (time.monotonic() - started)
                    if remaining <= 0:
                        break
                    timeout = min(timeout, remaining)
                return urllib.request.urlopen(request, timeout=timeout)
            except BaseException as exc:
                if not self._retryable(exc):
                    raise  # a verdict envelope, or not a transport failure
                last_exc = exc
                floor = 0.0
                if isinstance(exc, urllib.error.HTTPError):
                    floor = _retry_after_s(exc)
                    exc.close()
                if attempt >= attempts:
                    break
                pause = max(floor, self._backoff_s(attempt))
                if self.deadline is not None:
                    remaining = self.deadline - (time.monotonic() - started)
                    if remaining <= pause:
                        break  # the budget can't fund another attempt
                self.retry_count += 1
                time.sleep(pause)
        if last_exc is None:
            # The deadline budget ran out before a single attempt fit.
            last_exc = TimeoutError("deadline budget exhausted")
        raise ServerUnavailable(
            request.full_url,
            attempts=made,
            elapsed=time.monotonic() - started,
            cause=last_exc,
        ) from last_exc

    # -- wire helpers -------------------------------------------------------

    def _request(
        self,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        idempotent: Optional[bool] = None,
    ) -> ServerResponse:
        request = urllib.request.Request(
            self.base_url + path,
            data=(
                json.dumps(payload).encode("utf-8")
                if payload is not None
                else None
            ),
            headers={"Content-Type": "application/json"},
            method="POST" if payload is not None else "GET",
        )
        if idempotent is None:
            idempotent = payload is None  # GETs are always safe to replay
        try:
            with self._open_with_retry(request, idempotent) as resp:
                raw = resp.read()
                status = resp.status
        except urllib.error.HTTPError as exc:
            # 4xx/5xx still carry the JSON envelope; hand it back.
            raw = exc.read()
            status = exc.code
        return ServerResponse(
            status=status, payload=json.loads(raw), raw=raw
        )

    def _stream(
        self, path: str, payload: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        request = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            # Streams are not replayed (events may already have been
            # consumed), but the *connection attempt* is idempotent —
            # nothing has been processed until the server answers.
            resp = self._open_with_retry(request, idempotent=True)
        except urllib.error.HTTPError as exc:
            # Pre-stream validation failed: one envelope, not a stream.
            yield json.loads(exc.read())
            return
        with resp:
            try:
                for raw_line in resp:
                    line = raw_line.strip()
                    if not line:
                        continue
                    if not raw_line.endswith(b"\n"):
                        # EOF inside an event: the server (or something
                        # between) died mid-body.  NDJSON events are
                        # newline-terminated, so a missing terminator
                        # can only mean truncation.
                        raise TransportError(
                            f"{self.base_url + path}: stream truncated "
                            "mid-event (connection lost?)"
                        )
                    yield json.loads(line)
            except (
                http.client.IncompleteRead,
                ConnectionError,
                socket.timeout,
            ) as exc:
                raise TransportError(
                    f"{self.base_url + path}: stream broken mid-body: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

    @staticmethod
    def _board_dict(board: Union[Board, Dict[str, Any]]) -> Dict[str, Any]:
        return board_to_dict(board) if isinstance(board, Board) else board

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> ServerResponse:
        return self._request("/healthz")

    def stats(self) -> ServerResponse:
        return self._request("/stats")

    def result(self, key: str) -> ServerResponse:
        return self._request(f"/result/{key}")

    def route(
        self,
        board: Union[Board, Dict[str, Any]],
        preset: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        return_board: bool = False,
    ) -> ServerResponse:
        """Route one board; the envelope mirrors local ``route --json``.

        Retried on transport failure: the request is content-addressed
        (the key is a pure function of board + config + version), so a
        replay is served from the cache or re-derives the identical
        artifact — there is no non-idempotent state to corrupt.
        """
        payload: Dict[str, Any] = {"board": self._board_dict(board)}
        if preset is not None:
            payload["preset"] = preset
        if config is not None:
            payload["config"] = config
        if return_board:
            payload["return_board"] = True
        return self._request("/route", payload, idempotent=True)

    def route_batch(
        self,
        boards: Sequence[Union[Board, Dict[str, Any]]],
        preset: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        workers: Optional[int] = None,
        return_board: bool = False,
    ) -> Iterator[Dict[str, Any]]:
        """Route a batch; yields NDJSON events as boards settle."""
        payload: Dict[str, Any] = {
            "boards": [self._board_dict(b) for b in boards]
        }
        if preset is not None:
            payload["preset"] = preset
        if config is not None:
            payload["config"] = config
        if workers is not None:
            payload["workers"] = workers
        if return_board:
            payload["return_board"] = True
        return self._stream("/route", payload)

    def check(
        self,
        board: Union[Board, Dict[str, Any]],
        no_areas: bool = False,
    ) -> ServerResponse:
        payload: Dict[str, Any] = {"board": self._board_dict(board)}
        if no_areas:
            payload["no_areas"] = True
        return self._request("/check", payload, idempotent=True)

    def corpus(
        self,
        scenarios: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
        quick: bool = False,
        preset: str = "fast",
        workers: Optional[int] = None,
        gate: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Run a corpus sweep; yields per-case events then the report."""
        payload: Dict[str, Any] = {"quick": quick, "preset": preset}
        if scenarios is not None:
            payload["scenarios"] = list(scenarios)
        if seeds is not None:
            payload["seeds"] = list(seeds)
        if workers is not None:
            payload["workers"] = workers
        if gate is not None:
            payload["gate"] = gate
        return self._stream("/corpus", payload)


__all__ = [
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_RETRIES",
    "DEFAULT_TIMEOUT",
    "RETRY_STATUSES",
    "ServerClient",
    "ServerResponse",
    "ServerUnavailable",
    "TransportError",
]
