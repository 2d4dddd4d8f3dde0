"""repro.server — routing-as-a-service.

A long-lived, stdlib-only HTTP/JSON daemon that keeps the library
imported and fronts every routing request with the persistent
content-addressed result cache (:mod:`repro.cache`), so a repeated
identical request is served in microseconds without executing any
pipeline stage.

Surface:

* :class:`RouterApp` — the transport-free application object: request
  payload in, ``(http_status, envelope)`` out.  Unit tests drive it
  directly; the HTTP layer is a thin adapter.
* :func:`make_http_server` — an HTTP server bound to a
  :class:`RouterApp` (what ``python -m repro serve`` runs): a capped
  pool of reused handler threads serves the connections, and a burst
  past the cap and its short queue is answered 429 with ``Retry-After``.
* :class:`~repro.server.client.ServerClient` — the stdlib client used
  by ``route --remote`` and the test-suite.

Protocol (see the README "Serving" section for the full schema):

====================  =====================================================
``GET /healthz``      liveness: ``{"ok": true, ...}``
``GET /stats``        request counters + cache hit/miss/eviction stats
``GET /result/<key>`` a cached artifact by content address (404 on a miss)
``POST /route``       route one board (JSON) or a batch (NDJSON stream)
``POST /check``       stand-alone DRC gate
``POST /corpus``      scenario corpus sweep, progress streamed as NDJSON
====================  =====================================================

Status mapping (single-board ``/route``): ``status="ok"`` → 200,
``"failed"`` → 422 with the run's error/DRC detail, ``"crashed"`` → 500
with the PR 5 error record (stage + traceback tail).  Batch endpoints
always answer 200 and carry per-board status in each NDJSON line —
transport success and routing verdicts are separate things once more
than one board shares a response.
"""

from .app import (
    STATUS_TO_HTTP,
    ReproHTTPServer,
    RequestError,
    RouterApp,
    ShuttingDown,
    make_http_server,
    serve_forever,
)

__all__ = [
    "STATUS_TO_HTTP",
    "RequestError",
    "RouterApp",
    "ReproHTTPServer",
    "ShuttingDown",
    "make_http_server",
    "serve_forever",
]
