"""repro.faults — deterministic fault injection for the reliability stack.

The serving/cache/executor layers were each hardened against specific
failures (PR 5: crashing boards, PR 6: torn cache writes); this package
makes those guarantees *testable* by compiling named injection points
into the production paths and arming them from a seeded
:class:`FaultPlan`:

====================  ====================================================
``stage.<name>``      before each pipeline stage runs (``raise`` /
                      ``hang`` / ``slow``) — :mod:`repro.api.session`
``executor.worker``   inside a worker process, before routing a board
                      (``kill`` / ``hang`` / ``raise``) —
                      :mod:`repro.api.executor`
``cache.write``       in :meth:`repro.cache.ResultCache.put` (``torn`` /
                      ``garbage`` / ``enospc`` / ``raise``)
``cache.read``        in :meth:`repro.cache.ResultCache.get`
                      (``garbage`` — corrupts the entry on disk first,
                      so the real quarantine path handles it)
``transport.request``   client-side, before sending (``refuse`` /
                        ``stall``) — :mod:`repro.server.client`
``transport.response``  server-side, per request (``http_503`` /
                        ``stall`` / ``disconnect``) —
                        :mod:`repro.server.app`
====================  ====================================================

Activation crosses process boundaries: :func:`activate` arms a plan in
this process (a context manager, optionally exporting it), and any
process whose :data:`ENV_VAR` environment variable holds a plan JSON
document (or an ``@/path/to/plan.json`` reference) arms it on first
probe — which is how the chaos suite reaches executor worker processes
and ``repro serve`` subprocesses.  With no plan armed, every injection
point is a dictionary lookup away from free.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

from ..obs.metrics import REGISTRY as _METRICS
from .invariants import VOLATILE_REPORT_KEYS, stable_report, stable_report_bytes
from .plan import FaultInjected, FaultPlan, FaultSpec

#: A JSON fault-plan document, or ``@<path>`` naming a file holding one.
ENV_VAR = "REPRO_FAULT_PLAN"

#: The in-process plan armed by :func:`activate` (wins over the env var).
_active: Optional[FaultPlan] = None
#: Env-var parse cache keyed by the raw value, so re-probing is one
#: dict lookup yet a changed variable (tests re-arming plans) reloads.
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def _plan_from_env() -> Optional[FaultPlan]:
    global _env_cache
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    cached_raw, cached_plan = _env_cache
    if raw == cached_raw:
        return cached_plan
    text = raw
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    plan = FaultPlan.from_json(text)
    _env_cache = (raw, plan)
    return plan


def active_plan() -> Optional[FaultPlan]:
    """The plan faults currently fire under, or ``None`` (the norm)."""
    if _active is not None:
        return _active
    return _plan_from_env()


@contextmanager
def activate(plan: FaultPlan, env: bool = False) -> Iterator[FaultPlan]:
    """Arm ``plan`` in this process for the duration of the block.

    ``env=True`` also exports it through :data:`ENV_VAR`, so
    subprocesses started inside the block (executor workers, a spawned
    ``repro serve``) inherit the same plan.
    """
    global _active
    previous = _active
    previous_env = os.environ.get(ENV_VAR)
    _active = plan
    if env:
        os.environ[ENV_VAR] = plan.to_json()
    try:
        yield plan
    finally:
        _active = previous
        if env:
            if previous_env is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = previous_env


def decide(site: str, **context: Any) -> Optional[FaultSpec]:
    """The spec firing at ``site`` this call, or ``None``.

    Host code for site-specific modes (``torn``, ``http_503``, ...)
    calls this directly and interprets the returned spec itself.
    """
    plan = active_plan()
    if plan is None:
        return None
    spec = plan.decide(site, **context)
    if spec is not None:
        # Every fire — whatever the mode, whoever interprets it — goes
        # through here, so this one counter is the complete record of
        # injected chaos (surfaced at ``GET /metrics``).
        _METRICS.inc("repro_fault_fires_total", site=site, mode=spec.mode)
    return spec


def perform(spec: FaultSpec, site: str) -> None:
    """Execute one of the *generic* modes for a fired spec.

    ``raise`` raises :class:`FaultInjected`; ``slow`` sleeps
    ``delay_s`` (default 0.05 s) and continues; ``hang`` sleeps
    ``delay_s`` (default 3600 s — long enough that any deadline fires
    first); ``kill`` hard-exits the process like SIGKILL would
    (``os._exit``, no cleanup, no atexit).  Site-specific modes are the
    host code's job and raise :class:`ValueError` here.
    """
    plan = active_plan()
    if spec.mode == "raise":
        raise FaultInjected(site, plan.name if plan is not None else "")
    if spec.mode == "slow":
        time.sleep(spec.delay_s if spec.delay_s is not None else 0.05)
        return
    if spec.mode == "hang":
        time.sleep(spec.delay_s if spec.delay_s is not None else 3600.0)
        return
    if spec.mode == "kill":
        os._exit(42)
    raise ValueError(
        f"mode {spec.mode!r} is site-specific; inject() cannot perform it"
    )


def inject(site: str, **context: Any) -> None:
    """The one-line injection point: decide, then perform.

    Compiled into production paths where only the generic modes make
    sense (stage execution, worker entry).  No plan armed ⇒ two
    attribute reads and out.
    """
    spec = decide(site, **context)
    if spec is not None:
        perform(spec, site)


__all__ = [
    "ENV_VAR",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "VOLATILE_REPORT_KEYS",
    "activate",
    "active_plan",
    "decide",
    "inject",
    "perform",
    "stable_report",
    "stable_report_bytes",
]
