"""repro.obs — dependency-free tracing + metrics.

Two halves:

* :mod:`repro.obs.tracing` — opt-in nested spans collected into a
  :class:`Trace` JSON artifact.  Off by default; every instrumentation
  site degrades to a shared no-op span costing well under 5 µs.
* :mod:`repro.obs.metrics` — always-on counters and bounded histograms
  with Prometheus text exposition, served by the daemon at
  ``GET /metrics``.

Usage, host side::

    from repro import obs

    with obs.trace("route board7") as t:
        session.run()
    io.save_trace(t, "trace.json")

Usage, instrumentation side::

    with obs.span("stage.match", board=board.name) as sp:
        record = stage.run(...)
        sp.set(status=record.status)
    obs.REGISTRY.observe("repro_stage_seconds", record.runtime, stage=stage.name)
"""

from . import metrics, tracing
from .metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    percentile,
    render_prometheus,
)
from .tracing import (
    ENV_VAR,
    NOOP_SPAN,
    TRACE_FORMAT_VERSION,
    TRACE_KIND,
    Span,
    Trace,
    aggregate_spans,
    annotate,
    current_trace,
    enabled,
    iter_tree,
    record,
    span,
    trace,
    use_trace,
)

__all__ = [
    "metrics",
    "tracing",
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "render_prometheus",
    "ENV_VAR",
    "NOOP_SPAN",
    "TRACE_FORMAT_VERSION",
    "TRACE_KIND",
    "Span",
    "Trace",
    "aggregate_spans",
    "annotate",
    "current_trace",
    "enabled",
    "iter_tree",
    "record",
    "span",
    "trace",
    "use_trace",
]
