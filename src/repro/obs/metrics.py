"""Counters and bounded histograms with Prometheus text exposition.

A :class:`MetricsRegistry` is a named bag of :class:`Counter` and
:class:`Histogram` instruments.  The module-global :data:`REGISTRY`
collects process-wide signals (stage/DTW latencies, fault fires,
extension iterations); components whose tests assert *per-instance*
numbers — ``ResultCache``, ``RouterApp`` — hold their own registry so
two caches in one process don't bleed into each other.  The server's
``GET /metrics`` renders all three concatenated.

Unlike tracing there is no off switch: metrics are always on,
Prometheus-style.  Instruments are cheap (a lock + dict update, ~1 µs)
and every call site sits on a path that costs orders of magnitude more.

Histograms keep three things per label set: cumulative buckets (the
Prometheus ``_bucket{le=...}`` series), running count/sum, and a
bounded reservoir of the most recent samples from which ``snapshot()``
derives p50/p90/p99 for the JSON ``/stats`` surface.  The reservoir is
a recency window, not a statistical sample — good enough for "what do
request latencies look like right now", which is what /stats is for.

Metric names are fully spelled out at the call site (``repro_*``);
nothing auto-prefixes, so grepping a scrape for a name lands on the
line that increments it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple, Union

#: Default latency buckets (seconds): 100 µs … 10 s, roughly 1-2.5-5.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Per-label-set reservoir size for quantile estimates.
RESERVOIR_SIZE = 512

LabelValues = Tuple[str, ...]


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, Any]) -> LabelValues:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labelnames: Tuple[str, ...], values: LabelValues, extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(value)}"' for name, value in zip(labelnames, values)]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


class Counter:
    """A monotonically increasing value, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[LabelValues, float] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} counter")
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            items = [((), 0.0)] if not self.labelnames else []
        for key, value in items:
            lines.append(f"{self.name}{_format_labels(self.labelnames, key)} {_format_value(value)}")
        return lines

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            values = dict(self._values)
        if not self.labelnames:
            return {"type": "counter", "value": values.get((), 0.0)}
        return {
            "type": "counter",
            "values": {",".join(key): value for key, value in sorted(values.items())},
        }


class _HistChild:
    __slots__ = ("count", "sum", "buckets", "ring")

    def __init__(self, n_buckets: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.buckets = [0] * n_buckets
        self.ring: Deque[float] = deque(maxlen=RESERVOIR_SIZE)


class Histogram:
    """Cumulative-bucket histogram plus a bounded quantile reservoir."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._children: Dict[LabelValues, _HistChild] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistChild(len(self.buckets))
            child.count += 1
            child.sum += value
            child.ring.append(value)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    child.buckets[i] += 1

    def count(self, **labels: Any) -> int:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            return child.count if child else 0

    def quantiles(self, **labels: Any) -> Dict[str, float]:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            samples = list(child.ring) if child else []
        return {
            "p50": percentile(samples, 0.50),
            "p90": percentile(samples, 0.90),
            "p99": percentile(samples, 0.99),
        }

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} histogram")
        with self._lock:
            items = sorted(
                (key, child.count, child.sum, list(child.buckets))
                for key, child in self._children.items()
            )
        for key, count, total, bucket_counts in items:
            for bound, cumulative in zip(self.buckets, bucket_counts):
                le = f'le="{_format_value(bound)}"'
                lines.append(
                    f"{self.name}_bucket{_format_labels(self.labelnames, key, le)} {cumulative}"
                )
            lines.append(
                self.name
                + "_bucket"
                + _format_labels(self.labelnames, key, 'le="+Inf"')
                + f" {count}"
            )
            lines.append(f"{self.name}_sum{_format_labels(self.labelnames, key)} {_format_value(total)}")
            lines.append(f"{self.name}_count{_format_labels(self.labelnames, key)} {count}")
        return lines

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            items = sorted(
                (key, child.count, child.sum, list(child.ring))
                for key, child in self._children.items()
            )
        out: Dict[str, Any] = {"type": "histogram", "values": {}}
        for key, count, total, samples in items:
            out["values"][",".join(key)] = {
                "count": count,
                "sum": total,
                "p50": percentile(samples, 0.50),
                "p90": percentile(samples, 0.90),
                "p99": percentile(samples, 0.99),
            }
        if not self.labelnames:
            out = {"type": "histogram", **(out["values"].get("", {"count": 0, "sum": 0.0}))}
        return out


Instrument = Union[Counter, Histogram]


class MetricsRegistry:
    """A named collection of instruments.

    ``inc``/``observe`` are the convenience front doors: they create
    the instrument on first use, inferring labelnames from the labels
    passed.  Explicit ``counter()``/``histogram()`` calls let a caller
    attach help text or custom buckets up front.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Instrument] = {}

    # -- creation ------------------------------------------------------

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram) or existing.labelnames != tuple(labelnames):
                    raise ValueError(f"metric {name!r} already registered with a different shape")
                return existing
            hist = Histogram(name, help, labelnames, buckets)
            self._metrics[name] = hist
            return hist

    def _get_or_create(
        self, cls: type, name: str, help: str, labelnames: Tuple[str, ...]
    ) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != labelnames:
                    raise ValueError(f"metric {name!r} already registered with a different shape")
                return existing
            metric = cls(name, help, labelnames)
            self._metrics[name] = metric
            return metric

    # -- front doors ---------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        self._get_or_create(Counter, name, "", tuple(sorted(labels))).inc(value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            existing = self._metrics.get(name)
        if existing is None:
            existing = self.histogram(name, labelnames=tuple(sorted(labels)))
        existing.observe(value, **labels)

    def value(self, name: str, **labels: Any) -> float:
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        if isinstance(metric, Counter):
            return metric.value(**labels)
        return float(metric.count(**labels))

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._metrics.get(name)

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}

    def render_prometheus(self) -> str:
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for _, metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: Process-global registry for cross-cutting signals.
REGISTRY = MetricsRegistry()


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Concatenated Prometheus exposition for several registries.

    Callers keep metric names unique across the registries they merge
    (the server does: app = ``repro_request*``, cache = ``repro_cache*``,
    global = everything else)."""
    return "".join(registry.render_prometheus() for registry in registries)
