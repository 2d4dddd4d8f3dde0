"""Per-layer tracing from outside the program.

The traced run installs wrappers around public functions of each layer,
patching the attribute where the caller looks it up, and records one span
per call: name, layer, thread, start, duration and the time its child
spans cover.  Spans stay in memory until the run ends.  ``repro.obs``
spans the program already emits (``router.match_*``,
``extension.iteration``) are harvested by activating an ``obs`` trace
around each ``RoutingSession.run``.  Nothing is added to ``src/``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: The repo's layers, as the per-layer metrics name them.
LAYERS = ("io", "region", "core", "dtw", "drc", "geometry", "cache", "server")


class Span:
    __slots__ = ("name", "layer", "op", "thread", "start", "duration", "child", "info")

    def __init__(self, name: str, layer: str, op: Optional[int], start: float) -> None:
        self.name = name
        self.layer = layer
        self.op = op
        self.thread = threading.get_ident()
        self.start = start
        self.duration = 0.0
        self.child = 0.0
        self.info: Any = None

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "layer": self.layer,
            "op": self.op,
            "thread": self.thread,
            "start_s": self.start,
            "duration_s": self.duration,
            "self_s": self.self_time,
            "info": self.info,
        }


class Recorder:
    """Collects spans and call counts while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: ``repro.obs`` span dicts harvested per op.
        self.obs_spans: List[Dict[str, Any]] = []
        self.active = False
        #: Index of the operation in progress (set by the harness).
        self.op: Optional[int] = None
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._t0 = time.perf_counter()

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        # A class attribute is restored from the class's own namespace.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        info: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            stack = recorder._stack()
            span = Span(name, layer, recorder.op, time.perf_counter() - recorder._t0)
            stack.append(span)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.duration = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1].child += span.duration
                recorder.spans.append(span)
            if info is not None:
                span.info = info(result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` (no span: too many calls)."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.active:
                recorder.counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def harvest_obs(self, owner: Any, attr: str) -> None:
        """Run ``owner.attr`` under a ``repro.obs`` trace and keep its spans."""
        from repro import obs

        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            op = recorder.op
            with obs.trace("perfbench") as trace:
                result = original(*args, **kwargs)
            for span in trace.to_dict()["spans"]:
                span["op"] = op
                recorder.obs_spans.append(span)
            return result

        self._patch(owner, attr, wrapper)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [s.to_dict() for s in self.spans],
                    "counts": dict(self.counts),
                    "obs_spans": self.obs_spans,
                },
                fh,
            )


class _TimedJson:
    """Stand-in for the ``json`` module inside ``repro.server.app``:
    request-body parsing and response encoding become io spans."""

    def __init__(self, recorder: Recorder) -> None:
        self.loads = json.loads
        self.dumps = json.dumps
        recorder.wrap(self, "loads", "io.json_loads", "io")
        recorder.wrap(self, "dumps", "io.json_dumps", "io")

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def install(recorder: Recorder, harness_module: Any) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.api.session as session
    import repro.api.stages as stages
    import repro.cache as cache
    import repro.core.router as router
    import repro.region as region
    import repro.region.assign as assign
    import repro.server.app as app
    from repro.core.dp import SegmentDP
    from repro.core.extension import TraceExtender
    from repro.core.scene import ClearanceScene
    from repro.geometry.segment import Segment

    w = recorder.wrap
    # io: the benchmark's own decode/encode steps and the daemon's.
    w(harness_module, "decode_board", "io.decode", "io")
    w(harness_module, "encode_result", "io.encode", "io")
    w(app, "board_from_dict", "io.board_from_dict", "io")
    w(app, "run_result_to_dict", "io.run_result_to_dict", "io")
    w(app, "board_to_dict", "io.board_to_dict", "io")
    recorder._patch(app, "json", _TimedJson(recorder))
    # cache
    w(cache, "cache_key", "cache.key", "cache")
    w(app, "cache_key", "cache.key", "cache")
    w(cache.ResultCache, "get", "cache.get", "cache", info=lambda entry: entry is not None)
    w(cache.ResultCache, "put", "cache.put", "cache")
    # server
    w(app.RouterApp, "route", "server.app", "server")
    # region
    w(region, "assign_regions", "region.assign", "region")
    w(region, "apply_assignment", "region.apply", "region")
    w(assign, "decompose", "region.decompose", "region", info=lambda deco: len(deco.regions))
    w(assign, "linprog", "region.lp", "region")
    # core
    w(router.LengthMatchingRouter, "match_group", "core.match_group", "core")
    w(TraceExtender, "extend", "core.extend", "core", info=lambda res: res.stale_drops)
    w(SegmentDP, "run", "core.dp", "core")
    w(ClearanceScene, "update_trace", "core.scene_update", "core")
    w(ClearanceScene, "collect_window", "core.scene_query", "core")
    # dtw: no workload runs MSDTW (README.md, "Known defects"), so it has
    # no named metric; its self time in the diagnostics shows it idle.
    w(router, "convert_pair", "dtw.convert", "dtw")
    w(router, "restore_pair", "dtw.restore", "dtw")
    # drc
    w(stages, "check_board", "drc.check", "drc", info=len)
    # geometry
    recorder.count(Segment, "distance_to_segment", "geometry.seg_distance")
    # repro.obs spans of each session run
    recorder.harvest_obs(session.RoutingSession, "run")
