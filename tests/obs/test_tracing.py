"""repro.obs tracing — spans, collection, serialization, grafting."""

import json
import threading
import time

import pytest

from repro import obs
from repro.io import load_trace, save_trace


@pytest.mark.smoke
class TestDisabledFastPath:
    def test_span_is_noop_without_collector(self):
        assert obs.current_trace() is None
        with obs.span("anything", key="value") as sp:
            assert sp is obs.NOOP_SPAN
            assert not sp.live
            sp.set(more="attrs")  # must not raise
        assert obs.current_trace() is None

    def test_record_returns_none_when_disabled(self):
        assert obs.record("thing", 0.25, a=1) is None

    def test_enabled_flag(self):
        assert not obs.enabled()
        with obs.trace("t"):
            assert obs.enabled()
        assert not obs.enabled()

    def test_noop_span_under_budget(self):
        # Acceptance: a disabled span costs < 5 us.  Measured generously
        # (median of 3 batches) so a CI scheduler blip can't flake it.
        def batch():
            n = 20_000
            t0 = time.perf_counter()
            for _ in range(n):
                with obs.span("noop"):
                    pass
            return (time.perf_counter() - t0) / n * 1e6

        per_call_us = sorted(batch() for _ in range(3))[1]
        assert per_call_us < 5.0


@pytest.mark.smoke
class TestCollection:
    def test_nesting_and_parentage(self):
        with obs.trace("root", run=1) as trace:
            with obs.span("outer") as outer:
                with obs.span("inner", depth=2) as inner:
                    assert obs.current_trace() is trace
                    assert inner.parent_id == outer.span_id
        doc = trace.to_dict()
        names = [s["name"] for s in doc["spans"]]
        assert names == ["root", "outer", "inner"]
        root, outer_rec, inner_rec = doc["spans"]
        assert root["parent"] is None
        assert outer_rec["parent"] == root["id"]
        assert inner_rec["parent"] == outer_rec["id"]
        assert inner_rec["attrs"]["depth"] == 2

    def test_annotate_targets_current_span(self):
        with obs.trace("root") as trace:
            with obs.span("work"):
                obs.annotate(items=7)
        work = trace.to_dict()["spans"][1]
        assert work["attrs"] == {"items": 7}

    def test_record_backdates(self):
        with obs.trace("root") as trace:
            sp = obs.record("measured", 1.5, source="elsewhere")
        assert sp.duration_s == 1.5
        rec = trace.to_dict()["spans"][1]
        assert rec["duration_s"] == 1.5
        assert rec["attrs"]["source"] == "elsewhere"

    def test_durations_measured(self):
        with obs.trace("root") as trace:
            with obs.span("sleepy"):
                time.sleep(0.01)
        rec = trace.to_dict()["spans"][1]
        assert rec["duration_s"] >= 0.009

    def test_exception_still_closes_span(self):
        with pytest.raises(ValueError):
            with obs.trace("root") as trace:
                with obs.span("fails"):
                    raise ValueError("boom")
        assert obs.current_trace() is None
        rec = trace.to_dict()["spans"][1]
        assert rec["duration_s"] >= 0.0

    def test_helper_thread_adoption(self):
        seen = {}

        def helper(parent):
            with obs.use_trace(parent):
                with obs.span("helper.work") as sp:
                    seen["parent"] = sp.parent_id

        with obs.trace("root") as trace:
            with obs.span("dispatch") as dispatch:
                t = threading.Thread(target=helper, args=(trace,))
                t.start()
                t.join()
        names = [s["name"] for s in trace.to_dict()["spans"]]
        assert "helper.work" in names
        # A fresh thread has no local stack: its spans parent onto the
        # trace root, not the dispatching thread's current span.
        assert seen["parent"] == trace.to_dict()["spans"][0]["id"]
        assert seen["parent"] != dispatch.span_id

    def test_use_trace_none_is_noop(self):
        with obs.use_trace(None) as t:
            assert t is None
            assert not obs.enabled()


@pytest.mark.smoke
class TestSerialization:
    def test_round_trip(self, tmp_path):
        with obs.trace("round-trip", flavor="test") as trace:
            with obs.span("child"):
                pass
        path = str(tmp_path / "trace.json")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.to_dict() == trace.to_dict()

    def test_save_rejects_non_trace(self, tmp_path):
        with pytest.raises(ValueError, match="not a trace document"):
            save_trace({"kind": "board"}, str(tmp_path / "x.json"))

    def test_from_dict_rejects_bad_version(self):
        with obs.trace("v") as trace:
            pass
        doc = trace.to_dict()
        doc["version"] = 999
        with pytest.raises(ValueError, match="version"):
            obs.Trace.from_dict(doc)

    def test_document_shape(self, tmp_path):
        with obs.trace("shape") as trace:
            pass
        path = str(tmp_path / "t.json")
        save_trace(trace, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["kind"] == "trace"
        assert doc["version"] == obs.TRACE_FORMAT_VERSION
        assert doc["name"] == "shape"
        assert doc["trace_id"] == trace.trace_id
        assert isinstance(doc["spans"], list)


@pytest.mark.smoke
class TestGraft:
    def test_graft_remaps_under_parent(self):
        with obs.trace("worker w", pid=1234) as worker:
            with obs.span("session.run"):
                pass
        shipped = worker.to_dict()

        with obs.trace("parent") as parent:
            with obs.span("executor.board") as board_span:
                anchor = board_span.span_id
            parent.graft(shipped, parent_id=anchor)

        doc = parent.to_dict()
        by_name = {s["name"]: s for s in doc["spans"]}
        grafted_root = by_name["worker w"]
        assert grafted_root["parent"] == anchor
        assert grafted_root["attrs"]["grafted"] is True
        assert by_name["session.run"]["parent"] == grafted_root["id"]
        # Remapped ids collide with nothing already in the parent.
        ids = [s["id"] for s in doc["spans"]]
        assert len(ids) == len(set(ids))


@pytest.mark.smoke
class TestAnalysis:
    def _sample(self):
        with obs.trace("sample") as trace:
            with obs.span("a"):
                with obs.span("b"):
                    pass
            with obs.span("a"):
                pass
        return trace.to_dict()

    def test_aggregate_spans(self):
        rows = obs.aggregate_spans(self._sample())
        by_name = {r["name"]: r for r in rows}
        assert by_name["a"]["count"] == 2
        assert by_name["b"]["count"] == 1
        assert all(r["total_s"] >= 0 for r in rows)
        # Sorted by total time, descending.
        totals = [r["total_s"] for r in rows]
        assert totals == sorted(totals, reverse=True)

    def test_iter_tree_depths(self):
        walked = [(d, s["name"]) for d, s in obs.iter_tree(self._sample())]
        assert walked == [(0, "sample"), (1, "a"), (2, "b"), (1, "a")]
