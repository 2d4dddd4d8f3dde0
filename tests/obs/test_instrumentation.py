"""Pipeline instrumentation — spans and metrics from real runs, and the
invariant that observability never changes what gets computed or keyed."""

import json
import os
import subprocess
import sys

import pytest

from repro import RoutingSession, SessionConfig, obs, scenarios
from repro.cache import ResultCache, cache_key
from repro.drc import check_board
from repro.geometry import Point, Polyline
from repro.io import board_to_dict, run_result_to_dict
from repro.model import Board, DesignRules, Trace, via


def _board(seed=0):
    return scenarios.generate("serpentine_bus", seed=seed)


@pytest.mark.smoke
class TestSessionSpans:
    def test_stage_spans_collected(self):
        with obs.trace("test run") as trace:
            result = RoutingSession(_board(), "fast").run()
        assert result.ok()
        doc = trace.to_dict()
        names = [s["name"] for s in doc["spans"]]
        assert "session.run" in names
        stage_names = {n for n in names if n.startswith("stage.")}
        assert stage_names == {f"stage.{r.name}" for r in result.stages}
        run_span = next(s for s in doc["spans"] if s["name"] == "session.run")
        assert run_span["attrs"]["status"] == "ok"
        assert run_span["attrs"]["board"] == result.board

    def test_stage_span_status_attr(self):
        with obs.trace("test run") as trace:
            result = RoutingSession(_board(), "fast").run()
        by_name = {s["name"]: s for s in trace.to_dict()["spans"]}
        for record in result.stages:
            assert by_name[f"stage.{record.name}"]["attrs"]["status"] == record.status

    def test_extension_iteration_spans(self):
        with obs.trace("test run") as trace:
            RoutingSession(_board(), "fast").run()
        iters = [
            s for s in trace.to_dict()["spans"]
            if s["name"] == "extension.iteration"
        ]
        assert iters
        for span in iters:
            attrs = span["attrs"]
            assert attrs["iteration"] >= 1
            assert attrs["need"] > 0
            assert "dtw_calls" in attrs and "applied" in attrs

    def test_extension_iteration_shrink_counts(self):
        # Every iteration that built a DP says how many exact shrinks it
        # ran; one the feasibility prune skipped ran none.
        with obs.trace("test run") as trace:
            RoutingSession(_board(), "fast").run()
        dp_spans = [
            s["attrs"] for s in trace.to_dict()["spans"]
            if s["name"] == "extension.iteration" and "pruned" in s["attrs"]
        ]
        assert dp_spans
        for attrs in dp_spans:
            assert isinstance(attrs["shrinks"], int)
            # Heights the box test left to the scalar fixpoint are a
            # part of the heights the DP consumed.
            assert isinstance(attrs["scalar_shrinks"], int)
            assert 0 <= attrs["scalar_shrinks"] <= attrs["shrinks"]
            # The DP's setup is timed apart from the window query and
            # from the DP itself, pruned or not.
            assert attrs["env_query_s"] > 0 and attrs["dp_setup_s"] > 0
            if attrs["pruned"]:
                assert attrs["shrinks"] == 0
                assert attrs["dp_s"] == 0.0
            else:
                assert attrs["dp_s"] > 0
        assert any(attrs["shrinks"] > 0 for attrs in dp_spans)

    def test_stage_metrics_recorded(self):
        before = {
            stage: obs.REGISTRY.value("repro_stage_seconds", stage=stage)
            for stage in ("match", "drc")
        }
        result = RoutingSession(_board(), "fast").run()
        assert result.ok()
        for stage in ("match", "drc"):
            after = obs.REGISTRY.value("repro_stage_seconds", stage=stage)
            assert after == before[stage] + 1

    def test_extension_counter_advances(self):
        before = obs.REGISTRY.value("repro_extension_iterations_total")
        RoutingSession(_board(), "fast").run()
        assert obs.REGISTRY.value("repro_extension_iterations_total") > before


SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

# Two traced coupled region-LP runs in one fresh interpreter; prints,
# per run, the region.lp total and the region.scipy_import total under it.
_FIRST_LP_SCRIPT = """
import json
from repro import RoutingSession, obs, scenarios

out = []
for _ in range(2):
    board = scenarios.generate("serpentine_bus", seed=0)
    board.routable_areas.clear()
    with obs.trace("lp") as trace:
        result = RoutingSession(board, "default").run()
    assert result.stage("region").status == "ok"
    spans = trace.to_dict()["spans"]
    lp = [s for s in spans if s["name"] == "region.lp"]
    lp_ids = {s["id"] for s in lp}
    out.append({
        "lp": sum(s["duration_s"] for s in lp),
        "import_in_lp": sum(
            s["duration_s"] for s in spans
            if s["name"] == "region.scipy_import" and s["parent"] in lp_ids
        ),
    })
print(json.dumps(out))
"""


class TestScipyImportSpan:
    @staticmethod
    def _lp_spans(family):
        board = scenarios.generate(family, seed=0)
        board.routable_areas.clear()
        with obs.trace("lp") as trace:
            result = RoutingSession(board, "default").run()
        assert result.stage("region").status == "ok"
        spans = trace.to_dict()["spans"]
        return spans, {s["id"]: s for s in spans}

    def test_import_spans_sit_under_the_region_stage_and_lp(self):
        # serpentine_bus traces share cells: the LP goes to HiGHS.
        spans, by_id = self._lp_spans("serpentine_bus")
        (lp,) = [s for s in spans if s["name"] == "region.lp"]
        assert by_id[lp["parent"]]["name"] == "stage.region"
        parents = [
            by_id[s["parent"]]["name"]
            for s in spans
            if s["name"] == "region.scipy_import"
        ]
        # scipy.sparse for the constraint matrix, scipy.optimize in the
        # linprog shim, both booked to the solve.
        assert parents == ["region.lp", "region.lp"]

    @pytest.mark.parametrize(
        "family, solver",
        [("mixed_groups", "closed_form"), ("serpentine_bus", "highs")],
    )
    def test_lp_span_names_its_solver(self, family, solver):
        spans, _ = self._lp_spans(family)
        (lp,) = [s for s in spans if s["name"] == "region.lp"]
        assert lp["attrs"]["solver"] == solver
        assert lp["attrs"]["variables"] > 0 and lp["attrs"]["rows"] > 0
        imports = [s for s in spans if s["name"] == "region.scipy_import"]
        assert bool(imports) == (solver == "highs")

    def test_first_solve_books_the_import_not_highs(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _FIRST_LP_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        first, second = json.loads(proc.stdout)
        # The first solve of a process loads scipy.optimize (~0.3 s):
        # most of its region.lp is import, not solver time.
        assert first["import_in_lp"] > 0.5 * first["lp"]
        # Later solves find the module in sys.modules.
        assert second["import_in_lp"] < first["import_in_lp"] / 20


class TestLayerSpans:
    """DRC sub-passes and the region stage's area write-back have spans."""

    def _spans(self, clear_areas):
        board = scenarios.generate("mixed_groups", seed=0)
        if clear_areas:
            board.routable_areas.clear()
        with obs.trace("layers") as trace:
            result = RoutingSession(board, "default").run()
        assert result.ok()
        spans = trace.to_dict()["spans"]
        return spans, {s["id"]: s for s in spans}

    def test_one_span_per_drc_pass(self):
        spans, by_id = self._spans(clear_areas=False)
        for name in ("drc.containment", "drc.clearance"):
            passes = [s for s in spans if s["name"] == name]
            # One per check_board call, not one per trace.
            assert len(passes) == 1
            assert by_id[passes[0]["parent"]]["name"] == "stage.drc"

    def test_clearance_candidates_are_the_sweeps_pairs(self):
        # The a/b segment pair (3 apart, d_gap + w = 5) and the via box
        # under a (1 below it, d_obs + w/2 = 2.5) are candidates; b is 4
        # above the via box and "far" is out of everyone's reach.
        board = Board.with_rect_outline(0, 0, 100, 100, DesignRules(dgap=4.0, dobs=2.0))
        for name, y in (("a", 10.0), ("b", 13.0), ("far", 80.0)):
            board.add_trace(Trace(name, Polyline([Point(5, y), Point(95, y)])))
        board.add_obstacle(via(Point(50, 8), 1.0))
        with obs.trace("drc") as trace:
            check_board(board)
        (clearance,) = [
            s for s in trace.to_dict()["spans"] if s["name"] == "drc.clearance"
        ]
        assert clearance["attrs"]["candidates"] == 2

    def test_region_apply_span_under_the_region_stage(self):
        spans, by_id = self._spans(clear_areas=True)
        applied = [s for s in spans if s["name"] == "region.apply"]
        assert len(applied) == 1
        assert by_id[applied[0]["parent"]]["name"] == "stage.region"
        assert applied[0]["attrs"]["traces"] > 0

    def test_no_region_apply_span_when_areas_are_given(self):
        spans, _ = self._spans(clear_areas=False)
        assert not [s for s in spans if s["name"] == "region.apply"]

    def test_scene_rebuilds_have_spans_under_the_match_stage(self):
        spans, by_id = self._spans(clear_areas=False)
        rebuilds = [s for s in spans if s["name"] == "scene.rebuild"]
        assert rebuilds
        board = scenarios.generate("mixed_groups", seed=0)
        routes = board.traces + [t for p in board.pairs for t in (p.trace_p, p.trace_n)]
        total = sum(len(t.segments()) for t in routes)
        for span in rebuilds:
            assert 0 < span["attrs"]["segments"]
            ancestor = by_id[span["parent"]]
            while ancestor["parent"] is not None:
                ancestor = by_id[ancestor["parent"]]
                if ancestor["name"] == "stage.match":
                    break
            assert ancestor["name"] == "stage.match"
        # The first rebuild indexes every registered trace of the
        # unrouted board: its traces, then each pair's two sub-traces.
        assert rebuilds[0]["attrs"]["segments"] == total

    def test_cache_publish_encode_has_a_span(self, tmp_path):
        board = _board()
        result = RoutingSession(board, "fast").run()
        cache = ResultCache(str(tmp_path))
        with obs.trace("publish") as trace:
            result_dict, routed = cache.publish("0" * 64, result, board)
        spans = trace.to_dict()["spans"]
        names = [s["name"] for s in spans]
        assert names.count("cache.encode") == 1
        encode = next(s for s in spans if s["name"] == "cache.encode")
        assert encode["attrs"]["status"] == result.status
        # The encode is the publish's own step, not part of the store.
        assert "cache.put" in names
        put = next(s for s in spans if s["name"] == "cache.put")
        assert encode["parent"] == put["parent"]
        assert result_dict == run_result_to_dict(result)
        assert routed == board_to_dict(board)


@pytest.mark.smoke
class TestPairSpans:
    """MSDTW conversion, each pair restoration and each chevron finish
    have spans, and the module-level calls stay patchable."""

    def _spans(self):
        with obs.trace("pairs") as trace:
            result = RoutingSession(
                scenarios.generate("diffpair_cluster", seed=0), "fast"
            ).run()
        assert result.ok()
        spans = trace.to_dict()["spans"]
        return spans, {s["id"]: s for s in spans}

    def test_convert_and_restore_spans_per_pair(self):
        spans, by_id = self._spans()
        pairs = [s for s in spans if s["name"] == "router.match_pair"]
        assert pairs
        topup_rounds = SessionConfig.preset("fast").pair_topup_rounds
        for pair in pairs:
            member = pair["attrs"]["member"]
            children = [s for s in spans if s["parent"] == pair["id"]]
            converts = [s for s in children if s["name"] == "dtw.convert_pair"]
            assert [s["attrs"]["member"] for s in converts] == [member]
            rounds = [
                s["attrs"]["round"]
                for s in children
                if s["name"] == "dtw.restore_pair"
            ]
            # The dry restoration, the first one, then one per top-up.
            assert rounds[:2] == ["dry", 0]
            assert rounds[2:] == list(range(1, len(rounds) - 1))
            assert len(rounds) - 2 <= topup_rounds

    def test_one_chevron_finish_span_per_extension(self):
        spans, by_id = self._spans()
        finishes = [s for s in spans if s["name"] == "extension.finish_chevron"]
        for span in finishes:
            assert by_id[span["parent"]]["name"] in (
                "router.match_pair",
                "router.match_trace",
            )
            assert "residual" in span["attrs"]
        assert any(span["attrs"].get("applied") for span in finishes)
        # Every pair restoration but the dry one follows one extension
        # of the median.
        restores = [s for s in spans if s["name"] == "dtw.restore_pair"]
        median_finishes = [
            s for s in finishes if by_id[s["parent"]]["name"] == "router.match_pair"
        ]
        assert len(median_finishes) == sum(
            1 for s in restores if s["attrs"]["round"] != "dry"
        )

    def test_pair_calls_go_through_the_router_module(self, monkeypatch):
        import repro.core.router as router

        calls = {"convert_pair": 0, "restore_pair": 0}
        for name in calls:
            original = getattr(router, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(router, name, counted)
        spans, _ = self._spans()
        assert calls["convert_pair"] == sum(
            1 for s in spans if s["name"] == "dtw.convert_pair"
        )
        assert calls["restore_pair"] == sum(
            1 for s in spans if s["name"] == "dtw.restore_pair"
        )


class TestObservabilityIsInert:
    """Tracing must not leak into results, fingerprints, or cache keys."""

    def test_fingerprint_identical_tracing_on_vs_off(self):
        off = SessionConfig.preset("fast").fingerprint()
        with obs.trace("fp"):
            on = SessionConfig.preset("fast").fingerprint()
        assert on == off

    def test_cache_key_identical_tracing_on_vs_off(self):
        board_dict = board_to_dict(_board())
        fp = SessionConfig.preset("fast").fingerprint()
        off = cache_key(board_dict, fp)
        with obs.trace("key"):
            on = cache_key(board_to_dict(_board()), fp)
        assert on == off

    def test_result_dict_identical_tracing_on_vs_off(self):
        def strip_runtimes(node):
            # Runtimes (at every nesting level: result, stage, group,
            # member) are the only legitimate run-to-run difference.
            if isinstance(node, dict):
                return {
                    k: strip_runtimes(v)
                    for k, v in node.items()
                    if k != "runtime"
                }
            if isinstance(node, list):
                return [strip_runtimes(v) for v in node]
            return node

        def normalized():
            result = RoutingSession(_board(), "fast").run()
            return strip_runtimes(run_result_to_dict(result))

        off = normalized()
        with obs.trace("run"):
            on = normalized()
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)

    def test_trace_ref_absent_unless_set(self):
        result = RoutingSession(_board(), "fast").run()
        assert "trace_ref" not in run_result_to_dict(result)
        result.trace_ref = "somewhere/trace.json"
        assert run_result_to_dict(result)["trace_ref"] == "somewhere/trace.json"


class TestExecutorSpans:
    def test_parallel_batch_grafts_worker_traces(self):
        boards = [_board(seed=s) for s in (0, 1)]
        with obs.trace("batch") as trace:
            results = RoutingSession.run_many(boards, config="fast", workers=2)
        assert all(r.status == "ok" for r in results)
        doc = trace.to_dict()
        by_name = {}
        for span in doc["spans"]:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["executor.board"]) == 2
        assert len(by_name["executor.submit"]) == 2
        # One grafted worker root per board, each parented on its
        # executor.board span and carrying the worker's session spans.
        grafted = [
            s for s in doc["spans"] if (s.get("attrs") or {}).get("grafted")
        ]
        assert len(grafted) == 2
        board_ids = {s["id"] for s in by_name["executor.board"]}
        assert all(g["parent"] in board_ids for g in grafted)
        assert len(by_name["session.run"]) == 2

    def test_serial_batch_spans(self):
        boards = [_board(seed=s) for s in (0, 1)]
        with obs.trace("batch") as trace:
            results = RoutingSession.run_many(boards, config="fast")
        assert all(r.status == "ok" for r in results)
        names = [s["name"] for s in trace.to_dict()["spans"]]
        assert names.count("executor.board") == 2
        assert names.count("session.run") == 2

    def test_untraced_batch_ships_no_traces(self):
        import os

        from repro.obs import ENV_VAR

        assert os.environ.get(ENV_VAR) is None
        boards = [_board(seed=s) for s in (0, 1)]
        results = RoutingSession.run_many(boards, config="fast", workers=2)
        assert all(r.status == "ok" for r in results)
        assert os.environ.get(ENV_VAR) is None
