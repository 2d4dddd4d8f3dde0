"""Smoke tests for the perf-regression bench (``repro bench --perf``)."""

import ast
import inspect
import json
import math
import os
import sys

import pytest

from oracles.drc import check_board_exhaustive
from oracles.dtw import dtw_match_reference
from oracles.region import decompose_reference
import repro
from repro.bench import calibration
from repro.bench.perf import (
    _DTW_RULE,
    _matching_digest,
    _phase_region,
    _phase_scaling,
    check_perf_guard,
    dtw_workload,
    make_drc_board,
    run_perf,
    run_perf_guard,
    run_profile,
)
from repro.drc import check_board
from repro.io import drc_report_to_dict


def _committed():
    with open("BENCH_perf.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _nested_keys(row):
    """The keys of each dict-valued field of a perf row."""
    return frozenset(
        (name, frozenset(value)) for name, value in row.items() if isinstance(value, dict)
    )


@pytest.mark.smoke
class TestRunPerfQuick:
    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("perf") / "BENCH_perf.json"
        payload = run_perf(quick=True, out=str(out), verbose=False)
        with open(out, "r", encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == payload
        return payload

    def test_structure(self, payload):
        assert payload["kind"] == "BENCH_perf"
        assert payload["quick"] is True
        assert set(payload["phases"]) == {
            "dtw",
            "drc",
            "extension",
            "extension_breakdown",
            "region",
            "scaling",
            "server_faults",
            "startup",
        }
        assert payload["machine"]["cpu_count"] >= 1
        assert payload["machine"]["calibration_s"] > 0
        assert payload["total_s"] > 0

    def test_dtw_phase(self, payload):
        rows = payload["phases"]["dtw"]
        assert rows and all(r["match_s"] > 0 for r in rows)
        # The timed matching is the dense oracle's, bit for bit.
        for row in rows:
            p, q = dtw_workload(row["nodes"], _DTW_RULE, seed=row["nodes"])
            assert row["digest"] == _matching_digest(dtw_match_reference(p, q))

    def test_drc_phase(self, payload):
        rows = payload["phases"]["drc"]
        assert rows and all(r["check_s"] > 0 for r in rows)
        assert all(r["violations"] == 0 for r in rows)

    def test_committed_baseline_has_run_perf_shape(self, payload):
        # The committed baseline must be something run_perf writes today:
        # same row keys on every phase both payloads carry, and the
        # machine-speed yardstick the guard divides by.
        committed = _committed()
        assert committed["machine"]["calibration_s"] > 0
        shared = set(committed["phases"]) & set(payload["phases"])
        assert {"dtw", "drc", "extension"} <= shared
        for phase in sorted(shared):
            fresh_keys = {frozenset(r) for r in payload["phases"][phase]}
            committed_keys = {frozenset(r) for r in committed["phases"][phase]}
            assert committed_keys == fresh_keys, phase
            # Nested records too, so a field run_perf no longer writes
            # (such as extension_breakdown's retired overhead.baseline_s
            # and overhead.disabled_overhead) cannot linger.
            fresh_nested = {_nested_keys(r) for r in payload["phases"][phase]}
            committed_nested = {_nested_keys(r) for r in committed["phases"][phase]}
            assert committed_nested == fresh_nested, phase

    def test_region_phase(self, payload, monkeypatch):
        rows = payload["phases"]["region"]
        boards = [(r["base"], r["tiles"]) for r in rows]
        assert boards == [("mixed_groups", 6), ("serpentine_bus", 6)]
        # One row per region solver, so both paths keep a guarded digest.
        assert [r["solver"] for r in rows] == ["closed_form", "highs"]
        for row in rows:
            assert row["traces"] > 0
            assert row["cells"] > 0
            assert row["variables"] > 0 and row["rows"] > 0
            assert 0 < row["decompose_s"]
            assert 0 < row["assign_s"]
            assert 0 < row["apply_s"]
        # The assignment is the one the per-cell decomposition loop
        # gives, bit for bit.
        monkeypatch.setattr("repro.region.assign.decompose", decompose_reference)
        reference = _phase_region(boards, repeats=1)
        assert [r["digest"] for r in reference] == [r["digest"] for r in rows]
        assert [r["cells"] for r in reference] == [r["cells"] for r in rows]

    def test_scaling_phase(self, payload):
        rows = payload["phases"]["scaling"]
        assert [r["tiles"] for r in rows] == [6]
        assert all(r["ok"] and r["run_s"] > 0 for r in rows)
        assert rows[0]["members"] == 36
        # The routed board is the same bits on a second run.
        again = _phase_scaling([6], repeats=1)
        assert again[0]["digest"] == rows[0]["digest"]

    def test_extension_phase(self, payload):
        rows = payload["phases"]["extension"]
        assert rows
        assert all(r["stale_drops"] == 0 for r in rows)
        assert all(r["extend_s"] > 0 for r in rows)
        # The routed answer is the committed baseline's, bit for bit.
        assert check_perf_guard(payload, _committed(), max_ratio=math.inf) == []

    def test_extension_breakdown_phase(self, payload):
        rows = payload["phases"]["extension_breakdown"]
        assert len(rows) == 1
        row = rows[0]
        assert row["iterations"] > 0
        assert row["iteration_ms"]["p99"] >= row["iteration_ms"]["p50"] > 0
        # The env-vs-DP-vs-trim/verify split: every stage column is
        # present, non-negative, and the annotated stages fit inside the
        # total iteration time.
        stages = row["stages"]
        assert set(stages) == {
            "env_query_s",
            "dp_setup_s",
            "dp_s",
            "trim_s",
            "verify_s",
            "other_s",
            "pruned_iterations",
        }
        assert all(v >= 0 for v in stages.values())
        assert stages["env_query_s"] > 0 and stages["dp_s"] > 0
        assert stages["dp_setup_s"] > 0
        assert 0 <= stages["pruned_iterations"] <= row["iterations"]
        # Tracing does not change the routed answer.
        extension = {r["dgap"]: r for r in payload["phases"]["extension"]}
        assert row["digest"] == extension[4.0]["digest"]

    def test_server_phase(self, payload):
        rows = {r["body"]: r for r in payload["phases"]["server_faults"]}
        assert set(rows) == {"repeat", "reserialised"}
        # The first request routes the board; the next is the cold
        # artifact served from the cache, byte for byte, whether the
        # key memo knows the body or not, and the cache path must
        # already win clearly at the quick scale.
        assert all(r["cache_hit"] and r["identical"] for r in rows.values())
        assert all(r["all_ok"] for r in rows.values())
        repeat = rows["repeat"]
        assert repeat["cold_status"] == "ok"
        assert all(repeat["miss_ms"] > 3 * r["clean_p50_ms"] for r in rows.values())

    def test_server_faults_phase(self, payload):
        rows = [r for r in payload["phases"]["server_faults"] if "fault_rate" in r]
        assert rows and all(r["all_ok"] for r in rows)
        # Every injected 503 was absorbed by a retry (``all_ok``
        # counts every warm answer), and the retry count covers
        # the fired faults.
        assert all(r["retries"] >= r["faults_fired"] for r in rows)
        assert all(r["p50_ms"] > 0 and r["p99_ms"] >= r["p50_ms"] for r in rows)

    def test_startup_phase(self, payload):
        rows = {r["target"]: r for r in payload["phases"]["startup"]}
        assert set(rows) == {"import", "serve"}
        assert rows["import"]["runs"] >= 1
        assert 0 < rows["import"]["import_s"] < rows["import"]["wall_s"]
        assert rows["serve"]["ready_s"] > 0
        if sys.platform.startswith("linux"):
            assert rows["serve"]["vmhwm_mb"] > 0
        for row in rows.values():
            assert row["modules"] > 0
            assert row["scipy_loaded"] is False

    def test_no_write_when_out_is_none(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_perf(quick=True, out=None, verbose=False)
        assert list(tmp_path.iterdir()) == []


class TestMakeDrcBoard:
    def test_replication_scales_and_stays_clean(self):
        b1 = make_drc_board(1)
        b2 = make_drc_board(2)
        assert len(b2.traces) == 2 * len(b1.traces)
        assert len(b2.obstacles) == 2 * len(b1.obstacles)
        fast = check_board(b2, check_areas=False)
        assert fast.is_clean()
        assert drc_report_to_dict(fast) == drc_report_to_dict(
            check_board_exhaustive(b2, check_areas=False)
        )


class TestCalibration:
    def test_kernel_is_frozen(self):
        # Every committed calibration_s was measured on this answer; a
        # kernel edit must come with a regenerated baseline.
        assert repr(calibration.calibration_kernel(calibration._P, calibration._Q)) == (
            "410.0128610491329"
        )

    def test_imports_nothing_from_repro(self):
        tree = ast.parse(inspect.getsource(calibration))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and not node.module.startswith("repro")
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("repro") for a in node.names)


def _guard_payload(
    extend_s=0.1,
    calibration_s=0.01,
    digest="d1",
    dtw_digest="m1",
    region_digest="r1",
    scaling_s=0.05,
    scaling_digest="s1",
):
    row = {"dgap": 4.0, "extend_s": extend_s}
    if digest is not None:
        row["digest"] = digest
    return {
        "machine": {"calibration_s": calibration_s},
        "phases": {
            "dtw": [{"nodes": 64, "match_s": 0.001, "digest": dtw_digest}],
            "extension": [row],
            "extension_breakdown": [{"dgap": 4.0, "digest": "d1"}],
            "region": [
                {
                    "base": "mixed_groups",
                    "tiles": 6,
                    "assign_s": 0.01,
                    "digest": region_digest,
                }
            ],
            "scaling": [{"tiles": 6, "run_s": scaling_s, "digest": scaling_digest}],
        },
    }


class TestPerfGuard:
    def test_passes_when_not_regressed(self):
        assert check_perf_guard(_guard_payload(0.1), _guard_payload(0.1)) == []
        # Under 2x is still fine.
        assert check_perf_guard(_guard_payload(0.19), _guard_payload(0.1)) == []

    def test_fails_on_regression(self):
        problems = check_perf_guard(_guard_payload(0.25), _guard_payload(0.1))
        assert problems and "dgap=4.0" in problems[0]

    def test_machine_speed_normalization(self):
        # A machine 3x slower on the calibration kernel gets a 3x wider
        # allowance — the same workload ratio passes...
        slow = _guard_payload(extend_s=0.3, calibration_s=0.03)
        assert check_perf_guard(slow, _guard_payload(0.1, calibration_s=0.01)) == []
        # ...while a genuine engine regression still fails on it.
        regressed = _guard_payload(extend_s=0.9, calibration_s=0.03)
        assert check_perf_guard(regressed, _guard_payload(0.1, calibration_s=0.01))

    def test_fails_when_digest_differs_from_baseline(self):
        problems = check_perf_guard(_guard_payload(digest="d2"), _guard_payload())
        assert problems == [
            "extension dgap=4.0: digest d2 differs from baseline d1 "
            "(routed answer changed)"
        ]

    def test_fails_when_dtw_digest_differs_from_baseline(self):
        problems = check_perf_guard(_guard_payload(dtw_digest="m2"), _guard_payload())
        assert problems == [
            "dtw nodes=64: digest m2 differs from baseline m1 "
            "(routed answer changed)"
        ]

    def test_fails_when_region_digest_differs_from_baseline(self):
        current = _guard_payload(region_digest="r2")
        problems = check_perf_guard(current, _guard_payload())
        assert problems == [
            "region base=mixed_groups tiles=6: digest r2 differs from baseline r1 "
            "(routed answer changed)"
        ]

    def test_fails_when_scaling_digest_differs_from_baseline(self):
        current = _guard_payload(scaling_digest="s2")
        problems = check_perf_guard(current, _guard_payload())
        assert problems == [
            "scaling tiles=6: digest s2 differs from baseline s1 "
            "(routed answer changed)"
        ]

    def test_fails_on_slow_scaling_row(self):
        assert check_perf_guard(_guard_payload(scaling_s=0.09), _guard_payload()) == []
        problems = check_perf_guard(_guard_payload(scaling_s=0.11), _guard_payload())
        assert len(problems) == 1 and problems[0].startswith("scaling tiles=6: median")

    def test_fails_when_phase_shares_no_key_with_baseline(self):
        # A quick run whose region rows sit at a scale the baseline does
        # not hold would compare no digest at all; that is a failure,
        # not a pass.
        current = _guard_payload(region_digest="tampered")
        current["phases"]["region"][0]["tiles"] = 1
        problems = check_perf_guard(current, _guard_payload())
        assert problems == [
            "region: shares no base/tiles with the baseline (mixed_groups/6)"
        ]

    def test_fails_when_baseline_row_lacks_digest(self):
        problems = check_perf_guard(_guard_payload(), _guard_payload(digest=None))
        assert problems == ["extension dgap=4.0: baseline row has no digest"]

    def test_unknown_dgaps_are_skipped(self):
        current = _guard_payload()
        current["phases"]["extension"].append({"dgap": 9.9, "extend_s": 9.9})
        assert check_perf_guard(current, _guard_payload()) == []

    def test_missing_phases_reported(self):
        problems = check_perf_guard({"phases": {}}, _guard_payload())
        assert problems == [
            "no calibration_s in both payloads to normalize machine speed",
            "dtw: shares no nodes with the baseline (64)",
            "extension: shares no dgap with the baseline (4.0)",
            "extension_breakdown: shares no dgap with the baseline (4.0)",
            "region: shares no base/tiles with the baseline (mixed_groups/6)",
            "scaling: shares no tiles with the baseline (6)",
        ]

    def test_fails_when_startup_loaded_scipy(self):
        current = _guard_payload()
        current["phases"]["startup"] = [
            {"target": "import", "import_s": 0.3, "scipy_loaded": False},
            {"target": "serve", "ready_s": 0.4, "scipy_loaded": True},
        ]
        problems = check_perf_guard(current, _guard_payload())
        assert problems == [
            "startup serve: scipy loaded in a process that never solves an LP"
        ]
        current["phases"]["startup"][1]["scipy_loaded"] = False
        assert check_perf_guard(current, _guard_payload()) == []

    def test_run_perf_guard_reads_baseline_file(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_perf.json"
        baseline.write_text(json.dumps(_guard_payload(0.1)))
        assert run_perf_guard(str(baseline), _guard_payload(0.1)) is True
        assert "perf-guard OK" in capsys.readouterr().out
        assert run_perf_guard(str(baseline), _guard_payload(0.9)) is False
        assert "perf-guard FAIL" in capsys.readouterr().out

    def test_guard_against_committed_baseline_shape(self):
        # The committed BENCH_perf.json must keep the fields the guard
        # reads — this is the schema contract the CI step depends on.
        committed = _committed()
        assert committed["machine"]["calibration_s"] > 0
        for row in committed["phases"]["dtw"]:
            assert "nodes" in row and len(row["digest"]) == 64
        for row in committed["phases"]["extension"]:
            assert "extend_s" in row and "dgap" in row
            assert len(row["digest"]) == 64
        region = committed["phases"]["region"]
        assert [(row["base"], row["tiles"]) for row in region] == [
            ("mixed_groups", 6),
            ("mixed_groups", 12),
            ("serpentine_bus", 6),
        ]
        assert [row["solver"] for row in region] == ["closed_form", "closed_form", "highs"]
        for row in region:
            assert len(row["digest"]) == 64
        scaling = committed["phases"]["scaling"]
        assert [row["tiles"] for row in scaling] == [6, 12, 24, 48]
        for row in scaling:
            assert row["ok"] is True and row["run_s"] > 0
            assert len(row["digest"]) == 64
        extension = {row["dgap"]: row for row in committed["phases"]["extension"]}
        for row in committed["phases"]["extension_breakdown"]:
            assert row["digest"] == extension[row["dgap"]]["digest"]


class TestRunProfile:
    def test_writes_top25_cumulative_table(self, tmp_path):
        out = tmp_path / "BENCH_profile.txt"
        assert run_profile(str(out), quick=True, verbose=False) == str(out)
        text = out.read_text()
        assert "cumulative" in text
        assert "extension" in text  # the hot path shows up by file name
        assert "top 25" in text
        # Files are named relative to the source tree, not the checkout.
        assert "repro/core/extension.py" in text
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        assert src_root not in text


class TestCliPerf:
    def test_bench_perf_quick_cli(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "perf.json"
        assert main(["bench", "--perf", "--quick", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "drc" in captured and str(out) in captured
        data = json.loads(out.read_text())
        assert data["kind"] == "BENCH_perf"

    def test_bench_without_what_or_perf_errors(self, capsys):
        from repro.cli import main

        assert main(["bench"]) == 2
        assert "unless --perf" in capsys.readouterr().err

    def test_bench_artefact_plus_perf_conflict_errors(self, capsys):
        from repro.cli import main

        assert main(["bench", "table1", "--perf"]) == 2
        assert "separate" in capsys.readouterr().err

    def test_perf_only_flags_without_perf_error(self, capsys):
        from repro.cli import main

        assert main(["bench", "table1", "--quick"]) == 2
        assert "--quick" in capsys.readouterr().err
        assert main(["bench", "table1", "--out", "x.json"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_table_flags_with_perf_error(self, capsys):
        from repro.cli import main

        assert main(["bench", "--perf", "--cases", "1"]) == 2
        assert "--cases" in capsys.readouterr().err
        assert main(["bench", "--perf", "--json"]) == 2
        assert "--json" in capsys.readouterr().err

    def test_profile_and_guard_without_perf_error(self, capsys):
        from repro.cli import main

        assert main(["bench", "table1", "--profile"]) == 2
        assert "--profile" in capsys.readouterr().err
        assert main(["bench", "table1", "--guard", "BENCH_perf.json"]) == 2
        assert "--guard" in capsys.readouterr().err


def test_region_phase_times_no_import():
    # In a fresh interpreter the first HiGHS solve imports scipy; the
    # phase's traced call runs first, so every timed repeat finds it
    # loaded.
    import subprocess

    script = (
        "import json, sys\n"
        "import repro.bench.perf as perf\n"
        "seen = []\n"
        "timed = perf._time_repeats\n"
        "def spy(fn, repeats):\n"
        "    seen.append('scipy.optimize' in sys.modules)\n"
        "    return timed(fn, repeats)\n"
        "perf._time_repeats = spy\n"
        "(row,) = perf._phase_region([('serpentine_bus', 6)], repeats=1)\n"
        "print(json.dumps([row['solver'], seen]))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    solver, seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert solver == "highs"
    assert seen == [True, True, True]
