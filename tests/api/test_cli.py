"""Tests for the ``python -m repro`` CLI, including the route golden file."""

import json
import os
import subprocess
import sys

import pytest

from repro import Board, DesignRules, MatchGroup, Point, Polyline, Trace, save_board
from repro.cli import main

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "route_result.golden.json"
)


def golden_board() -> Board:
    """The deterministic two-trace bus the golden file was produced from."""
    rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
    board = Board.with_rect_outline(0.0, 0.0, 100.0, 60.0, rules)
    board.name = "golden"
    members = []
    for k, y in enumerate((15.0, 40.0)):
        members.append(
            board.add_trace(
                Trace(f"sig{k}", Polyline([Point(5.0, y), Point(95.0, y)]), width=1.0)
            )
        )
    board.add_group(MatchGroup("bus", members=members, target_length=120.0))
    return board


def normalize(obj):
    """Strip runtimes (and the version stamp, which changes per release)
    and round floats so the comparison is deterministic."""
    if isinstance(obj, dict):
        return {
            k: normalize(v)
            for k, v in obj.items()
            if k not in ("runtime", "aidt_runtime", "ours_runtime", "repro_version")
        }
    if isinstance(obj, list):
        return [normalize(v) for v in obj]
    if isinstance(obj, float):
        return round(obj, 6)
    return obj


@pytest.fixture
def board_file(tmp_path):
    path = str(tmp_path / "board.json")
    save_board(golden_board(), path)
    return path


@pytest.mark.smoke
class TestRoute:
    def test_route_writes_golden_result(self, board_file, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        # The "fast" preset skips the region LP, keeping the artifact
        # bit-stable across scipy versions.
        code = main(
            ["route", board_file, "--preset", "fast", "--out", out, "--quiet"]
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as fh:
            produced = normalize(json.load(fh))
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            golden = normalize(json.load(fh))
        assert produced == golden

    def test_route_summary_output(self, board_file, tmp_path, capsys):
        code = main(["route", board_file, "--preset", "fast"])
        assert code == 0
        out = capsys.readouterr().out
        assert "board=golden" in out and "OK" in out
        assert "[match]" in out  # progress line

    def test_route_json_output(self, board_file, capsys):
        code = main(["route", board_file, "--preset", "fast", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # The route_response envelope: same schema the server answers
        # with; a local run consults no cache but still names the key.
        assert payload["kind"] == "route_response"
        assert payload["cache"] is None
        assert len(payload["key"]) == 64
        assert payload["status"] == "ok"
        result = payload["result"]
        assert result["board"] == "golden"
        assert [s["name"] for s in result["stages"]] == ["region", "match", "drc"]

    def test_route_svg(self, board_file, tmp_path, capsys):
        svg = str(tmp_path / "board.svg")
        code = main(
            ["route", board_file, "--preset", "fast", "--svg", svg, "--quiet"]
        )
        assert code == 0
        assert os.path.getsize(svg) > 0

    def test_route_flags_reach_config(self, board_file, capsys):
        code = main(["route", board_file, "--no-region", "--no-drc", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = {
            s["name"]: s["status"] for s in payload["result"]["stages"]
        }
        assert statuses["region"] == "skipped"
        assert statuses["drc"] == "skipped"


@pytest.mark.smoke
class TestCheckRender:
    def test_check_clean_board(self, board_file, capsys):
        assert main(["check", board_file]) == 0
        assert "DRC clean" in capsys.readouterr().out

    def test_check_json(self, board_file, capsys):
        assert main(["check", board_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The check_response envelope, byte-compatible with POST /check.
        assert payload == {
            "kind": "check_response",
            "clean": True,
            "violations": 0,
            "report": {"violations": []},
        }

    def test_render(self, board_file, tmp_path, capsys):
        out = str(tmp_path / "b.svg")
        assert main(["render", board_file, "-o", out]) == 0
        assert os.path.getsize(out) > 0


class TestBench:
    def test_legacy_alias_rewrites_to_bench(self, capsys):
        code = main(["table2", "--dgaps", "3.5"])
        assert code == 0
        assert "Table II" in capsys.readouterr().out

    @pytest.mark.smoke
    def test_bench_table1_fast_path_json(self, capsys):
        # The CI smoke: one Table I case end-to-end, machine-readable.
        code = main(["bench", "table1", "--cases", "5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["table1"]) == 1
        row = payload["table1"][0]
        assert row["case"] == 5
        assert row["ours_max"] <= row["aidt_max"]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


@pytest.mark.smoke
class TestGen:
    def test_gen_is_byte_deterministic(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(["gen", "serpentine_bus", "--seed", "3", "--out", a]) == 0
        assert main(["gen", "serpentine_bus", "--seed", "3", "--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_gen_stdout_and_params(self, capsys):
        code = main(["gen", "obstacle_maze", "--seed", "1", "--param", "walls=2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "obstacle_maze-s1"
        assert payload["meta"]["scenario"]["params"]["walls"] == 2

    def test_gen_svg(self, tmp_path, capsys):
        svg = str(tmp_path / "b.svg")
        out = str(tmp_path / "b.json")
        assert main(["gen", "bga_escape", "--out", out, "--svg", svg]) == 0
        assert os.path.getsize(svg) > 0

    def test_gen_svg_without_out_keeps_stdout_parseable(self, tmp_path, capsys):
        svg = str(tmp_path / "b.svg")
        assert main(["gen", "bga_escape", "--svg", svg]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # no trailing notice on stdout
        assert payload["name"] == "bga_escape-s0"
        assert "wrote" in captured.err

    def test_gen_list(self, capsys):
        assert main(["gen", "--list"]) == 0
        out = capsys.readouterr().out
        assert "serpentine_bus" in out and "tiled" in out

    def test_gen_list_one_scenario(self, capsys):
        assert main(["gen", "obstacle_maze", "--list"]) == 0
        out = capsys.readouterr().out
        assert "obstacle_maze" in out and "serpentine_bus" not in out

    def test_gen_list_unknown_scenario_is_usage_error(self, capsys):
        assert main(["gen", "nope", "--list"]) == 2

    def test_gen_list_rejects_generation_flags(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        code = main(["gen", "serpentine_bus", "--seed", "3", "--out", out, "--list"])
        assert code == 2
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert "--seed" in err and "--out" in err

    def test_gen_without_scenario_is_usage_error(self, capsys):
        assert main(["gen"]) == 2

    def test_gen_unknown_scenario_is_usage_error(self, capsys):
        assert main(["gen", "nope"]) == 2
        assert "registered" in capsys.readouterr().err

    def test_gen_badly_typed_param_is_usage_error(self, capsys):
        assert main(["gen", "serpentine_bus", "--param", "traces=abc"]) == 2
        assert "invalid parameter" in capsys.readouterr().err

    def test_gen_bad_nested_param_is_usage_error(self, capsys):
        code = main(["gen", "tiled", "--param", 'base_params={"typo": 1}'])
        assert code == 2
        assert "invalid parameter" in capsys.readouterr().err

    def test_gen_zero_members_rejected(self, capsys):
        for scenario in ("serpentine_bus", "bga_escape"):
            assert main(["gen", scenario, "--param", "traces=0"]) == 2
            assert "count must be >= 1" in capsys.readouterr().err


@pytest.mark.smoke
class TestCorpus:
    def test_corpus_run_quick_writes_report(self, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        code = main(["corpus", "run", "--quick", "--outdir", outdir])
        assert code == 0
        with open(os.path.join(outdir, "corpus_report.json")) as fh:
            payload = json.load(fh)
        assert payload["kind"] == "corpus_report"
        assert payload["summary"]["gate_passed"] is True
        assert "gate 90%: passed" in capsys.readouterr().out

    def test_corpus_unreachable_gate_fails(self, tmp_path, capsys):
        code = main(
            [
                "corpus", "run", "--quick", "--outdir", str(tmp_path / "o"),
                "--scenario", "serpentine_bus", "--gate", "1.1", "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["gate_passed"] is False
        # --json emits the same envelope save_corpus_report writes.
        assert payload["kind"] == "corpus_report"

    def test_corpus_resume_round_trip(self, tmp_path, capsys):
        outdir = str(tmp_path / "out")
        args = ["corpus", "run", "--quick", "--scenario", "serpentine_bus"]
        assert main(args + ["--outdir", outdir]) == 0
        capsys.readouterr()
        # --resume names the outdir and skips every completed case.
        code = main(args + ["--resume", outdir, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["resumed"] == payload["summary"]["boards"]

    def test_corpus_resume_contradicting_outdir_rejected(self, tmp_path, capsys):
        code = main(
            [
                "corpus", "run", "--quick",
                "--resume", str(tmp_path / "a"),
                "--outdir", str(tmp_path / "b"),
            ]
        )
        assert code == 2
        assert "--resume" in capsys.readouterr().err


def dirty_board() -> Board:
    """Two traces well inside each other's d_gap — DRC can never pass."""
    rules = DesignRules(dgap=8.0, dobs=2.0, dprotect=2.0)
    board = Board.with_rect_outline(0.0, 0.0, 100.0, 40.0, rules)
    board.name = "dirty"
    board.add_trace(
        Trace("a", Polyline([Point(5.0, 10.0), Point(95.0, 10.0)]), width=1.0)
    )
    board.add_trace(
        Trace("b", Polyline([Point(5.0, 13.0), Point(95.0, 13.0)]), width=1.0)
    )
    return board


def run_cli(args, cwd):
    """The CLI exactly as CI invokes it: a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestExitCodes:
    """The documented contract: non-zero whenever violations remain.

    These run the real ``python -m repro`` subprocess so the full wiring
    (``__main__`` -> ``SystemExit`` -> shell status) is what is tested,
    not just the return value of :func:`repro.cli.main`.
    """

    @pytest.fixture
    def dirty_file(self, tmp_path):
        path = str(tmp_path / "dirty.json")
        save_board(dirty_board(), path)
        return path

    @pytest.fixture
    def clean_file(self, tmp_path):
        path = str(tmp_path / "clean.json")
        save_board(golden_board(), path)
        return path

    def test_check_clean_exits_zero(self, clean_file, tmp_path):
        assert run_cli(["check", clean_file], tmp_path).returncode == 0

    def test_check_violations_exit_nonzero(self, dirty_file, tmp_path):
        proc = run_cli(["check", dirty_file], tmp_path)
        assert proc.returncode == 1
        assert "trace_clearance" in proc.stdout

    def test_route_with_remaining_violations_exits_nonzero(
        self, dirty_file, tmp_path
    ):
        # No matching group: the match stage skips, DRC still gates.
        proc = run_cli(["route", dirty_file, "--quiet"], tmp_path)
        assert proc.returncode == 1
        assert "FAILED" in proc.stdout

    def test_route_clean_exits_zero(self, clean_file, tmp_path):
        proc = run_cli(
            ["route", clean_file, "--preset", "fast", "--quiet"], tmp_path
        )
        assert proc.returncode == 0

    def test_non_finite_board_is_usage_error(self, tmp_path):
        # A NaN rule used to load and then crash the match stage ("cannot
        # convert float NaN to integer"); it must be refused on load.
        from repro.io import board_to_dict

        doc = board_to_dict(golden_board())
        doc["rules"]["default"]["dgap"] = float("nan")
        with open(str(tmp_path / "nan.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        proc = run_cli(["route", "nan.json", "--preset", "fast", "--quiet"], tmp_path)
        assert proc.returncode == 2
        assert "d_gap must be positive and finite" in proc.stderr

    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda doc: doc.__setitem__("meta", 5), "meta"),
            (lambda doc: doc["groups"][0].__setitem__("members", []), "'bus'"),
            (lambda doc: doc["groups"][0].__setitem__("target_length", 50.0), "'bus'"),
            (
                lambda doc: doc["traces"][0].__setitem__("path", [[1, 1], [1, 1]]),
                "'sig0'",
            ),
        ],
        ids=["meta_not_object", "empty_group", "target_below_longest", "zero_length_path"],
    )
    def test_document_the_router_would_crash_on_is_usage_error(
        self, tmp_path, mutate, named
    ):
        # Each used to load and then crash the run (exit 1 or 2 with a
        # traceback); it must be refused on load, naming the culprit.
        from repro.io import board_to_dict

        doc = board_to_dict(golden_board())
        mutate(doc)
        with open(str(tmp_path / "bad.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        proc = run_cli(["route", "bad.json", "--preset", "fast", "--quiet"], tmp_path)
        assert proc.returncode == 2
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_board_file_is_usage_error(self, tmp_path):
        assert run_cli(["check", "no_such.json"], tmp_path).returncode == 2


class TestServeAndRemote:
    """``serve`` + ``route --remote`` end to end, as real subprocesses."""

    @pytest.fixture
    def daemon(self, tmp_path):
        """A live ``python -m repro serve --port 0`` daemon; yields its
        base URL (parsed from the announcement line on stdout)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",  # ephemeral: the daemon announces the real one
                "--cache-dir", str(tmp_path / "cache"),
                "--quiet",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "repro-serve listening on " in line, line
            yield line.split("listening on ", 1)[1].split()[0]
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_remote_route_misses_then_hits(self, daemon, tmp_path):
        board = str(tmp_path / "board.json")
        save_board(golden_board(), board)
        args = ["route", board, "--preset", "fast", "--remote", daemon, "--json"]

        first = run_cli(args, tmp_path)
        assert first.returncode == 0, first.stderr
        cold = json.loads(first.stdout)
        assert cold["kind"] == "route_response" and cold["cache"] == "miss"

        second = run_cli(args, tmp_path)
        warm = json.loads(second.stdout)
        assert warm["cache"] == "hit"
        assert warm["key"] == cold["key"]
        assert warm["result"] == cold["result"]

    def test_remote_matches_local_envelope_and_key(self, daemon, tmp_path):
        board = str(tmp_path / "board.json")
        save_board(golden_board(), board)
        local = run_cli(
            ["route", board, "--preset", "fast", "--json"], tmp_path
        )
        remote = run_cli(
            ["route", board, "--preset", "fast", "--remote", daemon, "--json"],
            tmp_path,
        )
        local_env = json.loads(local.stdout)
        remote_env = json.loads(remote.stdout)
        # Local and remote name the same content address for the same
        # request, and agree on the verdict; only cache state differs.
        assert remote_env["key"] == local_env["key"]
        assert remote_env["status"] == local_env["status"] == "ok"

    def test_remote_failed_verdict_exits_one(self, daemon, tmp_path):
        board = str(tmp_path / "dirty.json")
        save_board(dirty_board(), board)
        proc = run_cli(["route", board, "--remote", daemon], tmp_path)
        assert proc.returncode == 1
        assert f"served by {daemon}" in proc.stdout
