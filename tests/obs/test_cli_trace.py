"""The trace-facing CLI surface: ``route --trace``, ``trace summarize``."""

import json

import pytest

from repro import Board, DesignRules, MatchGroup, Point, Polyline, Trace, save_board
from repro.cli import main
from repro.io import load_trace


def small_board() -> Board:
    rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
    board = Board.with_rect_outline(0, 0, 100, 45, rules)
    board.name = "cli-trace"
    member = board.add_trace(
        Trace("s0", Polyline([Point(5, 15), Point(95, 15)]), width=1.0)
    )
    board.add_group(MatchGroup("bus", members=[member], target_length=115.0))
    return board


@pytest.fixture
def board_file(tmp_path):
    path = str(tmp_path / "board.json")
    save_board(small_board(), path)
    return path


@pytest.mark.smoke
class TestRouteTrace:
    def test_route_trace_writes_artifact_and_ref(self, board_file, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        result_path = str(tmp_path / "result.json")
        code = main(
            [
                "route", board_file, "--preset", "fast",
                "--trace", trace_path, "--out", result_path, "--quiet",
            ]
        )
        assert code == 0
        trace = load_trace(trace_path)
        names = [s["name"] for s in trace.to_dict()["spans"]]
        assert names[0].startswith("route ")
        assert "session.run" in names and "stage.match" in names
        with open(result_path) as fh:
            result_doc = json.load(fh)
        assert result_doc["trace_ref"] == trace_path

    def test_untraced_route_has_no_ref(self, board_file, tmp_path, capsys):
        result_path = str(tmp_path / "result.json")
        assert main(
            ["route", board_file, "--preset", "fast", "--out", result_path, "--quiet"]
        ) == 0
        with open(result_path) as fh:
            assert "trace_ref" not in json.load(fh)

    def test_trace_with_remote_is_usage_error(self, board_file, tmp_path, capsys):
        code = main(
            [
                "route", board_file, "--trace", str(tmp_path / "t.json"),
                "--remote", "http://127.0.0.1:1",
            ]
        )
        assert code == 2
        assert "--trace-dir" in capsys.readouterr().err


@pytest.mark.smoke
class TestTraceSummarize:
    @pytest.fixture
    def trace_file(self, board_file, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        assert main(
            ["route", board_file, "--preset", "fast", "--trace", path, "--quiet"]
        ) == 0
        capsys.readouterr()  # drop the route output
        return path

    def test_summarize_table(self, trace_file, capsys):
        assert main(["trace", "summarize", trace_file]) == 0
        out = capsys.readouterr().out
        assert "session.run" in out
        assert "stage.match" in out
        assert "share" in out

    def test_summarize_tree(self, trace_file, capsys):
        assert main(["trace", "summarize", trace_file, "--tree"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        # Indentation encodes the parentage: session.run sits deeper
        # than the root, stages deeper still.
        session = next(l for l in lines if "session.run" in l)
        stage = next(l for l in lines if "stage.match" in l)
        assert len(stage) - len(stage.lstrip()) > len(session) - len(session.lstrip())

    def test_summarize_json(self, trace_file, capsys):
        assert main(["trace", "summarize", trace_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["rows"]}
        assert "session.run" in names

    def test_summarize_rejects_non_trace(self, board_file, capsys):
        assert main(["trace", "summarize", board_file]) == 2
        assert "error" in capsys.readouterr().err
