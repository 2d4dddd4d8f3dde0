"""Tests for the table/figure harness and the CLI entry point."""

import os

import pytest

from repro.bench.harness import run_table1, run_table2
from repro.cli import main


class TestRunners:
    def test_run_table1_single_case(self):
        rows = run_table1(cases=[4], verbose=False)
        assert len(rows) == 1
        row = rows[0]
        assert row.case == 4
        assert row.ours_max <= row.aidt_max
        assert row.initial_max == pytest.approx(30.99, abs=0.05)

    def test_run_table2_single_dgap(self):
        rows = run_table2(dgaps=[3.5], verbose=False)
        assert len(rows) == 1
        assert rows[0].with_dp > rows[0].without_dp

    def test_table1_row_formatting(self, capsys):
        run_table1(cases=[4], verbose=True)
        out = capsys.readouterr().out
        assert "Table I" in out and "186.27" in out


class TestCli:
    def test_cli_table2(self, capsys, tmp_path):
        code = main(["bench", "table2"])
        assert code == 0
        assert "Table II" in capsys.readouterr().out

    def test_cli_figures(self, tmp_path, capsys):
        outdir = str(tmp_path / "figs")
        code = main(["bench", "figures", "--outdir", outdir])
        assert code == 0
        produced = os.listdir(outdir)
        assert "fig14a.svg" in produced and "fig16b.svg" in produced
        assert len(produced) == 10

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["bench", "nonsense"])

    def test_cli_figures_json_payload_is_paths(self, tmp_path, capsys):
        # Regression: --json must emit the written file paths, not the
        # SVG markup itself.
        import json

        outdir = str(tmp_path / "figs")
        code = main(["bench", "figures", "--outdir", outdir, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"figures"}
        assert len(payload["figures"]) == 10
        for name, path in payload["figures"].items():
            assert path.endswith(f"{name}.svg")
            assert os.path.exists(path)
