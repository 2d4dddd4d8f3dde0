"""Tiny-size end-to-end runs of every workload, untraced and traced."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    diagnostics = json.loads(lines[-2])["diagnostics"]
    # Failures are listed (the first 20 per pass), never dropped silently.
    assert (len(diagnostics["failures"]) == 0) == (result["failed"] == 0)
    assert len(diagnostics["failures"]) <= result["failed"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # Every check kind is reported, and each failed op failed a kind.
        kinds = diagnostics["checks"]
        assert list(kinds) == ["answer", "pins", "lengths", "tolerance", "drc", "hit_match"]
        assert kinds["answer"]["attempted"] == result["attempted"]
        assert result["failed"] <= sum(k["failed"] for k in kinds.values())
        assert diagnostics["routed_boards"] and all(b["sha256"] for b in diagnostics["routed_boards"])


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
