"""scipy loads at the first coupled region-assignment LP, never at import.

Each case runs in a fresh interpreter, so nothing another test imported
can hide a module-level ``import scipy``.  Only a Sec. III LP whose cells
serve more than one trace (or whose closed form declines) needs scipy;
every process that never solves one (one-shot CLI calls, a daemon whose
boards carry routable areas, a route whose LP the closed form solves)
must finish without loading it.
"""

import json
import os
import subprocess
import sys

import pytest

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_REPORT = """
import json, sys
print(json.dumps({
    "scipy": "scipy" in sys.modules,
    "scipy.optimize": "scipy.optimize" in sys.modules,
    "region": region,
}))
"""

CASES = {
    "import_repro": "import repro\nregion = None",
    "import_cli": "import repro.cli\nregion = None",
    "http_server": (
        "import tempfile\n"
        "from repro.server import make_http_server\n"
        "server = make_http_server(cache_dir=tempfile.mkdtemp(), port=0)\n"
        "server.start_background().shutdown()\n"
        "region = None"
    ),
    "cli_check": (
        "import os, runpy, tempfile\n"
        "from repro import save_board, scenarios\n"
        "path = os.path.join(tempfile.mkdtemp(), 'board.json')\n"
        "save_board(scenarios.generate('serpentine_bus', seed=0), path)\n"
        "sys.argv = ['repro', 'check', path]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "region = None"
    ),
    "explicit_areas_run": (
        "from repro import RoutingSession, scenarios\n"
        "board = scenarios.generate('serpentine_bus', seed=0)\n"
        "assert board.routable_areas\n"
        "result = RoutingSession(board, 'default').run()\n"
        "region = result.stage('region').status"
    ),
    "separable_lp_run": (
        "from repro import RoutingSession, scenarios\n"
        "board = scenarios.generate('mixed_groups', seed=0)\n"
        "board.routable_areas.clear()\n"
        "result = RoutingSession(board, 'default').run()\n"
        "region = result.stage('region').status"
    ),
    "coupled_lp_run": (
        "from repro import RoutingSession, scenarios\n"
        "board = scenarios.generate('serpentine_bus', seed=0)\n"
        "board.routable_areas.clear()\n"
        "result = RoutingSession(board, 'default').run()\n"
        "region = result.stage('region').status"
    ),
}


def run_fresh(case: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + CASES[case] + _REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "case",
    ["import_repro", "import_cli", "http_server", "cli_check", "explicit_areas_run"],
)
def test_no_scipy_without_an_lp(case):
    report = run_fresh(case)
    assert not report["scipy"], f"{case} loaded scipy"
    if case == "explicit_areas_run":
        assert report["region"] == "skipped"


def test_separable_lp_solves_without_scipy():
    # Every mixed_groups cell serves one trace: the closed form answers.
    report = run_fresh("separable_lp_run")
    assert report["region"] == "ok"
    assert not report["scipy"]


def test_first_lp_loads_scipy_optimize():
    # serpentine_bus traces share cells, so its LP goes to HiGHS.
    report = run_fresh("coupled_lp_run")
    assert report["region"] == "ok"
    assert report["scipy.optimize"]
