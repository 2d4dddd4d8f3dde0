"""Every ``examples/*.py`` script runs to completion against ``src/``.

The examples drive the public API end to end; nothing else would notice
one of them breaking when that API changes.  Each runs in a fresh
interpreter inside its own temporary directory, since they write their
SVG/JSON artifacts into the working directory.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
