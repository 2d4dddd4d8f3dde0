"""Benchmark entry point.

    python3 perfbench/run.py --workload unassigned_mixed_12 --seed 0 --seconds 45 --trace 0

Prints diagnostics lines, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import PINNED_ENV  # noqa: E402
from workloads import WORKLOADS, workload_for_run  # noqa: E402


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "env": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny boards, one setup probe (tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: program source {os.path.join(ROOT, 'src', 'repro')} not found", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # Pin hashing and BLAS threads before numpy is imported.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, **PINNED_ENV))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2

    import harness
    import layers

    # A terminated benchmark still stops its daemon (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    workload = workload_for_run(args.workload, args.smoke)
    workdir = harness.fresh_dir(os.path.join(ROOT, ".perfbench"), f"work-{os.getpid()}")
    try:
        if args.trace:
            runs, metrics, diagnostics = layers.traced(ROOT, workdir, workload, args.seed, args.seconds)
        else:
            run, metrics, diagnostics = harness.end_to_end(
                ROOT, workdir, workload, args.seed, args.seconds, args.smoke
            )
            runs = [run]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    diagnostics["machine"] = machine_info()
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
