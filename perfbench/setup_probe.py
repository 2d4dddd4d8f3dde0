"""One fresh-interpreter startup, timed from outside by the benchmark.

Imports the program, generates the run's seeded inputs and encodes them
to JSON, then runs the calibration kernel in this same process and prints
its time as the last line: the client half of ``setup_s`` and the kernel
that calibrates it.

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from kernel import run_kernel  # noqa: E402
from workloads import generate_boards, workload_for_run  # noqa: E402

if __name__ == "__main__":
    generate_boards(workload_for_run(sys.argv[1], "--smoke" in sys.argv[3:]), int(sys.argv[2]))
    print(json.dumps({"kernel_s": run_kernel()}))
