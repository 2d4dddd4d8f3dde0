"""The perf guard's machine-speed yardstick.

:func:`calibration_run` times one call of a fixed pure-Python float
kernel — a dense DTW-style dynamic program over two frozen float tuples —
with the garbage collector paused.  ``bench --perf`` runs it before
every phase and records the fastest run as ``machine.calibration_s``;
the guard divides the current value by the baseline's to estimate how
much faster or slower the current machine runs interpreter float code.

The module imports nothing from :mod:`repro` on purpose: no change to the
program under test can move the yardstick, so a regression cannot
rescale its own allowance.  Editing the kernel or its inputs invalidates
every committed ``calibration_s``, so the tests pin the kernel's answer.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Sequence, Tuple


def _frozen_sequence(n: int, phase: float) -> Tuple[float, ...]:
    return tuple(math.sin(k * 0.37 + phase) * 3.0 + k * 0.25 for k in range(n))


_P = _frozen_sequence(450, 0.0)
_Q = _frozen_sequence(500, 1.0)


def calibration_kernel(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rolling-row DTW cost of two float sequences under ``|x - y|``."""
    inf = float("inf")
    prev = [inf] * (len(ys) + 1)
    prev[0] = 0.0
    for x in xs:
        curr = [inf] * (len(ys) + 1)
        left = inf
        for j, y in enumerate(ys, 1):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if left < best:
                best = left
            d = x - y
            left = curr[j] = best + (d if d >= 0.0 else -d)
        prev = curr
    return prev[-1]


def calibration_run() -> float:
    """Wall-clock seconds of one kernel call, garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_kernel(_P, _Q)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
