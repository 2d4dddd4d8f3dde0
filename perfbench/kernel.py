"""Machine-speed calibration kernel.

A fixed amount of pure-Python, geometry-like work (small slotted
objects, float math, dict bucketing) whose run time tracks how fast this
machine runs interpreted code right now.  It deliberately imports
nothing from ``repro``: no change to the program under test can make the
yardstick faster or slower.
"""

from __future__ import annotations

import gc
import math
import time

#: Reference kernel time in seconds, frozen.  Every calibrated timing is
#: ``raw * K_REF / K_adjacent``, i.e. expressed in "seconds on a machine
#: whose kernel takes K_REF".
K_REF = 0.050

#: Work size: points per kernel run.
POINTS = 6400

class _Pt:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _seg_dist(a: _Pt, b: _Pt, p: _Pt) -> float:
    dx = b.x - a.x
    dy = b.y - a.y
    den = dx * dx + dy * dy
    t = 0.0 if den == 0.0 else ((p.x - a.x) * dx + (p.y - a.y) * dy) / den
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return math.hypot(a.x + t * dx - p.x, a.y + t * dy - p.y)


def kernel_work(points: int = POINTS) -> float:
    """The fixed work; returns a checksum so the work cannot be skipped."""
    grid = {}
    pts = []
    for i in range(points):
        angle = i * 2.399963229728653
        radius = math.sqrt(i + 1.0) * 3.0
        p = _Pt(radius * math.cos(angle), radius * math.sin(angle))
        pts.append(p)
        grid.setdefault((int(p.x // 16.0), int(p.y // 16.0)), []).append(p)
    acc = 0.0
    for i in range(1, points):
        a = pts[i - 1]
        b = pts[i]
        best = math.inf
        for q in grid.get((int(b.x // 16.0), int(b.y // 16.0)), ()):
            if q is not a and q is not b:
                d = _seg_dist(a, b, q)
                if d < best:
                    best = d
        if best < math.inf:
            acc += best
    return round(acc, 6)


def run_kernel() -> float:
    """Time one kernel run (seconds).

    The cyclic garbage collector is paused meanwhile: the kernel's own
    allocations would otherwise trigger collections whose cost depends
    on whatever else lives in the calling process's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel_work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
