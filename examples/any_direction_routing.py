"""Any-direction routing showcase (the paper's Fig. 14(b)).

Traces at 17, 33 and 56 degrees — none of them 90/135 — all meandered to
a common length with obstacle-aware patterns that follow each trace's own
direction.  Also demonstrates rotation equivariance: matching a rotated
copy of a layout yields the rotated result.

Run:  python examples/any_direction_routing.py
"""

import math

from repro import (
    DesignRules,
    Point,
    Polyline,
    RoutingSession,
    Trace,
    render_board,
)
from repro.bench import make_any_direction_design
from repro.core import ExtensionConfig, TraceExtender
from repro.geometry import rectangle, rotation_about


def fanout_demo() -> None:
    board = make_any_direction_design()
    result = RoutingSession(board).run()
    report = result.groups[0]
    print("fan-out group (17/33/56 degrees):")
    for m in report.members:
        print(f"  {m.name}: {m.length_before:.2f} -> {m.length_after:.4f}")
    print(f"  max error {report.max_error() * 100:.4f}%  "
          f"DRC {'clean' if result.drc.is_clean() else 'VIOLATED'}")
    render_board(board, path="any_direction_fanout.svg")
    print("  wrote any_direction_fanout.svg")


def rotation_equivariance_demo() -> None:
    rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
    area = rectangle(-200, -200, 200, 200)
    base = Trace("t", Polyline([Point(0, 0), Point(90, 0)]), width=1.0)
    target = 140.0

    print("\nrotation equivariance (same gain at every angle):")
    for deg in (0, 17, 45, 73, 133, 211):
        rot = rotation_about(Point(0, 0), math.radians(deg))
        trace = base.with_path(rot.apply_polyline(base.path))
        ext = TraceExtender(rules, area, config=ExtensionConfig())
        result = ext.extend(trace, target)
        print(f"  {deg:>3} deg: achieved {result.achieved:.6f} "
              f"({result.patterns_applied} patterns)")


if __name__ == "__main__":
    fanout_demo()
    rotation_equivariance_demo()
