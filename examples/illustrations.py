"""Regenerate the paper's mechanism illustrations from live algorithm state.

Produces SVGs for:
  * URA construction and shrinking (Figs. 6-8),
  * the four DP state transitions (Fig. 3),
  * DTW node matching on imperfectly coupled sub-traces (Fig. 10),
  * region assignment cells (Sec. III),
  * the full Fig. 2 pipeline via RoutingSession (areas + meanders).

Run:  python examples/illustrations.py
"""

import os

from repro.core import Pattern, ShrinkEnvironment, URA
from repro.dtw import dtw_match
from repro.geometry import Point, Polygon, Polyline, rectangle
from repro.viz import SvgCanvas

OUT = "illustrations"


def ura_shrinking() -> None:
    """An obstacle straddles the hat; show the URA before/after shrinking."""
    boundary = rectangle(-20, -30, 60, 30)
    obstacle = rectangle(16, 9, 24, 40)
    env = ShrinkEnvironment.from_polygons([boundary, obstacle])
    g = 2.0
    h = env.max_pattern_height(10, 30, g, 20.0, 1.0)

    canvas = SvgCanvas(-5, -5, 45, 30, scale=10)
    canvas.polygon(obstacle, fill="#444444", opacity=0.8)
    # Unshrunk URA outer border (dashed) and final URA (solid).
    initial = URA(10, 30, g, 22.0)
    final = URA(10, 30, g, h + g)
    canvas.polyline(
        Polyline(list(initial.outer_polygon().points) + [initial.outer_polygon().points[0]]),
        stroke="#999999", width=1.0, dash="5,4",
    )
    for arm in final.arm_polygons():
        canvas.polygon(arm, fill="#ffcccc", stroke="#cc4444", opacity=0.45)
    pattern = Pattern(10, 30, h, 1)
    canvas.polyline(Polyline([Point(0, 0)] + pattern.local_points() + [Point(40, 0)]),
                    stroke="#1f77b4", width=2.5)
    canvas.text(Point(1, 26), f"shrunk height h = {h:.2f}")
    canvas.save(os.path.join(OUT, "ura_shrinking.svg"))


def dp_transitions() -> None:
    """The four valid state transitions of Fig. 3 on one segment."""
    canvas = SvgCanvas(-2, -10, 62, 14, scale=8)
    canvas.polyline(Polyline([Point(0, 0), Point(60, 0)]), stroke="#888", width=1.0)
    chains = [
        # (a) same direction, d_gap apart
        [Point(2, 0), Point(2, 6), Point(6, 6), Point(6, 0)],
        [Point(12, 0), Point(12, 6), Point(16, 6), Point(16, 0)],
        # (b) opposite direction, d_protect apart
        [Point(24, 0), Point(24, -6), Point(28, -6), Point(28, 0)],
        # (c) connected (plocal): shares the foot at x=34
        [Point(30, 0), Point(30, 7), Point(34, 7), Point(34, -5), Point(38, -5), Point(38, 0)],
        # (d) foot on the segment node
        [Point(52, 0), Point(52, 8), Point(60, 8), Point(60, 0)],
    ]
    for chain in chains:
        canvas.polyline(Polyline(chain), stroke="#1f77b4", width=2.2)
    for label, x in (("(a)", 8), ("(b)", 25), ("(c)", 32), ("(d)", 54)):
        canvas.text(Point(x, -9), label, size=11)
    canvas.save(os.path.join(OUT, "dp_transitions.svg"))


def dtw_matching() -> None:
    """Node matching on an imperfectly coupled pair (Fig. 10(a))."""
    p = [Point(0, 2), Point(20, 2), Point(20.4, 2.2), Point(20.8, 2.5), Point(40, 14)]
    q = [Point(0, -1), Point(21.5, -1), Point(42, 11)]
    pairs, _ = dtw_match(p, q)
    canvas = SvgCanvas(-2, -4, 46, 18, scale=10)
    canvas.polyline(Polyline(p), stroke="#1f77b4", width=2.0)
    canvas.polyline(Polyline(q), stroke="#d62728", width=2.0)
    for m in pairs:
        canvas.polyline(Polyline([p[m.i], q[m.j]]), stroke="#999999", width=0.8, dash="3,2")
    for pt in p:
        canvas.circle(pt, 0.25, fill="#1f77b4")
    for pt in q:
        canvas.circle(pt, 0.25, fill="#d62728")
    canvas.save(os.path.join(OUT, "dtw_matching.svg"))


def pipeline_overview() -> None:
    """The Fig. 2 flow end-to-end: session-assigned areas + meanders."""
    from repro import Board, DesignRules, MatchGroup, RoutingSession, Trace, render_board

    board = Board.with_rect_outline(0, 0, 80, 50, DesignRules(dgap=4, dobs=2, dprotect=2))
    board.name = "pipeline_overview"
    t0 = board.add_trace(Trace("t0", Polyline([Point(5, 15), Point(75, 15)]), width=1.0))
    t1 = board.add_trace(Trace("t1", Polyline([Point(5, 35), Point(75, 35)]), width=1.0))
    board.add_group(MatchGroup("g", members=[t0, t1], target_length=100.0))

    result = RoutingSession(board).run()
    render_board(
        board, path=os.path.join(OUT, "pipeline_overview.svg"), show_areas=True
    )
    print(result.summary())


def region_cells() -> None:
    """Region assignment: grid cells coloured by owner."""
    from repro.model import Board, DesignRules, Trace
    from repro.region import assign_regions

    board = Board.with_rect_outline(0, 0, 80, 50, DesignRules(dgap=4, dprotect=2))
    t0 = board.add_trace(Trace("t0", Polyline([Point(5, 15), Point(75, 15)]), width=1.0))
    t1 = board.add_trace(Trace("t1", Polyline([Point(5, 35), Point(75, 35)]), width=1.0))
    assignment = assign_regions(board, [t0, t1], {"t0": 110.0, "t1": 100.0}, cell=8.0)

    canvas = SvgCanvas(0, 0, 80, 50, scale=8)
    colors = {"t0": "#cfe3ff", "t1": "#ffd7d7"}
    for name, idxs in assignment.cells.items():
        for idx in idxs:
            region = assignment.decomposition.region(idx)
            canvas.polygon(region.polygon(), fill=colors[name], stroke="#aaaaaa",
                           stroke_width=0.5)
    canvas.polyline(t0.path, stroke="#1f77b4", width=2.5)
    canvas.polyline(t1.path, stroke="#d62728", width=2.5)
    canvas.save(os.path.join(OUT, "region_cells.svg"))


if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    ura_shrinking()
    dp_transitions()
    dtw_matching()
    region_cells()
    pipeline_overview()
    print(f"wrote 5 illustrations under {OUT}/")
