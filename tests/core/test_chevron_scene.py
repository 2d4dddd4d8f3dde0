"""Scene-backed chevron clearance vs. the exhaustive scan it replaced.

``TraceExtender._chevron_clear`` asks the board's :class:`ClearanceScene`
for the obstacles and other-trace segments within clearance reach of a
chevron chain's bounding box, then runs the exact distance tests on
those alone.  Its verdict must equal that of
:func:`oracles.extension.chevron_clear_scan`, which tests every obstacle
and every segment of every other trace.  The boards here mix obstacles,
pair-owned sub-traces and a zero-length trace (a point the chain must
still clear), and the chains sit both near the clearance thresholds and
far from everything.
"""

import math
import random

import pytest

from oracles.extension import chevron_clear_scan, context_scene
from repro.core import ClearanceScene, ExtensionConfig, TraceExtender
from repro.geometry import Point, Polygon, Polyline, rectangle
from repro.model import DesignRules, Obstacle, Trace

AREA = rectangle(-80.0, -80.0, 80.0, 80.0)


def random_board(rng):
    obstacles = []
    for k in range(rng.randint(3, 7)):
        cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        w, h = rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0)
        obstacles.append(
            Obstacle(
                polygon=Polygon(
                    [
                        Point(cx - w, cy - h),
                        Point(cx + w, cy - h),
                        Point(cx + w, cy + h),
                        Point(cx - w, cy + h),
                    ]
                ),
                name=f"ob{k}",
            )
        )
    traces = []
    for k in range(rng.randint(3, 6)):
        x, y = rng.uniform(-50, 20), rng.uniform(-50, 50)
        pts = [Point(x, y)]
        for _ in range(rng.randint(1, 5)):
            x += rng.uniform(0.0, 12.0)
            y += rng.uniform(-6.0, 6.0)
            pts.append(Point(x, y))
        owner = f"pair{k // 2}" if k % 3 else None
        traces.append((Trace(f"t{k}", Polyline(pts), width=rng.uniform(0.3, 2.5)), owner))
    # A zero-length trace: only a point, and its only segment is degenerate.
    zx, zy = rng.uniform(-40, 40), rng.uniform(-40, 40)
    dot = Trace("dot", Polyline([Point(zx, zy), Point(zx, zy)]), width=rng.uniform(0.5, 2.0))
    traces.insert(rng.randint(0, len(traces)), (dot, None))
    return obstacles, traces


def anchors(obstacles, traces, rules, width):
    """Obstacle corners and trace nodes, each with the clearance a chain
    of ``width`` must keep from it."""
    out = [
        (p, rules.dobs + width / 2.0) for o in obstacles for p in o.polygon.points
    ]
    out.extend(
        (p, rules.dgap + (width + t.width) / 2.0)
        for t, _ in traces
        for p in t.path.points
    )
    return out


def chevron_chain(rng, centre, span):
    """A chevron-shaped five-point chain around ``centre``."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    d = Point(math.cos(angle), math.sin(angle))
    n = d.perpendicular()
    base = rng.uniform(0.2, span)
    height = rng.uniform(0.0, span / 2.0) * rng.choice((1.0, -1.0))
    stub = rng.uniform(0.0, span / 2.0)
    a = centre - d * (base / 2.0)
    b = centre + d * (base / 2.0)
    return [a - d * stub, a, centre + n * height, b, b + d * stub]


def random_chains(rng, obstacles, traces, rules, width, count):
    points = anchors(obstacles, traces, rules, width)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6:
            # Near copper, at about the clearance it demands: small chains
            # whose distance straddles the threshold.
            p, clearance = rng.choice(points)
            r = clearance * rng.uniform(0.75, 1.25)
            span = rng.uniform(0.2, 1.0)
        elif roll < 0.85:
            p, clearance = rng.choice(points)
            r = clearance * rng.uniform(0.0, 2.0)
            span = rng.uniform(0.5, 4.0)
        else:
            p, r = Point(rng.uniform(-75, 75), rng.uniform(-75, 75)), 0.0
            span = rng.uniform(0.5, 10.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        centre = Point(p.x + r * math.cos(angle), p.y + r * math.sin(angle))
        yield chevron_chain(rng, centre, span)


def exclusion_sets(traces):
    names = [t.name for t, _ in traces]
    owners = sorted({o for _, o in traces if o is not None})
    sets = [frozenset(), frozenset({"dot"}), frozenset({names[0]})]
    sets.extend(frozenset({o}) for o in owners[:2])
    sets.append(frozenset({names[-1], "no-such-trace"}))
    return sets


@pytest.mark.parametrize("seed", range(10))
def test_scene_verdicts_match_exhaustive_scan(seed):
    rng = random.Random(seed)
    obstacles, traces = random_board(rng)
    scene = ClearanceScene(obstacles)
    for trace, owner in traces:
        scene.add_trace(trace, owner=owner)
    verdicts = {True: 0, False: 0}
    for exclude in exclusion_sets(traces):
        rules = DesignRules(
            dgap=rng.uniform(0.5, 5.0),
            dobs=rng.uniform(0.5, 4.0),
            dprotect=1.0,
        )
        extender = TraceExtender(
            rules, AREA, scene=scene, config=ExtensionConfig(), exclude=exclude
        )
        width = rng.uniform(0.3, 3.0)
        for chain in random_chains(rng, obstacles, traces, rules, width, 25):
            want = chevron_clear_scan(extender, chain, width)
            assert extender._chevron_clear(chain, width) is want, (exclude, chain)
            verdicts[want] += 1
    # Both verdicts must be well represented, or the test checks nothing.
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def test_zero_length_trace_blocks_a_chain():
    # The chain passes within 1.9 of a zero-length trace of width 1: with
    # dgap 2 and chain width 1 it needs 3, so the point alone rejects it.
    dot = Trace("dot", Polyline([Point(5.0, 1.5), Point(5.0, 1.5)]), width=1.0)
    scene = context_scene([], [dot])
    rules = DesignRules(dgap=2.0, dobs=1.0, dprotect=1.0)
    extender = TraceExtender(rules, AREA, scene=scene)
    chain = [Point(0, 0), Point(4, 0), Point(5, -0.5), Point(6, 0), Point(10, 0)]
    assert chevron_clear_scan(extender, chain, 1.0) is False
    assert extender._chevron_clear(chain, 1.0) is False
    excluded = TraceExtender(rules, AREA, scene=scene, exclude=("dot",))
    assert excluded._chevron_clear(chain, 1.0) is True
