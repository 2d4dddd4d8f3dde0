"""The geometry early-outs give the scalar loops' answers.

``Polygon.contains_point`` gives the exact boundary-distance test only to
edges whose padded box holds the point, ``polyline_inside_polygon`` gives
the exact intersection test only to (segment, edge) pairs whose padded
boxes meet, and ``cells_union_boundary`` generates and cancels its cell
edges with array operations.  ``tests/oracles/geometry.py`` keeps the loops they replaced.
Every call a route makes is recorded and replayed through both, on the
corpus (every family × seeds 0–4, explicit and region-assigned areas)
and on the 48 boards of the ``unassigned_mixed_12`` benchmark workload;
hand-made cases probe the pads: points exactly ``eps`` and ``2 eps`` off
an edge, segments touching the boundary, coordinates near 1e6, and cell
unions with holes, pinch vertices and clipped unequal cells.
"""

from __future__ import annotations

import contextlib
import random
from functools import lru_cache

import pytest

from oracles import geometry as oracle
from oracles.digests import SEEDS, corpus_families
import repro.drc.checker as checker
import repro.region.assign as assign
from repro.api import RoutingSession, SessionConfig
from repro.geometry import (
    EPS,
    Point,
    Polygon,
    Polyline,
    cells_union_boundary,
    polyline_inside_polygon,
    rectangle,
    regular_polygon,
)
from repro.scenarios import generate


@contextlib.contextmanager
def recording():
    """Record the arguments of every containment and cell-union call."""
    calls = {"point": [], "line": [], "cells": []}
    point_fn = Polygon.contains_point
    line_fn = checker.polyline_inside_polygon
    union_fn = assign.cells_union_boundaries

    def contains_point(self, p, eps=EPS):
        calls["point"].append((self, p, eps))
        return point_fn(self, p, eps)

    def inside(line, poly, eps=EPS):
        calls["line"].append((line, poly, eps))
        return line_fn(line, poly, eps)

    def unions(groups):
        groups = [list(cells) for cells in groups]
        calls["cells"].extend(groups)
        return union_fn(groups)

    Polygon.contains_point = contains_point
    checker.polyline_inside_polygon = inside
    assign.cells_union_boundaries = unions
    try:
        yield calls
    finally:
        Polygon.contains_point = point_fn
        checker.polyline_inside_polygon = line_fn
        assign.cells_union_boundaries = union_fn


def _route(board, preset):
    RoutingSession(board, config=SessionConfig.preset(preset)).run()


@lru_cache(maxsize=None)
def corpus_calls(family):
    """Calls of the ``fast`` route (explicit areas) and of the
    ``default`` route with areas cleared, over seeds 0–4."""
    with recording() as calls:
        for seed in SEEDS:
            _route(generate(family, seed=seed), "fast")
            board = generate(family, seed=seed)
            board.routable_areas.clear()
            _route(board, "default")
    return calls


def workload_calls(first, count):
    """Calls of the ``unassigned_mixed_12`` cold route on boards
    ``first .. first + count - 1``: 12-tile ``tiled`` ``mixed_groups``,
    areas cleared, ``default`` preset."""
    with recording() as calls:
        for seed in range(first, first + count):
            board = generate(
                "tiled",
                seed=seed,
                params={"tiles": 12, "base": "mixed_groups", "base_params": {}},
            )
            board.routable_areas.clear()
            _route(board, "default")
    return calls


def assert_same_answers(calls):
    assert calls["point"]
    seen = set()
    for poly, p, eps in calls["point"]:
        key = (id(poly), p, eps)
        if key in seen:
            continue
        seen.add(key)
        assert poly.contains_point(p, eps) == oracle.contains_point(poly, p, eps)
    for line, poly, eps in calls["line"]:
        assert polyline_inside_polygon(line, poly, eps) == (
            oracle.polyline_inside_polygon(line, poly, eps)
        )
    for cells in calls["cells"]:
        assert repr(cells_union_boundary(cells)) == repr(
            oracle.cells_union_boundary(cells)
        )


@pytest.mark.parametrize("family", corpus_families())
def test_corpus_calls_match_the_scalar_loops(family):
    # diffpair_cluster has no single-ended member, so no routable area to
    # assign or check; every other family has both.
    calls = corpus_calls(family)
    single_ended = family != "diffpair_cluster"
    assert bool(calls["cells"]) == bool(calls["line"]) == single_ended
    assert_same_answers(calls)


@pytest.mark.slow
@pytest.mark.parametrize("first", range(0, 48, 12))
def test_workload_calls_match_the_scalar_loops(first):
    calls = workload_calls(first, 12)
    assert calls["cells"] and calls["line"]
    assert_same_answers(calls)


# -- hand-made cases -----------------------------------------------------------------


def shifted(points, dx, dy):
    return [Point(p.x + dx, p.y + dy) for p in points]


#: Coordinate offsets: the origin, a fractional mid-range shift, and one
#: near 1e6 where an ulp is about 1e-10.
OFFSETS = ((0.0, 0.0), (37.3, -12.9), (1e6 + 0.1, 1e6 - 0.3))

SHAPES = {
    "square": rectangle(0.0, 0.0, 10.0, 10.0).points,
    "slanted": (Point(0, 0), Point(7, 1), Point(9, 8), Point(2, 6)),
    "concave": (
        Point(0, 0), Point(6, 0), Point(6, 2), Point(2, 2), Point(2, 6), Point(0, 6),
    ),
    "octagon": regular_polygon(Point(5, 5), 4.0, 8, 0.3).points,
    "short_edge": (
        Point(0, 0), Point(10, 0), Point(10, 5), Point(10, 5 + 3e-7), Point(0, 5),
    ),
}


def probe_points(poly, rng):
    """Points at 0, eps/2, eps, 2 eps and further off every edge, on
    both sides, at the edge's ends and along it."""
    pts = poly.points
    out = []
    for i, a in enumerate(pts):
        b = pts[(i + 1) % len(pts)]
        dx, dy = b.x - a.x, b.y - a.y
        length = (dx * dx + dy * dy) ** 0.5
        if length == 0.0:
            continue
        nx, ny = -dy / length, dx / length
        for t in (0.0, 1e-9, 0.3, 0.5, 1.0, rng.random()):
            base = Point(a.x + dx * t, a.y + dy * t)
            for k in (0.0, 0.5, 1.0, 2.0, 3.0, 1e3):
                for side in (1.0, -1.0):
                    d = side * k * EPS
                    out.append(Point(base.x + nx * d, base.y + ny * d))
        # Beyond the ends, along the edge's line.
        for k in (1.0, 2.0):
            out.append(Point(b.x + dx / length * k * EPS, b.y + dy / length * k * EPS))
    return out


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_points_near_the_boundary(shape, offset):
    rng = random.Random(f"{shape}/{offset}")
    poly = Polygon(shifted(SHAPES[shape], *offset))
    points = probe_points(poly, rng)
    for eps in (EPS, 2 * EPS, 1e-6):
        answers = [poly.contains_point(p, eps) for p in points]
        assert answers == [oracle.contains_point(poly, p, eps) for p in points]
    # The exact-eps band is really exercised: some points off the
    # boundary count as inside only through the distance test.
    assert any(answers) and not all(answers)


def probe_lines(poly, rng):
    """Polylines through and along the boundary: chords between nodes,
    runs along edges at 0, eps and 2 eps, and random walks."""
    pts = poly.points
    n = len(pts)
    lines = []
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        lines.append(Polyline([a, c]))  # a chord: inside or crossing
        lines.append(Polyline([a, b, c]))  # along the boundary
        dx, dy = b.x - a.x, b.y - a.y
        length = (dx * dx + dy * dy) ** 0.5
        nx, ny = -dy / length, dx / length
        for k in (0.0, 1.0, 2.0, -1.0, -2.0):
            d = k * EPS
            lines.append(
                Polyline([
                    Point(a.x + nx * d, a.y + ny * d),
                    Point(b.x + nx * d, b.y + ny * d),
                ])
            )
    xmin, ymin, xmax, ymax = poly.bounds()
    for _ in range(40):
        walk = [
            Point(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
            for _ in range(rng.randint(2, 6))
        ]
        lines.append(Polyline(walk))
    return lines


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_lines_touching_the_boundary(shape, offset):
    rng = random.Random(f"lines/{shape}/{offset}")
    poly = Polygon(shifted(SHAPES[shape], *offset))
    lines = probe_lines(poly, rng)
    # eps = 0 has no reach to prove: every (segment, edge) pair is tested.
    for eps in (0.0, EPS):
        answers = [polyline_inside_polygon(line, poly, eps) for line in lines]
        assert answers == [
            oracle.polyline_inside_polygon(line, poly, eps) for line in lines
        ]
    assert any(answers) and not all(answers)


UNIONS = {
    "ring": [
        (x, y, x + 1, y + 1) for x in range(3) for y in range(3) if (x, y) != (1, 1)
    ],
    "pinch": [(0, 0, 1, 1), (1, 1, 2, 2), (2, 0, 3, 1), (1, -1, 2, 0)],
    "double_pinch": [(0, 0, 1, 1), (1, 1, 2, 2), (2, 2, 3, 3), (0, 2, 1, 3)],
    "unequal": [
        (0, 0, 2, 2), (2, 0, 3, 1), (2, 1, 3, 2), (0, 2, 1, 3), (1, 2, 2.5, 2.5),
    ],
    "clipped": [
        (0.0, 0.0, 1.3, 1.0),
        (1.3, 0.0, 2.0, 0.4),
        (1.3, 0.4, 2.0, 1.0),
        (0.0, 1.0, 0.7, 1.9),
        (0.7, 1.0, 2.0, 1.25),
    ],
    "holes_and_islands": [
        (x, y, x + 1, y + 1)
        for x in range(6)
        for y in range(6)
        if (x, y) not in {(1, 1), (4, 4), (3, 1), (2, 3), (2, 2)}
    ] + [(10, 10, 11, 12)],
    "zero_area": [(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1)],
}


@pytest.mark.parametrize("scale", (1.0, 0.1, 2.54, 1e6 / 7))
@pytest.mark.parametrize("offset", ((0.0, 0.0), (1e6, -1e6 + 0.5)))
@pytest.mark.parametrize("name", sorted(UNIONS))
def test_cell_unions(name, offset, scale):
    cells = [
        (x0 * scale + offset[0], y0 * scale + offset[1],
         x1 * scale + offset[0], y1 * scale + offset[1])
        for x0, y0, x1, y1 in UNIONS[name]
    ]
    assert repr(cells_union_boundary(cells)) == repr(oracle.cells_union_boundary(cells))


def test_ring_union_has_a_hole():
    polys = cells_union_boundary(UNIONS["ring"])
    assert sorted(p.is_ccw() for p in polys) == [False, True]


def test_random_cell_unions():
    rng = random.Random(19)
    for _ in range(300):
        cells = []
        for _ in range(rng.randint(1, 25)):
            x, y = rng.randint(0, 7), rng.randint(0, 7)
            cell = (x, y, x + rng.choice((1, 1, 2)), y + rng.choice((1, 1, 2)))
            if all(
                cell[2] <= c[0] or c[2] <= cell[0] or cell[3] <= c[1] or c[3] <= cell[1]
                for c in cells
            ):
                cells.append(cell)
        scale = rng.choice((1.0, 0.3, 1e5 + 0.7))
        cells = [tuple(v * scale for v in c) for c in cells]
        assert repr(cells_union_boundary(cells)) == repr(
            oracle.cells_union_boundary(cells)
        )
