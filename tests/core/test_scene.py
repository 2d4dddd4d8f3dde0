"""ClearanceScene vs. the exhaustive world-polygon scan.

The scene's window query, :meth:`ClearanceScene.collect_window` (what
the extender calls), must reproduce the seed extender's context scan
(:func:`oracles.extension.context_polygons`) *exactly* — same polygons,
same floats, same order — under registration, exclusion and in-place
trace updates.  The area and the trace's own segments stay with the
extender and are out of scope.  ``TestFromBoard`` checks that
:meth:`ClearanceScene.from_board` plus a member's exclusion set yields
exactly the context list the router used to build per member.
"""

import random

import pytest

from oracles.digests import corpus_families
from oracles.extension import context_polygons
from repro.core import ClearanceScene
from repro.geometry import Point, Polygon, Polyline
from repro.model import Board, DifferentialPair, Obstacle, Trace
from repro.scenarios import generate


def reference_polygons(obstacles, traces, window, dgap, inflation, exclude):
    """The seed extender's context scan over ``(trace, owner)`` pairs,
    dropping traces excluded by name or by owning pair."""
    kept = [
        trace
        for trace, owner in traces
        if not (trace.name in exclude or (owner is not None and owner in exclude))
    ]
    return context_polygons(obstacles, kept, window, dgap, inflation)


def window_polygons(scene, window, dgap, inflation, exclude=frozenset()):
    """``collect_window``'s blocks as lists of ``(x, y)`` floats."""
    chunks, sizes = [], []
    scene.collect_window(chunks, sizes, window, dgap, inflation, exclude)
    assert sizes == [len(pts) for pts in chunks]
    return [[(float(x), float(y)) for x, y in pts] for pts in chunks]


def random_board(seed, n_obstacles=6, n_traces=5):
    rng = random.Random(seed)
    obstacles = []
    for k in range(n_obstacles):
        cx, cy = rng.uniform(-40, 40), rng.uniform(-40, 40)
        w, h = rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)
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
    for k in range(n_traces):
        x, y = rng.uniform(-40, 20), rng.uniform(-40, 40)
        pts = [Point(x, y)]
        for _ in range(rng.randint(1, 6)):
            x += rng.uniform(0.0, 12.0)
            y += rng.uniform(-6.0, 6.0)
            pts.append(Point(x, y))
        owner = f"pair{k}" if k % 2 else None
        traces.append(
            (Trace(f"t{k}", Polyline(pts), width=rng.uniform(0.4, 1.2)), owner)
        )
    return obstacles, traces


def make_scene(obstacles, traces):
    scene = ClearanceScene(obstacles)
    for trace, owner in traces:
        scene.add_trace(trace, owner=owner)
    return scene


def random_window(rng):
    x0, y0 = rng.uniform(-50, 30), rng.uniform(-50, 30)
    return (x0, y0, x0 + rng.uniform(1.0, 60.0), y0 + rng.uniform(1.0, 60.0))


def assert_same_polygons(got, want):
    assert got == [[(p.x, p.y) for p in poly.points] for poly in want]


class TestQueryEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_windows_match_exhaustive_scan(self, seed):
        obstacles, traces = random_board(seed)
        scene = make_scene(obstacles, traces)
        rng = random.Random(seed + 500)
        for _ in range(15):
            window = random_window(rng)
            dgap = rng.choice((2.5, 4.0))
            inflation = rng.uniform(0.0, 3.0)
            assert_same_polygons(
                window_polygons(scene, window, dgap, inflation),
                reference_polygons(
                    obstacles, traces, window, dgap, inflation, frozenset()
                ),
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_exclusion_by_name_and_owner(self, seed):
        obstacles, traces = random_board(seed)
        scene = make_scene(obstacles, traces)
        rng = random.Random(seed + 900)
        window = (-60.0, -60.0, 60.0, 60.0)
        # Excluding a sub-trace name drops it; excluding the owning pair
        # name drops every sub-trace of that pair.
        for exclude in (
            frozenset({"t0"}),
            frozenset({"pair1"}),
            frozenset({"t2", "pair3"}),
            frozenset({"no-such-trace"}),
        ):
            assert_same_polygons(
                window_polygons(scene, window, 4.0, 1.0, exclude),
                reference_polygons(obstacles, traces, window, 4.0, 1.0, exclude),
            )

    def test_whole_board_and_empty_windows(self):
        obstacles, traces = random_board(3)
        scene = make_scene(obstacles, traces)
        everything = window_polygons(scene, (-1e9, -1e9, 1e9, 1e9), 4.0, 1.0)
        assert_same_polygons(
            everything,
            reference_polygons(
                obstacles, traces, (-1e9, -1e9, 1e9, 1e9), 4.0, 1.0, frozenset()
            ),
        )
        assert len(everything) > 0
        assert window_polygons(scene, (900.0, 900.0, 901.0, 901.0), 4.0, 1.0) == []

    def test_degenerate_segments_never_reported(self):
        trace = Trace(
            "z",
            Polyline([Point(0, 0), Point(5, 0), Point(5, 0), Point(9, 2)]),
            width=1.0,
        )
        scene = ClearanceScene([])
        scene.add_trace(trace)
        got = window_polygons(scene, (-10, -10, 20, 20), 4.0, 0.0)
        assert len(got) == 2  # the zero-length middle segment is dropped

    def test_collect_window_matches_oracle(self):
        obstacles, traces = random_board(7)
        scene = make_scene(obstacles, traces)
        window = (-30.0, -30.0, 30.0, 30.0)
        want = reference_polygons(obstacles, traces, window, 2.5, 0.75, frozenset())
        chunks, sizes = [], []
        scene.collect_window(chunks, sizes, window, 2.5, 0.75)
        assert len(chunks) == len(sizes) == len(want)
        for pts, size, poly in zip(chunks, sizes, want):
            assert size == len(pts) == len(poly.points)
            assert [(p.x, p.y) for p in poly.points] == [
                (float(x), float(y)) for x, y in pts
            ]


class TestMutation:
    def test_update_trace_changes_answers(self):
        trace = Trace("t", Polyline([Point(0, 0), Point(10, 0)]), width=1.0)
        scene = ClearanceScene([])
        scene.add_trace(trace)
        window = (-5.0, -5.0, 15.0, 5.0)
        before = window_polygons(scene, window, 4.0, 0.0)
        assert len(before) == 1

        moved = Trace("t", Polyline([Point(0, 100), Point(10, 100)]), width=1.0)
        scene.update_trace(moved)
        assert window_polygons(scene, window, 4.0, 0.0) == []
        assert len(window_polygons(scene, (-5, 95, 15, 105), 4.0, 0.0)) == 1

    def test_update_unknown_trace_is_ignored(self):
        scene = ClearanceScene([])
        scene.update_trace(
            Trace("ghost", Polyline([Point(0, 0), Point(1, 0)]), width=1.0)
        )
        assert scene._entries == []

    def test_duplicate_registration_rejected(self):
        scene = ClearanceScene([])
        scene.add_trace(Trace("t", Polyline([Point(0, 0), Point(1, 0)]), width=1.0))
        with pytest.raises(ValueError):
            scene.add_trace(
                Trace("t", Polyline([Point(5, 5), Point(6, 5)]), width=1.0)
            )

    def test_update_matches_fresh_scene(self):
        # After an update, every query must equal a scene built from
        # scratch over the new geometry — the router relies on this when
        # it reroutes members of a group one by one.
        obstacles, traces = random_board(11)
        scene = make_scene(obstacles, traces)
        rerouted = Trace(
            "t1",
            Polyline([Point(-20, -20), Point(0, -18), Point(20, -22)]),
            width=0.8,
        )
        scene.update_trace(rerouted)
        fresh_traces = [
            (rerouted if t.name == "t1" else t, owner) for t, owner in traces
        ]
        fresh = make_scene(obstacles, fresh_traces)
        rng = random.Random(42)
        for _ in range(10):
            window = random_window(rng)
            assert window_polygons(scene, window, 4.0, 1.0) == window_polygons(
                fresh, window, 4.0, 1.0
            )


def context_traces(board, exclude):
    """Every other piece of copper a member must clear, listed the way the
    router did before the scene held the registration rule: board traces
    in order, then each non-excluded pair's non-excluded sub-traces."""
    excluded = set(exclude)
    out = [t for t in board.traces if t.name not in excluded]
    for pair in board.pairs:
        if pair.name in excluded:
            continue
        out.extend(
            t for t in (pair.trace_p, pair.trace_n) if t.name not in excluded
        )
    return out


class TestFromBoard:
    @pytest.mark.parametrize("family", corpus_families())
    def test_matches_old_context_list_for_every_member(self, family):
        board = generate(family, seed=0)
        scene = ClearanceScene.from_board(board)
        members = [(t.name, [t.name]) for t in board.traces] + [
            (p.name, [p.name, p.trace_p.name, p.trace_n.name]) for p in board.pairs
        ]
        assert members
        window = (-1e9, -1e9, 1e9, 1e9)
        for name, exclude in members:
            context = [(t, None) for t in context_traces(board, exclude)]
            assert_same_polygons(
                window_polygons(scene, window, 2.5, 0.75, frozenset(exclude)),
                reference_polygons(
                    board.obstacles, context, window, 2.5, 0.75, frozenset()
                ),
            )

    def test_registration_order_and_owners(self):
        obstacles, traces = random_board(5)
        board = Board.with_rect_outline(-100, -100, 100, 100)
        board.obstacles.extend(obstacles)
        for trace, _ in traces[:3]:
            board.add_trace(trace)
        board.add_pair(DifferentialPair("d", traces[3][0], traces[4][0], rule=2.0))
        scene = ClearanceScene.from_board(board)
        assert scene.obstacles == board.obstacles
        assert [e.name for e in scene._entries] == ["t0", "t1", "t2", "t3", "t4"]
        assert [e.owner for e in scene._entries] == [None, None, None, "d", "d"]
