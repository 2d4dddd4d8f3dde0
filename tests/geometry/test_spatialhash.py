"""Brute-force cross-checks for the spatial indexes.

:class:`SegmentGrid` promises a *superset*: every indexed segment within
``radius`` of the probe must be reported (false positives are allowed —
the DRC filters them with exact tests).  :class:`PointRangeTree` (the
oracle shrink environment's node index) promises exact range reporting.  Both are validated against O(N) oracles on
random inputs.
"""

import random

import pytest

from oracles.rangequery import PointRangeTree, brute_force_range
from repro.geometry import Point, Segment, SegmentGrid


def random_segments(rng, n, span=60.0, max_len=9.0):
    out = []
    for _ in range(n):
        a = Point(rng.uniform(-span, span), rng.uniform(-span, span))
        b = Point(
            a.x + rng.uniform(-max_len, max_len),
            a.y + rng.uniform(-max_len, max_len),
        )
        out.append(Segment(a, b))
    return out


class TestSegmentGrid:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("radius", [0.5, 2.0, 7.5])
    def test_query_is_superset_of_true_neighbours(self, seed, radius):
        rng = random.Random(seed)
        segments = random_segments(rng, 80)
        grid = SegmentGrid(cell=radius)
        for i, seg in enumerate(segments):
            grid.insert(seg, i)
        for probe in random_segments(rng, 20):
            hits = set(grid.query_segment(probe, radius))
            for i, seg in enumerate(segments):
                if probe.distance_to_segment(seg) <= radius:
                    assert i in hits, (seed, radius, i)

    @pytest.mark.parametrize("seed", range(6))
    def test_query_bounds_matches_bbox_oracle(self, seed):
        rng = random.Random(100 + seed)
        segments = random_segments(rng, 60)
        grid = SegmentGrid(cell=5.0)
        for i, seg in enumerate(segments):
            grid.insert(seg, i)
        for _ in range(15):
            x0, y0 = rng.uniform(-70, 60), rng.uniform(-70, 60)
            x1, y1 = x0 + rng.uniform(0, 25), y0 + rng.uniform(0, 25)
            expected = [
                i
                for i, seg in enumerate(segments)
                if (lambda b: b[0] <= x1 and x0 <= b[2] and b[1] <= y1 and y0 <= b[3])(
                    seg.bounds()
                )
            ]
            assert grid.query_bounds(x0, y0, x1, y1) == expected

    def test_payloads_come_back_in_insertion_order(self):
        grid = SegmentGrid(cell=4.0)
        segs = [Segment(Point(x, 0), Point(x + 1, 0)) for x in (3.0, 0.0, 1.5)]
        for k, seg in enumerate(segs):
            grid.insert(seg, f"s{k}")
        assert grid.query_bounds(-1, -1, 6, 1) == ["s0", "s1", "s2"]

    @pytest.mark.parametrize("seed", range(6))
    def test_insert_bounds_matches_segment_insert(self, seed):
        # Raw-box insertion is the same indexing segments get — a grid
        # fed seg.bounds() directly must answer every query identically.
        rng = random.Random(200 + seed)
        segments = random_segments(rng, 50)
        by_seg = SegmentGrid(cell=5.0)
        by_box = SegmentGrid(cell=5.0)
        for i, seg in enumerate(segments):
            by_seg.insert(seg, i)
            assert by_box.insert_bounds(seg.bounds(), i) == i
        for _ in range(15):
            x0, y0 = rng.uniform(-70, 60), rng.uniform(-70, 60)
            x1, y1 = x0 + rng.uniform(0, 25), y0 + rng.uniform(0, 25)
            assert by_box.query_bounds(x0, y0, x1, y1) == by_seg.query_bounds(
                x0, y0, x1, y1
            )

    def test_insert_bounds_accepts_degenerate_boxes(self):
        grid = SegmentGrid(cell=2.0)
        grid.insert_bounds((1.0, 1.0, 1.0, 1.0), "pt")
        assert grid.query_bounds(0.0, 0.0, 2.0, 2.0) == ["pt"]
        assert grid.query_bounds(1.5, 1.5, 3.0, 3.0) == []

    def test_default_payload_is_index(self):
        grid = SegmentGrid(cell=1.0)
        assert grid.insert(Segment(Point(0, 0), Point(1, 0))) == 0
        assert grid.query_segment(Segment(Point(0, 0), Point(1, 0)), 0.5) == [0]

    def test_invalid_cell_rejected(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                SegmentGrid(cell=bad)

    def test_len(self):
        grid = SegmentGrid(cell=1.0)
        assert len(grid) == 0
        grid.insert(Segment(Point(0, 0), Point(5, 5)))
        assert len(grid) == 1


class TestPointRangeTreeRandomized:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_points_match_brute_force(self, seed):
        rng = random.Random(seed)
        points = [
            Point(rng.uniform(-50, 50), rng.uniform(-50, 50))
            for _ in range(rng.randint(1, 120))
        ]
        tree = PointRangeTree(points)
        for _ in range(20):
            x0, y0 = rng.uniform(-60, 50), rng.uniform(-60, 50)
            x1, y1 = x0 + rng.uniform(0, 40), y0 + rng.uniform(0, 40)
            assert sorted(tree.query(x0, x1, y0, y1)) == brute_force_range(
                points, x0, x1, y0, y1
            )

    def test_duplicate_coordinates(self):
        rng = random.Random(7)
        points = [
            Point(rng.choice([0.0, 1.0, 2.0]), rng.choice([0.0, 1.0, 2.0]))
            for _ in range(60)
        ]
        tree = PointRangeTree(points)
        for _ in range(10):
            x0, x1 = sorted((rng.uniform(-1, 3), rng.uniform(-1, 3)))
            y0, y1 = sorted((rng.uniform(-1, 3), rng.uniform(-1, 3)))
            assert sorted(tree.query(x0, x1, y0, y1)) == brute_force_range(
                points, x0, x1, y0, y1
            )
