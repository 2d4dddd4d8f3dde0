"""Unit tests for the Sec. IV-D range tree (the oracle shrink environment's
node index, ``tests/oracles/rangequery.py``)."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles.rangequery import PointRangeTree, brute_force_range
from repro.geometry import Point

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


class TestBasics:
    def test_empty_tree(self):
        tree = PointRangeTree([])
        assert tree.query(-1, 1, -1, 1) == []
        assert len(tree) == 0

    def test_single_point_hit(self):
        tree = PointRangeTree([Point(0, 0)])
        assert tree.query(-1, 1, -1, 1) == [0]

    def test_single_point_miss_x(self):
        tree = PointRangeTree([Point(5, 0)])
        assert tree.query(-1, 1, -1, 1) == []

    def test_single_point_miss_y(self):
        tree = PointRangeTree([Point(0, 5)])
        assert tree.query(-1, 1, -1, 1) == []

    def test_grid_window(self):
        pts = [Point(x, y) for x in range(5) for y in range(5)]
        tree = PointRangeTree(pts)
        hits = tree.query(1, 3, 1, 3)
        assert len(hits) == 9

    def test_inclusive_boundaries(self):
        tree = PointRangeTree([Point(1, 1)])
        assert tree.query(1, 1, 1, 1) == [0]

    def test_inverted_window_empty(self):
        tree = PointRangeTree([Point(0, 0)])
        assert tree.query(1, -1, -1, 1) == []

    def test_query_points_returns_points(self):
        pts = [Point(0, 0), Point(2, 2)]
        tree = PointRangeTree(pts)
        assert tree.query_points(-1, 1, -1, 1) == [Point(0, 0)]

    def test_duplicate_points_all_reported(self):
        pts = [Point(1, 1), Point(1, 1), Point(1, 1)]
        tree = PointRangeTree(pts)
        assert sorted(tree.query(0, 2, 0, 2)) == [0, 1, 2]


class TestAgainstBruteForce:
    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(coords, coords), min_size=0, max_size=60),
        coords,
        coords,
        coords,
        coords,
    )
    def test_matches_brute_force(self, pts, x1, x2, y1, y2):
        points = [Point(x, y) for x, y in pts]
        xmin, xmax = min(x1, x2), max(x1, x2)
        ymin, ymax = min(y1, y2), max(y1, y2)
        tree = PointRangeTree(points)
        expected = sorted(brute_force_range(points, xmin, xmax, ymin, ymax))
        assert sorted(tree.query(xmin, xmax, ymin, ymax)) == expected

    def test_large_structured_set(self):
        points = [Point(i % 37, (i * 7) % 31) for i in range(500)]
        tree = PointRangeTree(points)
        expected = sorted(brute_force_range(points, 5, 20, 3, 17))
        assert sorted(tree.query(5, 20, 3, 17)) == expected
