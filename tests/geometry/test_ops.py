"""Unit tests for repro.geometry.ops."""

import math

from repro.geometry import (
    Point,
    Polyline,
    cells_union_boundary,
    offset_polyline,
    polyline_from_pairs,
    polyline_inside_polygon,
    rectangle,
)


class TestOffset:
    def test_straight_offset_parallel(self):
        line = polyline_from_pairs([(0, 0), (10, 0)])
        off = offset_polyline(line, 2.0)
        assert off.start.almost_equals(Point(0, 2)) and off.end.almost_equals(Point(10, 2))

    def test_negative_offset_right_side(self):
        line = polyline_from_pairs([(0, 0), (10, 0)])
        off = offset_polyline(line, -2.0)
        assert off.start.almost_equals(Point(0, -2))

    def test_zero_offset_identity(self):
        line = polyline_from_pairs([(0, 0), (10, 0)])
        assert offset_polyline(line, 0.0) is line

    def test_right_angle_miter(self):
        line = polyline_from_pairs([(0, 0), (10, 0), (10, 10)])
        off = offset_polyline(line, 1.0)
        # Left offset of a left turn: inner corner at (9, 1).
        assert any(p.almost_equals(Point(9, 1), 1e-9) for p in off.points)

    def test_offset_length_symmetry_around_pattern(self):
        # A convex pattern's signed turns cancel; both offsets keep length.
        line = polyline_from_pairs([(0, 0), (10, 0), (10, 5), (14, 5), (14, 0), (30, 0)])
        assert math.isclose(offset_polyline(line, 1.0).length(), line.length())
        assert math.isclose(offset_polyline(line, -1.0).length(), line.length())

    def test_offset_distance_maintained_on_straights(self):
        line = polyline_from_pairs([(0, 0), (10, 0), (10, 10)])
        off = offset_polyline(line, 1.5)
        d = min(
            s.distance_to_point(Point(5, 1.5)) for s in line.segments()
        )
        assert math.isclose(d, 1.5)


class TestContainment:
    def test_inside(self):
        line = polyline_from_pairs([(1, 1), (9, 1), (9, 9)])
        assert polyline_inside_polygon(line, rectangle(0, 0, 10, 10))

    def test_node_outside(self):
        line = polyline_from_pairs([(1, 1), (11, 1)])
        assert not polyline_inside_polygon(line, rectangle(0, 0, 10, 10))

    def test_crossing_concave_region(self):
        # Both endpoints inside an L-shape, segment crossing the notch.
        from repro.geometry import Polygon

        l_shape = Polygon(
            [Point(0, 0), Point(3, 0), Point(3, 1), Point(1, 1), Point(1, 3), Point(0, 3)]
        )
        line = polyline_from_pairs([(0.5, 2.5), (2.5, 0.5)])
        assert not polyline_inside_polygon(line, l_shape)


class TestCellUnion:
    def test_single_cell(self):
        polys = cells_union_boundary([(0, 0, 1, 1)])
        assert len(polys) == 1
        assert math.isclose(polys[0].area(), 1.0)

    def test_two_adjacent_cells_merge(self):
        polys = cells_union_boundary([(0, 0, 1, 1), (1, 0, 2, 1)])
        assert len(polys) == 1
        assert math.isclose(polys[0].area(), 2.0)

    def test_square_block(self):
        cells = [(x, y, x + 1, y + 1) for x in range(3) for y in range(3)]
        polys = cells_union_boundary(cells)
        assert len(polys) == 1
        assert math.isclose(polys[0].area(), 9.0)
        # Collinear boundary nodes merged: a 3x3 block is just a square.
        assert len(polys[0]) == 4

    def test_disconnected_cells(self):
        polys = cells_union_boundary([(0, 0, 1, 1), (5, 5, 6, 6)])
        assert len(polys) == 2

    def test_l_shaped_block(self):
        cells = [(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2)]
        polys = cells_union_boundary(cells)
        assert len(polys) == 1
        assert math.isclose(polys[0].area(), 3.0)

    def test_contains_cell_interiors(self):
        cells = [(0, 0, 2, 1), (0, 1, 1, 2)]
        polys = cells_union_boundary(cells)
        poly = polys[0]
        assert poly.contains_point(Point(1.5, 0.5))
        assert poly.contains_point(Point(0.5, 1.5))
        assert not poly.contains_point(Point(1.5, 1.5))
