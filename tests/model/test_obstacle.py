"""Unit tests for obstacles."""

import math

from repro.geometry import Point
from repro.model import rect_keepout, via


class TestVia:
    def test_octagonal_by_default(self):
        v = via(Point(0, 0), 2.0)
        assert len(v.polygon) == 8
        assert v.kind == "via"

    def test_contains_center(self):
        assert via(Point(3, 4), 1.0).contains(Point(3, 4))

    def test_bounds(self):
        b = via(Point(0, 0), 1.0).bounds()
        assert b[0] >= -1.0 - 1e-9 and b[2] <= 1.0 + 1e-9

    def test_inflated_grows(self):
        v = via(Point(0, 0), 1.0)
        assert v.inflated(0.5).area() > v.polygon.area()

    def test_inflated_zero_identity(self):
        v = via(Point(0, 0), 1.0)
        assert v.inflated(0.0) is v.polygon


class TestRectKeepout:
    def test_kind(self):
        assert rect_keepout(0, 0, 1, 1).kind == "keepout"

    def test_area(self):
        assert math.isclose(rect_keepout(0, 0, 2, 3).polygon.area(), 6.0)
