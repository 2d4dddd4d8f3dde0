"""Unit tests for traces."""

import pytest

from repro.geometry import Point, Polyline
from repro.model import Trace


@pytest.fixture
def bent() -> Trace:
    return Trace("t", Polyline([Point(0, 0), Point(3, 0), Point(3, 4)]), width=1.0)


class TestTrace:
    def test_length(self, bent):
        assert bent.length() == 7

    def test_validates_width(self):
        with pytest.raises(ValueError):
            Trace("t", Polyline([Point(0, 0), Point(1, 0)]), width=0)

    def test_endpoints(self, bent):
        assert bent.start == Point(0, 0) and bent.end == Point(3, 4)

    def test_segments(self, bent):
        assert len(bent.segments()) == 2

    def test_with_path_keeps_identity(self, bent):
        new = bent.with_path(Polyline([Point(0, 0), Point(10, 0)]))
        assert new.name == bent.name and new.width == bent.width
        assert new.length() == 10

    def test_immutable(self, bent):
        with pytest.raises(Exception):
            bent.width = 3


class TestEndpointsMatch:
    def test_same_endpoints(self, bent):
        meandered = bent.with_path(
            Polyline([Point(0, 0), Point(1, 0), Point(1, 2), Point(3, 2), Point(3, 4)])
        )
        assert bent.endpoints_match(meandered)

    def test_moved_endpoint_detected(self, bent):
        moved = bent.with_path(Polyline([Point(0, 0.1), Point(3, 4)]))
        assert not bent.endpoints_match(moved)
