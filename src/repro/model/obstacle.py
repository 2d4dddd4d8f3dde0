"""Obstacles: polygons traces may not cross.

Vias, pads, keepouts and mounting holes all reduce to simple polygons for
the router; the paper converts each obstacle "into a part of the routable
area" — concretely, its inflated hull participates in URA shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Point, Polygon, rectangle, regular_polygon


@dataclass(frozen=True)
class Obstacle:
    """A polygonal keep-out with an optional semantic kind."""

    polygon: Polygon
    kind: str = "keepout"
    name: str = ""

    def inflated(self, margin: float) -> Polygon:
        """The obstacle hull grown by ``margin`` (0 returns the original)."""
        if margin <= 0:
            return self.polygon
        return self.polygon.inflated(margin)

    def contains(self, p: Point) -> bool:
        return self.polygon.contains_point(p)

    def bounds(self):
        return self.polygon.bounds()


def via(center: Point, radius: float, sides: int = 8, name: str = "") -> Obstacle:
    """A via/pad obstacle modelled as a regular polygon (octagon default)."""
    return Obstacle(regular_polygon(center, radius, sides), kind="via", name=name)


def rect_keepout(
    xmin: float, ymin: float, xmax: float, ymax: float, name: str = ""
) -> Obstacle:
    """A rectangular keep-out region."""
    return Obstacle(rectangle(xmin, ymin, xmax, ymax), kind="keepout", name=name)
