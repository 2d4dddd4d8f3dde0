"""UnReachable Areas (URAs).

The URA of a segment is "a rectangle whose border is half of d_gap away
from the segment" (Fig. 6); the URA of a pattern is the union of its three
segments' URAs, a U-shaped region.  DRC during extension is exactly
"no other polygon intersects the URA", which the shrinker enforces by
moving the URA's outer border down until clean.

In the segment-local frame everything is axis-aligned:

* outer border ``ABCD``: ``[x1-g, x2+g] x [0, h_ob]`` with ``A`` bottom-left,
  ``B`` top-left (side ``AB``), ``C`` top-right (hat ``BC``), ``D``
  bottom-right (side ``CD``);
* inner border ``EFGH``: ``[x1+g, x2-g] x [0, h_ob - 2g]`` — the hole of
  the U, where obstacles may legally remain (the pattern routes around
  them);
* the region below ``AD`` (y < 0) is never checked: the URA of the
  original segment lies there, so no foreign polygon can.

``g`` folds the trace width into the clearance: ``g = (d_gap + width)/2``
so that two URAs touching means *edge-to-edge* copper clearance d_gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..geometry import Frame, Point, Polygon


@dataclass(frozen=True)
class URA:
    """The axis-aligned URA of a candidate pattern in its local frame."""

    x_left: float    # left foot abscissa (x1)
    x_right: float   # right foot abscissa (x2)
    g: float         # clearance half-width, (d_gap + width) / 2
    h_ob: float      # current outer-border height

    def __post_init__(self) -> None:
        if self.x_right <= self.x_left:
            raise ValueError("URA needs x_left < x_right")
        if self.g <= 0:
            raise ValueError("URA clearance must be positive")

    # -- borders -------------------------------------------------------------

    def outer_rect(self) -> Tuple[float, float, float, float]:
        """Outer border as (xmin, ymin, xmax, ymax)."""
        return (self.x_left - self.g, 0.0, self.x_right + self.g, self.h_ob)

    def inner_rect(self) -> Tuple[float, float, float, float]:
        """Inner border as (xmin, ymin, xmax, ymax); may be empty/inverted
        for narrow or shallow patterns (then nothing fits inside)."""
        return (
            self.x_left + self.g,
            0.0,
            self.x_right - self.g,
            self.h_ob - 2.0 * self.g,
        )

    def pattern_height(self) -> float:
        """The pattern height this outer border admits (Eq. 10)."""
        return max(0.0, self.h_ob - self.g)

    # -- point classification ----------------------------------------------------

    def point_inside_outer(self, p: Point, eps: float = 1e-7) -> bool:
        """Strictly inside the outer border (touching does not count:
        a polygon touching the border meets clearance exactly)."""
        xmin, _, xmax, ymax = self.outer_rect()
        return (
            xmin + eps < p.x < xmax - eps and eps < p.y < ymax - eps
        )

    def point_inside_inner(self, p: Point, eps: float = 1e-7) -> bool:
        """Inside the inner border with tolerant boundaries (touching the
        inner border from inside still clears the pattern copper)."""
        xmin, _, xmax, ymax = self.inner_rect()
        return (
            xmin - eps <= p.x <= xmax + eps and p.y <= ymax + eps
        )

    # -- polygons -----------------------------------------------------------------

    def arm_polygons(self) -> List[Polygon]:
        """The three rectangles whose union is the pattern URA.

        Used when the URA of an *applied* pattern must participate in later
        shrinking runs as foreign geometry; intersecting the union equals
        intersecting any member.
        """
        h = self.pattern_height()
        xl, xr, g = self.x_left, self.x_right, self.g
        rects = [
            (xl - g, -g, xl + g, h + g),  # left leg URA
            (xr - g, -g, xr + g, h + g),  # right leg URA
            (xl - g, h - g, xr + g, h + g),  # hat URA
        ]
        return [
            Polygon(
                [
                    Point(xmin, ymin),
                    Point(xmax, ymin),
                    Point(xmax, ymax),
                    Point(xmin, ymax),
                ]
            )
            for (xmin, ymin, xmax, ymax) in rects
        ]

    def outer_polygon(self) -> Polygon:
        """The outer border as a polygon (visualisation / tests)."""
        xmin, ymin, xmax, ymax = self.outer_rect()
        return Polygon(
            [Point(xmin, ymin), Point(xmax, ymin), Point(xmax, ymax), Point(xmin, ymax)]
        )

    def to_world(self, frame: Frame) -> List[Polygon]:
        """Arm polygons mapped into the world frame."""
        return [frame.polygon_to_world(p) for p in self.arm_polygons()]
