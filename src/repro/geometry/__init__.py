"""Computational-geometry substrate.

Everything the router needs from a geometry engine, implemented from
scratch: points, segments, polylines, simple polygons, segment-local
frames and composite operations (offsets, containment, rectilinear
unions).
"""

from .primitives import EPS, ORIGIN, Point, centroid, clamp, orientation
from .segment import (
    Segment,
    collinear_overlap,
    segment_intersection_point,
    segments_intersect,
)
from .polyline import Polyline, polyline_from_pairs
from .polygon import (
    Polygon,
    convex_hull,
    oriented_rectangle,
    rectangle,
    regular_polygon,
)
from .transform import Frame, Rotation, rotation_about
from .ops import (
    cells_union_boundaries,
    cells_union_boundary,
    offset_polyline,
    polyline_inside_polygon,
)

__all__ = [
    "EPS",
    "ORIGIN",
    "Point",
    "centroid",
    "clamp",
    "orientation",
    "Segment",
    "collinear_overlap",
    "segment_intersection_point",
    "segments_intersect",
    "Polyline",
    "polyline_from_pairs",
    "Polygon",
    "convex_hull",
    "oriented_rectangle",
    "rectangle",
    "regular_polygon",
    "Frame",
    "Rotation",
    "rotation_about",
    "cells_union_boundaries",
    "cells_union_boundary",
    "offset_polyline",
    "polyline_inside_polygon",
]
