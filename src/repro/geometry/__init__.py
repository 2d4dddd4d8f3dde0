"""Computational-geometry substrate.

Everything the router needs from a geometry engine, implemented from
scratch: points, segments, polylines, simple polygons, segment-local
frames, spatial hashing and composite operations (offsets,
clearances, rectilinear unions).
"""

from .primitives import EPS, ORIGIN, Point, almost_equal, centroid, clamp, orientation
from .segment import (
    Segment,
    angle_between,
    collinear_overlap,
    segment_crosses_horizontal_line,
    segment_crosses_vertical_line,
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
from .spatialhash import SegmentGrid, bounds_overlap
from .ops import (
    cells_union_boundary,
    offset_polyline,
    polyline_inside_polygon,
    polyline_min_clearance,
    polyline_self_clearance,
    polyline_to_polygon_clearance,
    resample_polyline,
)

__all__ = [
    "EPS",
    "ORIGIN",
    "Point",
    "almost_equal",
    "centroid",
    "clamp",
    "orientation",
    "Segment",
    "angle_between",
    "collinear_overlap",
    "segment_crosses_horizontal_line",
    "segment_crosses_vertical_line",
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
    "SegmentGrid",
    "bounds_overlap",
    "cells_union_boundary",
    "offset_polyline",
    "polyline_inside_polygon",
    "polyline_min_clearance",
    "polyline_self_clearance",
    "polyline_to_polygon_clearance",
    "resample_polyline",
]
