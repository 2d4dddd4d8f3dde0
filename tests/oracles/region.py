"""The per-cell region decomposition loop (test oracle).

This is the seed implementation of :func:`repro.region.decompose`: one
Python pass over the grid cells, and for every cell one
``Segment.distance_to_point`` call per trace segment.  Production
replaced it with the numpy kernel; the equivalence suite compares the
two by ``repr`` — every region, every neighbour list and every exact
distance the kernel keeps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import Point
from repro.model import Board, Trace
from repro.region import Decomposition, Region


def decompose_reference(
    board: Board,
    traces: Sequence[Trace],
    cell: float,
    reach: Optional[float] = None,
) -> Decomposition:
    """Grid decomposition of ``board`` for ``traces``, cell by cell.

    ``distances`` holds the centre-to-path distance of every
    (region, trace) pair where the trace crosses or neighbours the
    region.
    """
    if cell <= 0:
        raise ValueError("cell size must be positive")
    reach = reach if reach is not None else 2.0 * cell
    xmin, ymin, xmax, ymax = board.outline.bounds()
    nx = max(1, int(math.ceil((xmax - xmin) / cell)))
    ny = max(1, int(math.ceil((ymax - ymin) / cell)))

    regions: List[Region] = []
    neighbours: Dict[str, List[int]] = {t.name: [] for t in traces}
    distances: Dict[Tuple[int, str], float] = {}
    segs_per_trace = {t.name: t.segments() for t in traces}

    index = 0
    for iy in range(ny):
        for ix in range(nx):
            cx0 = xmin + ix * cell
            cy0 = ymin + iy * cell
            cx1 = min(cx0 + cell, xmax)
            cy1 = min(cy0 + cell, ymax)
            if cx1 - cx0 <= 0 or cy1 - cy0 <= 0:
                continue
            area = (cx1 - cx0) * (cy1 - cy0)
            blocked = 0.0
            for obstacle in board.obstacles:
                oxmin, oymin, oxmax, oymax = obstacle.bounds()
                ox = max(0.0, min(cx1, oxmax) - max(cx0, oxmin))
                oy = max(0.0, min(cy1, oymax) - max(cy0, oymin))
                blocked += ox * oy
            capacity = max(0.0, area - blocked)
            center = Point((cx0 + cx1) / 2.0, (cy0 + cy1) / 2.0)
            crossed: List[str] = []
            for t in traces:
                half_diag = math.hypot(cx1 - cx0, cy1 - cy0) / 2.0
                dist = min(
                    seg.distance_to_point(center) for seg in segs_per_trace[t.name]
                )
                if dist <= half_diag:
                    crossed.append(t.name)
                if dist <= reach:
                    neighbours[t.name].append(index)
                if dist <= half_diag or dist <= reach:
                    distances[(index, t.name)] = dist
            regions.append(
                Region(
                    index=index,
                    xmin=cx0,
                    ymin=cy0,
                    xmax=cx1,
                    ymax=cy1,
                    capacity=capacity,
                    crossed_by=tuple(crossed),
                )
            )
            index += 1
    return Decomposition(regions=regions, neighbours=neighbours, distances=distances)
