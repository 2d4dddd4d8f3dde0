"""The region stage's per-cell loops (test oracles).

:func:`decompose_reference` is the seed implementation of
:func:`repro.region.decompose`: one Python pass over the grid cells, and
for every cell one ``Segment.distance_to_point`` call per trace segment.
Production replaced it with the numpy kernel; the equivalence suite
compares the two by ``repr`` — every region, every neighbour list and
every exact distance the kernel keeps.

:func:`lp_inputs_reference` and :func:`integerise_reference` are the
dict-and-list LP assembly and integerisation that
:func:`repro.region.assign_regions` replaced with array operations; the
suite checks that the arrays hand HiGHS the same problem and turn its
answer into the same cells.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csc_array

from repro.geometry import Point
from repro.model import Board, Trace
from repro.region import Decomposition, Region
from repro.region.decompose import Pairs


def decompose_reference(
    board: Board,
    traces: Sequence[Trace],
    cell: float,
    reach: Optional[float] = None,
) -> Decomposition:
    """Grid decomposition of ``board`` for ``traces``, cell by cell.

    ``distances`` holds the centre-to-path distance of every
    (region, trace) pair where the trace crosses or neighbours the
    region.  The loop's regions are packed into the array form the
    production :class:`Decomposition` holds, and the packing is checked
    to give them back by ``repr``.
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
    columns: Tuple[List[float], List[float]] = ([], [])
    rows: Tuple[List[float], List[float]] = ([], [])

    index = 0
    for iy in range(ny):
        for ix in range(nx):
            cx0 = xmin + ix * cell
            cy0 = ymin + iy * cell
            cx1 = min(cx0 + cell, xmax)
            cy1 = min(cy0 + cell, ymax)
            if cx1 - cx0 <= 0 or cy1 - cy0 <= 0:
                continue
            if iy == 0:
                columns[0].append(cx0)
                columns[1].append(cx1)
            if ix == 0:
                rows[0].append(cy0)
                rows[1].append(cy1)
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

    pairs = [  # (trace, cell, distance, crossed, neighbour), trace by trace
        (j, i, distances[(i, t.name)], t.name in regions[i].crossed_by,
         i in neighbours[t.name])
        for j, t in enumerate(traces)
        for i in sorted(i for (i, name) in distances if name == t.name)
    ]
    columns_of = list(zip(*pairs)) if pairs else [()] * 5
    deco = Decomposition(
        columns=columns,
        rows=rows,
        capacity=np.array([r.capacity for r in regions], dtype=np.float64),
        traces=tuple(t.name for t in traces),
        pairs=Pairs(
            np.array(columns_of[0], dtype=np.int64),
            np.array(columns_of[1], dtype=np.int64),
            np.array(columns_of[2], dtype=np.float64),
            np.array(columns_of[3], dtype=bool),
            np.array(columns_of[4], dtype=bool),
        ),
    )
    assert repr(deco.regions) == repr(regions)
    assert deco.neighbours == neighbours
    assert deco.distances == distances
    return deco


def lp_inputs_reference(
    deco: Decomposition,
    traces: Sequence[Trace],
    requirements: Dict[str, float],
):
    """The LP as the dict-and-list assembly built it.

    Returns ``(pinned, variables, costs, a_ub, b_ub)``: the cell -> trace
    pins, the ``(region index, trace name)`` of every variable in order,
    and the ``linprog`` inputs (the bounds were one ``(0, None)`` per
    variable).  Raises ``ValueError`` where production raises
    ``AssignmentInfeasible``.
    """
    distances = deco.distances
    pinned: Dict[int, str] = {}
    for region in deco.regions:
        if len(region.crossed_by) == 1:
            pinned[region.index] = region.crossed_by[0]
        elif len(region.crossed_by) > 1:
            pinned[region.index] = min(
                region.crossed_by, key=lambda name: distances[(region.index, name)]
            )

    variables: List[Tuple[int, str]] = []
    for t in traces:
        for ridx in deco.neighbours[t.name]:
            if ridx in pinned and pinned[ridx] != t.name:
                continue
            variables.append((ridx, t.name))
    if not variables:
        raise ValueError("no neighbour regions for any trace")
    n_vars = len(variables)
    costs = 1.0 + np.array([distances[v] for v in variables])

    by_region: Dict[int, List[int]] = {}
    by_trace: Dict[str, List[int]] = {}
    for k, (ridx, name) in enumerate(variables):
        by_region.setdefault(ridx, []).append(k)
        by_trace.setdefault(name, []).append(k)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    rhs_ub: List[float] = []
    for ridx, ks in by_region.items():
        rows.extend([len(rhs_ub)] * len(ks))
        cols.extend(ks)
        vals.extend([1.0] * len(ks))
        rhs_ub.append(deco.region(ridx).capacity)
    for t in traces:
        ks = by_trace.get(t.name, [])
        req = requirements[t.name]
        if req <= 0:
            continue
        if not ks:
            raise ValueError(f"trace '{t.name}' has no regions")
        rows.extend([len(rhs_ub)] * len(ks))
        cols.extend(ks)
        vals.extend([-1.0] * len(ks))
        rhs_ub.append(-req)
    a_ub = csc_array((vals, (rows, cols)), shape=(len(rhs_ub), n_vars))
    return pinned, variables, costs, a_ub, np.array(rhs_ub)


def integerise_reference(
    traces: Sequence[Trace],
    pinned: Dict[int, str],
    variables: List[Tuple[int, str]],
    x: np.ndarray,
):
    """``(usage, cells)`` from the LP solution, claim by claim: every cell
    goes to its first largest user in variable order, pinned cells to
    their pin."""
    usage = {
        variables[k]: float(x[k]) for k in range(len(variables)) if x[k] > 1e-9
    }
    cells: Dict[str, List[int]] = {t.name: [] for t in traces}
    claimed: Dict[int, Tuple[str, float]] = {}
    for (ridx, name), amount in usage.items():
        cur = claimed.get(ridx)
        if cur is None or amount > cur[1]:
            claimed[ridx] = (name, amount)
    for ridx, owner in pinned.items():
        claimed[ridx] = (owner, math.inf)
    for ridx, (owner, _) in claimed.items():
        cells[owner].append(ridx)
    for name in cells:
        cells[name].sort()
    return usage, cells
