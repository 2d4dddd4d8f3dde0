"""The region-assignment LP — Sec. III, constraints (1)-(3).

Variables ``x_ij`` (space of region ``i`` given to trace ``j``) exist only
for neighbour pairs (constraint (1) pre-eliminates the rest).  The LP

    find x >= 0
    s.t. sum_j x_ij <= Cap_i        (feasibility, Eq. 2)
         sum_i x_ij >= Req_j        (sufficiency, Eq. 3)

is solved with ``scipy.optimize.linprog``; since "find feasible" admits
any objective, we minimise distance-weighted usage so traces prefer the
regions closest to them — which also makes the subsequent cell
integerisation (each cell goes to its dominant user) well behaved.

scipy is imported at the first solve, not with this module: boards that
arrive with routable areas never pay its import time or memory.  The
module-level :func:`linprog` is that import point (and the name tracers
wrap); ``sys.modules`` caches the import after the first call.

The paper's follow-up requirement — "the preserved original routing is
contained in the rouTable area" — is enforced by pinning every cell a
trace's path crosses to that trace before the LP runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..geometry import Polygon, cells_union_boundary
from ..model import Board, DesignRules, Trace
from .capacity import trace_requirement
from .decompose import Decomposition, decompose


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    The import gets its own ``region.scipy_import`` span (as does the
    ``scipy.sparse`` import in :func:`assign_regions`) so a trace does
    not book it as solver time.
    """
    with obs.span("region.scipy_import"):
        from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


class AssignmentInfeasible(RuntimeError):
    """The LP has no feasible assignment (not enough space somewhere).

    The paper defers to rip-up/re-route techniques of prior work in this
    case ([21]); this library surfaces the diagnosis instead.
    """


@dataclass
class Assignment:
    """The solved assignment: fractional LP values plus integerised cells."""

    decomposition: Decomposition
    #: fractional x_ij by (region index, trace name)
    usage: Dict[Tuple[int, str], float]
    #: integerised: trace name -> owned region indices
    cells: Dict[str, List[int]]
    requirements: Dict[str, float]

    def routable_polygons(self) -> Dict[str, List[Polygon]]:
        """Rectilinear routable-area polygons per trace.

        The union boundary of each trace's cells; several polygons appear
        when the cells are disconnected (the caller typically uses the one
        containing the trace).
        """
        out: Dict[str, List[Polygon]] = {}
        for name, idxs in self.cells.items():
            rects = [self.decomposition.region(i).rect() for i in idxs]
            out[name] = cells_union_boundary(rects) if rects else []
        return out


def assign_regions(
    board: Board,
    traces: Sequence[Trace],
    targets: Dict[str, float],
    cell: float,
    rules: Optional[DesignRules] = None,
    reach: Optional[float] = None,
    safety: float = 1.5,
) -> Assignment:
    """Solve the Sec. III assignment problem for ``traces``.

    ``targets`` maps trace name to its group target length; requirements
    come from the length-space relation (``capacity.trace_requirement``).
    Raises :class:`AssignmentInfeasible` when constraints (1)-(3) cannot
    all hold.
    """
    rules = rules or board.rules.default
    with obs.span("region.decompose") as sp:
        deco = decompose(board, traces, cell, reach)
        sp.set(cells=len(deco.regions))
    distances = deco.distances
    requirements = {
        t.name: trace_requirement(t, targets[t.name], rules, safety) for t in traces
    }

    # Pin crossed cells: the original routing must stay inside the area.
    pinned: Dict[int, str] = {}
    for region in deco.regions:
        if len(region.crossed_by) == 1:
            pinned[region.index] = region.crossed_by[0]
        elif len(region.crossed_by) > 1:
            # Shared corridor cell: give it to the closest trace; the cell
            # size should be below the trace pitch to avoid this.
            pinned[region.index] = min(
                region.crossed_by, key=lambda name: distances[(region.index, name)]
            )

    variables: List[Tuple[int, str]] = []
    for t in traces:
        for ridx in deco.neighbours[t.name]:
            if ridx in pinned and pinned[ridx] != t.name:
                continue  # neighbour validity after pinning
            variables.append((ridx, t.name))
    if not variables:
        raise AssignmentInfeasible("no neighbour regions for any trace")
    n_vars = len(variables)

    # Objective: distance-weighted usage.
    costs = 1.0 + np.array([distances[v] for v in variables])

    # Capacity rows: sum_j x_ij <= Cap_i.
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
    # Sufficiency rows: -sum_i x_ij <= -Req_j.
    for t in traces:
        ks = by_trace.get(t.name, [])
        req = requirements[t.name]
        if req <= 0:
            continue
        if not ks:
            raise AssignmentInfeasible(
                f"trace '{t.name}' needs {req:.2f} of space but has no regions"
            )
        rows.extend([len(rhs_ub)] * len(ks))
        cols.extend(ks)
        vals.extend([-1.0] * len(ks))
        rhs_ub.append(-req)
    with obs.span("region.scipy_import"):
        from scipy.sparse import csc_array
    a_ub = csc_array((vals, (rows, cols)), shape=(len(rhs_ub), n_vars))

    with obs.span("region.lp", variables=n_vars, rows=len(rhs_ub)):
        result = linprog(
            c=costs,
            A_ub=a_ub,
            b_ub=np.array(rhs_ub),
            bounds=[(0, None)] * n_vars,
            method="highs",
        )
    if not result.success:
        raise AssignmentInfeasible(f"LP infeasible: {result.message}")

    usage = {
        variables[k]: float(result.x[k])
        for k in range(n_vars)
        if result.x[k] > 1e-9
    }

    # Integerise: every cell goes to its dominant user; pinned cells stay
    # pinned; cells nobody uses stay unassigned.
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
    return Assignment(
        decomposition=deco,
        usage=usage,
        cells=cells,
        requirements=requirements,
    )


def apply_assignment(board: Board, assignment: Assignment) -> None:
    """Store each trace's routable polygon on the board.

    Picks, per trace, the boundary polygon that contains the trace path's
    midpoint (cells may integerise into several islands).
    """
    with obs.span("region.apply", traces=len(assignment.cells)):
        polys = assignment.routable_polygons()
        for name, candidates in polys.items():
            if not candidates:
                continue
            trace = board.trace_by_name(name)
            mid = trace.path.point_at_arclength(trace.length() / 2.0)
            chosen = None
            for poly in candidates:
                if poly.contains_point(mid):
                    chosen = poly
                    break
            if chosen is None:
                chosen = max(candidates, key=lambda p: p.area())
            board.set_routable_area(name, chosen)
