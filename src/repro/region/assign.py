"""The region-assignment LP — Sec. III, constraints (1)-(3).

Variables ``x_ij`` (space of region ``i`` given to trace ``j``) exist only
for neighbour pairs (constraint (1) pre-eliminates the rest).  The LP

    find x >= 0
    s.t. sum_j x_ij <= Cap_i        (feasibility, Eq. 2)
         sum_i x_ij >= Req_j        (sufficiency, Eq. 3)

admits any objective; we minimise distance-weighted usage so traces
prefer the regions closest to them — which also makes the subsequent
cell integerisation (each cell goes to its dominant user) well behaved.

When every cell has one variable (no cell neighbours two traces once
crossed cells are pinned) the LP splits into one fractional knapsack per
trace, and :func:`_fill_cheapest_first` solves it in closed form: each
trace fills its cells cheapest first.  That fill is the unique optimum
when the marginal cell's cost stands clear of its neighbours'; within
:data:`TIE_MARGIN` of a tie, on an unreachable requirement and on every
coupled LP, ``scipy.optimize.linprog(method="highs")`` solves it with
the same inputs as ever.

scipy is imported at the first HiGHS solve, not with this module: boards
that arrive with routable areas, or whose LP the closed form solves,
never pay its import time or memory.  The module-level :func:`linprog`
is that import point (and the name tracers wrap); ``sys.modules`` caches
the import after the first call.  The ``region.lp`` span names the
``solver`` that answered, ``closed_form`` or ``highs``.

The paper's follow-up requirement — "the preserved original routing is
contained in the rouTable area" — is enforced by pinning every cell a
trace's path crosses to that trace before the LP runs.

Pins, variables, the LP matrix and the integerisation are array
operations over the decomposition's (trace, cell) pairs; the loops they
replaced are kept in ``tests/oracles/region.py``, which the tests hold
them to bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..geometry import Polygon, cells_union_boundaries
from ..model import Board, DesignRules, Trace
from .capacity import trace_requirement
from .decompose import Decomposition, decompose


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    The import gets its own ``region.scipy_import`` span (as does the
    ``scipy.sparse`` import in :func:`_solve_with_highs`) so a trace
    does not book it as solver time.
    """
    with obs.span("region.scipy_import"):
        from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


#: Smallest cost gap between a trace's marginal cell and its neighbours in
#: cost order for which :func:`_fill_cheapest_first` answers instead of
#: HiGHS.  HiGHS accepts a vertex as optimal once no reduced cost is below
#: -1e-7 (its dual feasibility tolerance), so where two cells' costs are
#: closer than that it may fill the dearer one first.  1e-5 leaves a factor
#: of 100 above that tolerance; the smallest marginal gap on the 48
#: ``unassigned_mixed_12`` boards of perfbench is 7.4e-4, 74 times larger.
TIE_MARGIN = 1e-5


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
        rects = [self.decomposition.rects(idxs) for idxs in self.cells.values()]
        return dict(zip(self.cells, cells_union_boundaries(rects)))


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
    names = deco.traces
    requirements = {
        t.name: trace_requirement(t, targets[t.name], rules, safety) for t in traces
    }
    pairs = deco.pairs
    n_cells = len(deco.capacity)

    # Pin crossed cells: the original routing must stay inside the area.
    # A shared corridor cell goes to the closest crossing trace, the
    # first in trace order on a tie; the cell size should be below the
    # trace pitch to avoid this.
    crossed = np.flatnonzero(pairs.crossed)
    crossed = crossed[np.lexsort((pairs.distance[crossed], pairs.cell[crossed]))]
    first = np.diff(pairs.cell[crossed], prepend=-1) != 0
    pinned = np.full(n_cells, -1)
    pinned[pairs.cell[crossed[first]]] = pairs.trace[crossed[first]]

    # Variables x_ij, trace by trace, each trace's cells ascending; a cell
    # pinned to another trace is no valid neighbour.
    pin = pinned[pairs.cell]
    valid = pairs.neighbour & ((pin < 0) | (pin == pairs.trace))
    var_cell, var_trace = pairs.cell[valid], pairs.trace[valid]
    n_vars = len(var_cell)
    if not n_vars:
        raise AssignmentInfeasible("no neighbour regions for any trace")
    counts = np.bincount(var_trace, minlength=len(names))

    # Objective: distance-weighted usage.
    costs = 1.0 + pairs.distance[valid]

    # Capacity rows: sum_j x_ij <= Cap_i, one per cell in the order its
    # first variable appears.  Sufficiency rows: -sum_i x_ij <= -Req_j,
    # one for each trace that needs space.
    cells, first_var = np.unique(var_cell, return_index=True)
    row_cells = cells[np.argsort(first_var)]
    req = np.array([requirements[name] for name in names])
    needs = req > 0
    if (needs & (counts == 0)).any():
        j = int(np.flatnonzero(needs & (counts == 0))[0])
        raise AssignmentInfeasible(
            f"trace '{names[j]}' needs {req[j]:.2f} of space but has no regions"
        )
    n_rows = len(row_cells) + int(needs.sum())

    with obs.span("region.lp", variables=n_vars, rows=n_rows) as sp:
        x = None
        if len(row_cells) == n_vars:
            x = _fill_cheapest_first(costs, deco.capacity[var_cell], counts, req)
        sp.set(solver="highs" if x is None else "closed_form")
        if x is None:
            x = _solve_with_highs(
                costs, var_cell, var_trace, counts, req, row_cells, deco.capacity
            )
    usage, cells_of = _integerise(x, var_cell, var_trace, pinned, names)
    return Assignment(
        decomposition=deco,
        usage=usage,
        cells=cells_of,
        requirements=requirements,
    )


def _fill_cheapest_first(
    costs: np.ndarray, caps: np.ndarray, counts: np.ndarray, req: np.ndarray
) -> Optional[np.ndarray]:
    """The LP's ``x`` when every cell has one variable, or ``None``.

    With one variable per cell the capacity rows are bounds ``0 <= x <=
    Cap`` and the LP splits into one fractional knapsack per trace.
    Costs are positive, so a trace with no need uses nothing, and a
    trace that needs space takes its cells cheapest first (stable in
    variable order): full ``Cap`` up to the marginal cell, where the
    running capacity reaches ``Req``, which gets the remainder.  When the
    marginal cell's cost is strictly apart from both of its neighbours
    in that order, this fill is the unique optimum.

    Returns ``None``, and leaves the LP to HiGHS, where a requirement is
    out of reach (so the infeasibility diagnosis stays HiGHS's) or the
    marginal cell sits within :data:`TIE_MARGIN` of a neighbour (where
    HiGHS may pick another optimum).  ``counts`` are the variables per
    trace, which come trace by trace.
    """
    x = np.zeros(len(costs))
    ends = np.cumsum(counts)
    for j in np.flatnonzero(req > 0):
        lo = ends[j] - counts[j]
        order = lo + np.argsort(costs[lo : ends[j]], kind="stable")
        cum = np.cumsum(caps[order])
        m = int(np.searchsorted(cum, req[j]))
        if m == len(order):
            return None
        near = costs[order[max(m - 1, 0) : m + 2]]
        if (np.diff(near) <= TIE_MARGIN).any():
            return None
        x[order[:m]] = caps[order[:m]]
        x[order[m]] = req[j] - cum[m - 1] if m else req[j]
    return x


def _solve_with_highs(
    costs: np.ndarray,
    var_cell: np.ndarray,
    var_trace: np.ndarray,
    counts: np.ndarray,
    req: np.ndarray,
    row_cells: np.ndarray,
    capacity: np.ndarray,
) -> np.ndarray:
    """The LP's ``x`` from ``linprog(method="highs")``.

    Each capacity row lists its variables ascending; each sufficiency
    row lists its trace's variables.
    """
    n_vars = len(var_cell)
    needs = req > 0
    row_of_cell = np.empty(len(capacity), dtype=np.int64)
    row_of_cell[row_cells] = np.arange(len(row_cells))
    var_row = row_of_cell[var_cell]
    cap_cols = np.argsort(var_row, kind="stable")
    suff_cols = np.flatnonzero(needs[var_trace])
    n_rows = len(row_cells) + int(needs.sum())
    rows = np.concatenate(
        (
            var_row[cap_cols],
            len(row_cells) + np.repeat(np.arange(needs.sum()), counts[needs]),
        )
    )
    cols = np.concatenate((cap_cols, suff_cols))
    vals = np.concatenate((np.ones(n_vars), np.full(len(suff_cols), -1.0)))
    b_ub = np.concatenate((capacity[row_cells], -req[needs]))
    with obs.span("region.scipy_import"):
        from scipy.sparse import csc_array
    a_ub = csc_array((vals, (rows, cols)), shape=(n_rows, n_vars))
    result = linprog(c=costs, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise AssignmentInfeasible(f"LP infeasible: {result.message}")
    return result.x


def _integerise(
    x: np.ndarray,
    var_cell: np.ndarray,
    var_trace: np.ndarray,
    pinned: np.ndarray,
    names: Sequence[str],
) -> Tuple[Dict[Tuple[int, str], float], Dict[str, List[int]]]:
    """``(usage, cells)`` from the LP values.

    Every cell goes to its dominant user, the first largest amount in
    variable order; pinned cells stay pinned; cells nobody uses stay
    unassigned.
    """
    used = np.flatnonzero(x > 1e-9)
    amounts = x[used]
    usage = dict(
        zip(
            zip(var_cell[used].tolist(), [names[j] for j in var_trace[used].tolist()]),
            amounts.tolist(),
        )
    )
    used_cell = var_cell[used]
    order = np.lexsort((used, -amounts, used_cell))
    dominant = order[np.diff(used_cell[order], prepend=-1) != 0]
    owner = np.full(len(pinned), -1)
    owner[used_cell[dominant]] = var_trace[used][dominant]
    owner[pinned >= 0] = pinned[pinned >= 0]
    owned = np.flatnonzero(owner >= 0)
    by_owner = owned[np.argsort(owner[owned], kind="stable")]
    bounds = np.cumsum(np.bincount(owner[owned], minlength=len(names)))
    cells_of = np.split(by_owner, bounds[:-1])
    return usage, {name: c.tolist() for name, c in zip(names, cells_of)}


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
