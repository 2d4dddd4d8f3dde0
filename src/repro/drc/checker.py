"""Design-rule checking.

The checker is the library's ground-truth oracle: the router's unit and
integration tests assert that every meandered result passes these checks,
and the extension loop re-validates applied patterns against them
(rollback on failure keeps the adjacent-URA approximation honest: the
extension loop trims the URAs of the segments next to the one it extends,
which can let a cross-structure ``d_gap`` conflict through unless the
applied result is re-checked).

All clearances are *edge-to-edge*: a centreline measurement passes when it
exceeds the rule plus the relevant copper half-widths.

:func:`check_board` runs exact tests only on the candidate pairs one
numpy sort-and-sweep over every segment and obstacle box reports (see
:func:`_clearance_candidates`).  It emits the identical violation set,
in the identical order, as the all-pairs sweep kept in the test oracles:
each check's candidates are a superset of its pairs within clearance,
visited in the all-pairs index order, and the exact measurements use the
same arithmetic (see PERFORMANCE.md).  Non-finite geometry is refused.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..geometry import Point, Polygon, polyline_inside_polygon
from ..model import Board, DesignRules, DifferentialPair, Obstacle, Trace
from .violations import DrcReport, Violation, ViolationKind

#: Numerical slack: measurements may sit exactly on the rule, so a tiny
#: tolerance keeps exact-by-construction geometry from being flagged.
SLACK = 1e-6

#: Candidate index pairs for one check, ascending; ``None`` = scan all.
Candidates = Optional[Iterable[Tuple[int, int]]]


def check_segment_lengths(
    trace: Trace, rules: DesignRules, report: Optional[DrcReport] = None
) -> DrcReport:
    """Flag segments shorter than ``d_protect``.

    Zero-length segments are collapsed by ``Polyline.simplified`` before
    routing, so any remaining short segment is a real rule breach — except
    miter cuts: when ``d_miter`` is configured, the diagonal segments it
    introduces measure ``sqrt(2) * d_miter`` and are exempt by definition
    (the rule exists precisely to create them).
    """
    report = report if report is not None else DrcReport()
    miter_cut = math.sqrt(2.0) * rules.dmiter if rules.dmiter > 0 else 0.0
    for i, seg in enumerate(trace.segments()):
        length = seg.length()
        if miter_cut > 0 and length <= miter_cut * 1.01 + SLACK:
            continue
        if length < rules.dprotect - SLACK:
            report.add(
                Violation(
                    kind=ViolationKind.SHORT_SEGMENT,
                    subject=trace.name,
                    detail=f"segment {i} shorter than d_protect",
                    location=seg.midpoint(),
                    measured=length,
                    required=rules.dprotect,
                )
            )
    return report


def segments_parallel_conflict(
    a, b, required: float, angle_tol: float = 0.35
) -> bool:
    """Same-trace d_gap semantics: parallel, overlapping, and too close.

    Crosstalk/self-inductance — what d_gap protects against within one net
    (Sec. II) — needs a *parallel coupled run*.  The meander's own
    structure routinely places perpendicular elements closer than d_gap
    (the two legs of a pattern are d_protect apart; the legs of two
    opposite-side patterns meet the axis d_protect apart, exactly the
    p_protect transition of Fig. 3(b)), and the paper's DP explicitly
    allows this.  A pair of segments is therefore a violation only when

    * their directions agree within ``angle_tol`` radians (near-parallel),
    * their mutual projections overlap over a positive length, and
    * their distance is below ``required``.
    """
    da = a.vector()
    db = b.vector()
    la, lb = da.norm(), db.norm()
    if la <= SLACK or lb <= SLACK:
        return False
    cos_angle = abs(da.dot(db)) / (la * lb)
    if cos_angle < math.cos(angle_tol):
        return False
    # Overlap of b's projection onto a's axis.
    ta0 = (b.a - a.a).dot(da) / (la * la)
    ta1 = (b.b - a.a).dot(da) / (la * la)
    lo, hi = min(ta0, ta1), max(ta0, ta1)
    overlap = (min(hi, 1.0) - max(lo, 0.0)) * la
    if overlap <= SLACK:
        return False
    return a.distance_to_segment(b) < required - SLACK


def check_self_clearance(
    trace: Trace,
    rules: DesignRules,
    report: Optional[DrcReport] = None,
    required: Optional[float] = None,
    candidates: Candidates = None,
) -> DrcReport:
    """Flag parallel overlapping runs of one trace closer than the
    same-net spacing floor.

    Same-net spacing in the paper is *structural*: legs of one pattern may
    be ``d_protect`` apart (pattern width runs from ``d_protect`` up, Alg. 1
    line 8), opposite-side patterns meet the axis ``d_protect`` apart
    (Fig. 3(b)), while same-side patterns keep ``d_gap`` (Fig. 3(a)) —
    which the DP enforces by construction.  Local geometry cannot tell a
    pattern top from an inter-pattern stub (the shapes are congruent), so
    the post-hoc oracle checks the one floor that every legal structure
    obeys: parallel overlapping centrelines at least ``d_protect`` apart
    (``required`` overrides for callers that know more context, e.g. the
    extension rollback guard checking *cross-structure* pairs at d_gap).

    ``candidates`` restricts the sweep to the given ``(i, j)`` segment
    index pairs (``j >= i + 2``, ascending); the caller guarantees the
    list covers every pair within ``required`` — what the sweep in
    :func:`check_board` provides.
    """
    report = report if report is not None else DrcReport()
    segs = trace.segments()
    floor = required if required is not None else max(rules.dprotect, trace.width)
    if candidates is None:
        n = len(segs)
        candidates = (
            (i, j) for i in range(n) for j in range(i + 2, n)
        )  # lazy: the exhaustive sweep must not materialise O(n^2) tuples
    for i, j in candidates:
        if segments_parallel_conflict(segs[i], segs[j], floor):
            report.add(
                Violation(
                    kind=ViolationKind.SELF_CLEARANCE,
                    subject=trace.name,
                    detail=f"segments {i} and {j} too close",
                    location=segs[i].midpoint(),
                    measured=segs[i].distance_to_segment(segs[j]),
                    required=floor,
                )
            )
    return report


def check_trace_pair_clearance(
    a: Trace,
    b: Trace,
    rules: DesignRules,
    report: Optional[DrcReport] = None,
    candidates: Candidates = None,
) -> DrcReport:
    """Flag two different traces closer than ``d_gap`` edge-to-edge.

    ``candidates`` restricts the exact distance tests to the given
    ``(index_in_a, index_in_b)`` segment pairs, visited in ascending
    order.  Provided the list covers every pair within the required
    clearance (the sweep's guarantee), the verdict, measurement and location
    are identical to the full sweep: the minimum is achieved inside the
    candidate set, and ascending order preserves which segment's midpoint
    gets reported on ties.
    """
    report = report if report is not None else DrcReport()
    required = rules.dgap + a.width / 2.0 + b.width / 2.0
    segs_a = a.segments()
    segs_b = b.segments()
    best = math.inf
    where: Optional[Point] = None
    if candidates is None:
        for sa in segs_a:
            for sb in segs_b:
                d = sa.distance_to_segment(sb)
                if d < best:
                    best = d
                    where = sa.midpoint()
    else:
        for ia, ib in candidates:
            sa = segs_a[ia]
            d = sa.distance_to_segment(segs_b[ib])
            if d < best:
                best = d
                where = sa.midpoint()
    if best < required - SLACK:
        report.add(
            Violation(
                kind=ViolationKind.TRACE_CLEARANCE,
                subject=f"{a.name}/{b.name}",
                detail="trace-to-trace clearance below d_gap",
                location=where,
                measured=best,
                required=required,
            )
        )
    return report


def check_obstacle_clearance(
    trace: Trace,
    obstacles: Sequence[Obstacle],
    rules: DesignRules,
    report: Optional[DrcReport] = None,
    candidates: Candidates = None,
) -> DrcReport:
    """Flag copper closer than ``d_obs`` to any obstacle.

    ``candidates`` restricts the exact polygon-distance tests to the given
    ``(obstacle_index, segment_index)`` pairs, ascending; an obstacle
    with no pair is skipped.  Provided the list covers every pair within
    the required clearance (the sweep's guarantee), the report is the
    full sweep's: a segment left out can neither hold the minimum of a
    violation nor tie with it, and ascending order keeps the first
    minimum and the early exit on contact where the full sweep has them.
    """
    report = report if report is not None else DrcReport()
    required = rules.dobs + trace.width / 2.0
    segments = trace.segments()
    if candidates is None:
        candidates = (
            (k, s) for k in range(len(obstacles)) for s in range(len(segments))
        )
    for k, pairs in groupby(candidates, key=itemgetter(0)):
        obstacle = obstacles[k]
        best = math.inf
        where: Optional[Point] = None
        for _, s in pairs:
            seg = segments[s]
            d = obstacle.polygon.distance_to_segment(seg)
            if d < best:
                best = d
                where = seg.midpoint()
            if best == 0.0:
                break
        if best < required - SLACK:
            report.add(
                Violation(
                    kind=ViolationKind.OBSTACLE_CLEARANCE,
                    subject=trace.name,
                    detail=f"too close to obstacle '{obstacle.name or obstacle.kind}'",
                    location=where,
                    measured=best,
                    required=required,
                )
            )
    return report


def check_containment(
    trace: Trace,
    area: Polygon,
    report: Optional[DrcReport] = None,
) -> DrcReport:
    """Flag a trace leaving its routable area."""
    report = report if report is not None else DrcReport()
    if not polyline_inside_polygon(trace.path, area):
        report.add(
            Violation(
                kind=ViolationKind.OUTSIDE_AREA,
                subject=trace.name,
                detail="trace leaves its routable area",
            )
        )
    return report


def check_endpoints_preserved(
    before: Trace, after: Trace, report: Optional[DrcReport] = None
) -> DrcReport:
    """Flag meandering that moved a trace endpoint (pin)."""
    report = report if report is not None else DrcReport()
    if not before.endpoints_match(after):
        report.add(
            Violation(
                kind=ViolationKind.ENDPOINT_MOVED,
                subject=after.name,
                detail="meandering moved an endpoint",
            )
        )
    return report


def check_pair_coupling(
    pair: DifferentialPair,
    max_deviation: float,
    samples: int = 64,
    report: Optional[DrcReport] = None,
) -> DrcReport:
    """Flag a differential pair whose gap deviates beyond ``max_deviation``.

    The paper accepts imperfect coupling (Fig. 10) — the threshold is a
    policy knob, not a hard rule; restoration tests use the tight value
    implied by the virtual DRC.
    """
    report = report if report is not None else DrcReport()
    deviation = pair.max_decoupling(samples)
    if deviation > max_deviation + SLACK:
        report.add(
            Violation(
                kind=ViolationKind.PAIR_DECOUPLED,
                subject=pair.name,
                detail="pair gap deviates from nominal",
                measured=deviation,
                required=max_deviation,
            )
        )
    return report


def check_board(board: Board, check_areas: bool = True) -> DrcReport:
    """Full-board DRC: every trace against every rule it is subject to.

    Rule resolution is per-trace via the most conservative DRA combination
    along its path (see ``RuleSet.rules_for_points``).  Differential-pair
    sub-traces are exempt from the ``d_protect`` segment-length rule: real
    pairs legally carry tiny compensation patterns and split corner nodes
    (Sec. V-A: such pairs "can still be legal in DRC and retained
    directly"), and intra-pair spacing is governed by the pair rule.

    Only the sweep-reported candidate pairs get exact tests; the report
    is the all-pairs sweep's (candidate supersets + identical exact tests
    in identical order) in a fraction of the time on large boards.

    Raises ``ValueError`` naming the first trace or obstacle with a NaN or
    infinite coordinate.
    """
    report = DrcReport()
    all_traces: List[Trace] = list(board.traces)
    pair_sub_names = set()
    same_pair_keys: Set[frozenset] = set()
    for pair in board.pairs:
        all_traces.extend((pair.trace_p, pair.trace_n))
        pair_sub_names.update((pair.trace_p.name, pair.trace_n.name))
        same_pair_keys.add(frozenset((pair.trace_p.name, pair.trace_n.name)))
    obstacles = board.obstacles
    _refuse_non_finite(all_traces, obstacles)

    per_trace_rules = {
        t.name: board.rules.rules_for_points(t.path.points) for t in all_traces
    }

    self_floor = {
        t.name: (
            t.width
            if t.name in pair_sub_names
            else max(per_trace_rules[t.name].dprotect, t.width)
        )
        for t in all_traces
    }

    # One span per pass.  Containment runs first; its findings are merged
    # into the per-trace order of the clearance pass below.
    area_reports: Dict[int, DrcReport] = {}
    if check_areas:
        with obs.span("drc.containment"):
            for idx, trace in enumerate(all_traces):
                area = board.routable_areas.get(trace.name)
                if area is not None:
                    area_reports[idx] = check_containment(trace, area)

    with obs.span("drc.clearance"):
        seg_cands, obstacle_cands = ({}, {})
        if all_traces:
            seg_cands, obstacle_cands = _clearance_candidates(
                all_traces, obstacles, per_trace_rules, self_floor
            )
        obs.annotate(
            candidates=sum(map(len, seg_cands.values()))
            + sum(map(len, obstacle_cands.values()))
        )

        for idx, trace in enumerate(all_traces):
            rules = per_trace_rules[trace.name]
            cands = seg_cands.get((idx, idx), [])
            if trace.name not in pair_sub_names:
                check_segment_lengths(trace, rules, report)
                check_self_clearance(trace, rules, report, candidates=cands)
            else:
                # Within a pair the structural floor is the tiny-pattern
                # scale, not d_protect (tiny patterns are narrower by design).
                check_self_clearance(
                    trace, rules, report, required=trace.width, candidates=cands
                )
            obstacle_pairs = obstacle_cands.get(idx, [])
            check_obstacle_clearance(trace, obstacles, rules, report, obstacle_pairs)
            if idx in area_reports:
                report.extend(area_reports[idx])

        # Only trace pairs with a candidate segment pair can violate; sorted
        # keys reproduce the all-pairs i<j visiting order.
        for i, j in sorted(seg_cands):
            if i == j:
                continue  # self pairs, checked above
            a, b = all_traces[i], all_traces[j]
            if frozenset((a.name, b.name)) in same_pair_keys:
                continue  # intra-pair spacing is the pair rule, not d_gap
            if a.net and a.net == b.net:
                # Electrically one net (e.g. the chains a branched imported
                # net was split into): contact is legal, d_gap is about
                # crosstalk between *different* signals.  Synthetic traces
                # carry net="" and are unaffected.
                continue
            ra, rb = per_trace_rules[a.name], per_trace_rules[b.name]
            rules = DesignRules(
                dgap=max(ra.dgap, rb.dgap),
                dobs=max(ra.dobs, rb.dobs),
                dprotect=max(ra.dprotect, rb.dprotect),
            )
            check_trace_pair_clearance(a, b, rules, report, seg_cands[(i, j)])
    return report


def _refuse_non_finite(traces: Sequence[Trace], obstacles: Sequence[Obstacle]) -> None:
    """Raise ``ValueError`` naming the first trace or obstacle with a NaN or
    infinite coordinate: box separation cannot bound a distance to it (and
    ``bounds()``'s ``min``/``max`` can drop a NaN), so no candidate filter
    could be exact."""
    shapes = [("trace", t.name, t.path.points) for t in traces] + [
        ("obstacle", o.name or o.kind, o.polygon.points) for o in obstacles
    ]
    for kind, name, points in shapes:
        if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in points):
            raise ValueError(f"{kind} '{name}' has a non-finite coordinate")


def _clearance_candidates(
    traces: Sequence[Trace],
    obstacles: Sequence[Obstacle],
    per_trace_rules: Dict[str, DesignRules],
    self_floor: Dict[str, float],
) -> Tuple[Dict[Tuple[int, int], List[Tuple[int, int]]], Dict[int, List[Tuple[int, int]]]]:
    """Candidate pairs for every clearance check, by one sort-and-sweep.

    Every segment box and every obstacle box go into one array, stably
    sorted by their low edge along the sweep axis.  Each row's window is
    the rows after it whose low edge is at most its high edge plus the
    largest clearance any check asks for (one ``searchsorted``); the
    windows expand into flat index pairs, and a pair is kept when its
    closed boxes come within its own check's clearance on both axes.
    Box separation never exceeds true distance, so every check gets a
    superset of the pairs within its clearance.  The sweep runs along x
    or y, whichever has fewer window pairs: a tall panel swept along x
    puts nearly every pair in one window.

    Returns ``(i, j) -> [(seg_i, seg_j), ...]`` for traces ``i <= j``
    (``i == j``: the trace's non-adjacent self pairs) and
    ``i -> [(obstacle, seg), ...]``; every list ascending.
    """
    segs = [t.segments() for t in traces]
    counts = np.array([len(ss) for ss in segs])
    boxes = np.array(
        [s.bounds() for ss in segs for s in ss] + [o.bounds() for o in obstacles],
        dtype=float,
    )
    rules = [per_trace_rules[t.name] for t in traces]
    half = np.array([t.width / 2.0 for t in traces])
    gap = np.array([r.dgap for r in rules])
    floor = np.array([self_floor[t.name] for t in traces])
    obstacle_reach = np.array([r.dobs for r in rules]) + half
    radius = max(floor.max(), gap.max() + 2.0 * half.max(), obstacle_reach.max())

    n = len(boxes)
    after = np.arange(1, n + 1)
    sweeps = []
    for axis in (0, 1):
        order = np.argsort(boxes[:, axis], kind="stable")
        lo, hi = boxes[order, axis], boxes[order, axis + 2]
        window = np.searchsorted(lo, hi + radius, side="right") - after
        sweeps.append((int(window.sum()), order, window))
    _, order, window = min(sweeps, key=itemgetter(0))
    first = np.repeat(np.arange(n), window)
    second = np.arange(len(first)) + np.repeat(after - np.cumsum(window) + window, window)
    p, q = order[first], order[second]
    # Board order: segments (trace-major) before obstacles.
    p, q = np.minimum(p, q), np.maximum(p, q)

    n_seg = int(counts.sum())
    trace = np.repeat(np.arange(len(traces)), counts)
    local = np.arange(n_seg) - np.repeat(np.cumsum(counts) - counts, counts)

    both = q < n_seg
    a, b = p[both], q[both]
    ta, tb = trace[a], trace[b]
    reach = np.where(ta == tb, floor[ta], np.maximum(gap[ta], gap[tb]) + half[ta] + half[tb])
    keep = _near(boxes[a], boxes[b], reach) & ((ta != tb) | (local[b] >= local[a] + 2))
    rows = np.stack([ta, tb, local[a], local[b]], axis=1)[keep]
    seg_cands: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for i, j, si, sj in rows[np.lexsort(rows.T[::-1])].tolist():
        seg_cands.setdefault((i, j), []).append((si, sj))

    mixed = (p < n_seg) & ~both
    s, o = p[mixed], q[mixed]
    keep = _near(boxes[s], boxes[o], obstacle_reach[trace[s]])
    rows = np.stack([trace[s], o - n_seg, local[s]], axis=1)[keep]
    obstacle_cands: Dict[int, List[Tuple[int, int]]] = {}
    for i, k, si in rows[np.lexsort(rows.T[::-1])].tolist():
        obstacle_cands.setdefault(i, []).append((k, si))
    return seg_cands, obstacle_cands


def _near(a: np.ndarray, b: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Rowwise: closed boxes ``a`` and ``b`` within ``reach`` on both axes."""
    return (
        (b[:, 0] <= a[:, 2] + reach)
        & (a[:, 0] <= b[:, 2] + reach)
        & (b[:, 1] <= a[:, 3] + reach)
        & (a[:, 1] <= b[:, 3] + reach)
    )
