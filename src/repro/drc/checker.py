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

:func:`check_board` hashes every trace segment into a
:class:`~repro.geometry.SegmentGrid` sized by the largest clearance in
play and only runs exact distance tests on the candidate segment pairs
the grid reports — near-linear in board size.  It emits the identical
violation set, in the identical order, as the original all-pairs sweep
kept in the test oracles: the grid's candidate list is a superset of
every pair within clearance range, candidates are visited in the
all-pairs index order, and the exact measurements use the same
arithmetic (see PERFORMANCE.md).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..geometry import (
    Point,
    Polygon,
    SegmentGrid,
    bounds_overlap,
    polyline_inside_polygon,
)
from ..model import Board, DesignRules, DifferentialPair, Obstacle, Trace
from .violations import DrcReport, Violation, ViolationKind

#: Numerical slack: measurements may sit exactly on the rule, so a tiny
#: tolerance keeps exact-by-construction geometry from being flagged.
SLACK = 1e-6

#: Candidate segment-index pairs for one check; ``None`` = scan all pairs.
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
    list covers every pair within ``required`` — what the grid-indexed
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
    clearance (the grid guarantee), the verdict, measurement and location
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
    obstacles: Iterable[Obstacle],
    rules: DesignRules,
    report: Optional[DrcReport] = None,
) -> DrcReport:
    """Flag copper closer than ``d_obs`` to any obstacle.

    Segments whose bounding box already clears the obstacle's by the
    required distance skip the exact polygon-distance test: bounding-box
    separation never exceeds true distance, so a skipped segment can
    neither hold the minimum of a violation nor tie with it, and dense
    via fields stop costing a polygon sweep per far-away segment.
    """
    report = report if report is not None else DrcReport()
    required = rules.dobs + trace.width / 2.0
    segments = trace.segments()
    seg_bounds = [seg.bounds() for seg in segments]
    for obstacle in obstacles:
        ob = obstacle.bounds()
        obox = (ob[0] - required, ob[1] - required, ob[2] + required, ob[3] + required)
        near = [
            seg for seg, b in zip(segments, seg_bounds) if bounds_overlap(b, obox)
        ]
        if not near:
            continue
        best = math.inf
        where: Optional[Point] = None
        for seg in near:
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

    Only the grid-reported candidate segment pairs get exact tests; the
    report is the all-pairs sweep's (candidate supersets + identical
    exact tests in identical order) in a fraction of the time on large
    boards.
    """
    report = DrcReport()
    all_traces: List[Trace] = list(board.traces)
    pair_sub_names = set()
    same_pair_keys: Set[frozenset] = set()
    for pair in board.pairs:
        all_traces.extend((pair.trace_p, pair.trace_n))
        pair_sub_names.update((pair.trace_p.name, pair.trace_n.name))
        same_pair_keys.add(frozenset((pair.trace_p.name, pair.trace_n.name)))

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
        self_cands: Dict[int, List[Tuple[int, int]]] = {}
        pair_cands: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        if all_traces:
            self_cands, pair_cands = _clearance_candidates(
                all_traces, per_trace_rules, self_floor
            )

        for idx, trace in enumerate(all_traces):
            rules = per_trace_rules[trace.name]
            cands = sorted(self_cands.get(idx, ()))
            if trace.name not in pair_sub_names:
                check_segment_lengths(trace, rules, report)
                check_self_clearance(trace, rules, report, candidates=cands)
            else:
                # Within a pair the structural floor is the tiny-pattern
                # scale, not d_protect (tiny patterns are narrower by design).
                check_self_clearance(
                    trace, rules, report, required=trace.width, candidates=cands
                )
            check_obstacle_clearance(trace, board.obstacles, rules, report)
            if idx in area_reports:
                report.extend(area_reports[idx])

        # Only trace pairs with a candidate segment pair can violate; sorted
        # keys reproduce the all-pairs i<j visiting order.
        for i, j in sorted(pair_cands):
            a, b = all_traces[i], all_traces[j]
            if frozenset((a.name, b.name)) in same_pair_keys:
                continue  # intra-pair spacing is the pair rule, not d_gap
            if a.net and a.net == b.net:
                # Electrically one net (e.g. the chains a branched imported
                # net was split into): contact is legal, d_gap is about
                # crosstalk between *different* signals.  Synthetic traces
                # carry net="" and are unaffected.
                continue
            cands = sorted(pair_cands[(i, j)])
            ra, rb = per_trace_rules[a.name], per_trace_rules[b.name]
            rules = DesignRules(
                dgap=max(ra.dgap, rb.dgap),
                dobs=max(ra.dobs, rb.dobs),
                dprotect=max(ra.dprotect, rb.dprotect),
            )
            check_trace_pair_clearance(a, b, rules, report, candidates=cands)
    return report


def _clearance_candidates(
    traces: Sequence[Trace],
    per_trace_rules: Dict[str, DesignRules],
    self_floor: Dict[str, float],
) -> Tuple[Dict[int, Set[Tuple[int, int]]], Dict[Tuple[int, int], Set[Tuple[int, int]]]]:
    """Grid-reported candidate segment pairs for every clearance sweep.

    One :class:`~repro.geometry.SegmentGrid` holds every segment of every
    trace; the query radius is the largest clearance any check can ask
    for, so each returned bucket is a superset of the pairs the exact
    sweep could flag.  Keys: trace index -> self pairs, ``(i, j)`` with
    ``i < j`` -> cross-trace pairs.
    """
    max_width = max(t.width for t in traces)
    max_gap = max(per_trace_rules[t.name].dgap for t in traces)
    radius = max(max_gap + max_width, max(self_floor.values()))
    grid = SegmentGrid(cell=radius)

    segs_by_trace = [t.segments() for t in traces]
    for ti, segs in enumerate(segs_by_trace):
        for si, seg in enumerate(segs):
            grid.insert(seg, (ti, si))

    self_cands: Dict[int, Set[Tuple[int, int]]] = {}
    pair_cands: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for ti, segs in enumerate(segs_by_trace):
        for si, seg in enumerate(segs):
            for tj, sj in grid.query_segment(seg, radius):
                if tj == ti:
                    if sj >= si + 2:
                        self_cands.setdefault(ti, set()).add((si, sj))
                elif tj > ti:
                    pair_cands.setdefault((ti, tj), set()).add((si, sj))
    return self_cands, pair_cands
