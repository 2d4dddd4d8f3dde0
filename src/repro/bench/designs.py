"""Synthetic benchmark designs.

The paper evaluates on the Allegro sample design (proprietary) and on a
private "dummy" via-field design.  These generators rebuild both classes
of workload with the published case statistics of Sec. VI's Tables I
and II — group sizes, rule distances, spacing regimes, initial length
spreads — plus the decoupling artefacts of real differential pairs that
Sec. V's MSDTW conversion exists to handle.
Everything is deterministic — no randomness, so benches are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..geometry import Point, Polyline, rectangle
from ..model import (
    Board,
    DesignRuleArea,
    DesignRules,
    DifferentialPair,
    MatchGroup,
    Trace,
    via,
)
from ..model.synth import (
    build_decoupled_pair,
    corridor_polygon,
    error_profile,
    pair_corridor,
)

# -- Table I ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Spec:
    """Published statistics of one Table I case."""

    case: int
    l_target: float
    dgap: float
    group_size: int
    trace_type: str          # "single-ended" | "differential"
    spacing: str             # "dense" | "sparse"
    initial_max: float       # % from the paper's Initial column
    initial_avg: float       # %


TABLE1_SPECS: Tuple[Table1Spec, ...] = (
    Table1Spec(1, 205.88, 8.0, 8, "single-ended", "dense", 37.38, 19.02),
    Table1Spec(2, 199.02, 8.0, 8, "single-ended", "dense", 35.99, 19.41),
    Table1Spec(3, 187.25, 8.0, 8, "single-ended", "dense", 35.91, 20.06),
    Table1Spec(4, 186.27, 8.0, 8, "single-ended", "dense", 30.99, 17.22),
    Table1Spec(5, 217.32, 4.0, 4, "differential", "sparse", 26.55, 15.18),
)


# Shared with the scenario generators; see repro.model.synth.
_error_profile = error_profile
_corridor_polygon = corridor_polygon
_pair_corridor = pair_corridor
_build_decoupled_pair = build_decoupled_pair


def make_table1_case(case: int, tilt_deg: float = 3.0) -> Tuple[Board, Table1Spec]:
    """Board + matching group reproducing one Table I case.

    Traces run in parallel tilted corridors (the tilt keeps the workload
    genuinely any-direction); "dense" corridors leave just enough room for
    the required meanders, "sparse" leaves plenty.  A few vias per
    corridor exercise obstacle awareness.
    """
    spec = next(s for s in TABLE1_SPECS if s.case == case)
    if spec.trace_type == "differential":
        return _make_table1_differential(spec, tilt_deg)
    return _make_table1_single_ended(spec, tilt_deg)


def _make_table1_single_ended(
    spec: Table1Spec, tilt_deg: float
) -> Tuple[Board, Table1Spec]:
    width = 1.0
    rules = DesignRules(dgap=spec.dgap, dobs=4.0, dprotect=3.0)
    errors = _error_profile(spec.initial_max / 100.0, spec.initial_avg / 100.0, spec.group_size)
    lengths = [spec.l_target * (1.0 - e) for e in errors]

    # Corridor sizing: "dense" leaves barely the amplitude the worst trace
    # needs (the paper's spacing-dense regime, where flexible space
    # utilisation decides the outcome); "sparse" leaves plenty.
    corridor_half = 9.5 if spec.spacing == "dense" else 26.0
    corridor_gap = spec.dgap + width + 2.0
    pitch = 2 * corridor_half + corridor_gap
    tilt = math.radians(tilt_deg)
    direction = Point(math.cos(tilt), math.sin(tilt))

    max_len = max(lengths)
    board = Board.with_rect_outline(
        -10.0,
        -corridor_half - 10.0,
        max_len * 1.05 + 10.0,
        pitch * spec.group_size + corridor_half + 10.0,
        rules=rules,
    )
    group = MatchGroup(name=f"table1_case{spec.case}", target_length=spec.l_target)

    for k, length in enumerate(lengths):
        y0 = k * pitch
        start = Point(0.0, y0)
        end = start + direction * length
        trace = Trace(name=f"t{spec.case}_{k}", path=Polyline([start, end]), width=width)
        board.add_trace(trace)
        group.add(trace)
        area = _corridor_polygon(start, end, corridor_half)
        board.set_routable_area(trace.name, area)
        # Two vias per corridor near the trace: a uniform-amplitude tuner
        # loses the whole slot column around each via, while per-foot
        # optimisation re-packs patterns flush against them — the
        # space-utilisation contrast Table I measures.
        normal = direction.perpendicular()
        via_radius = 1.6
        # Keep the original layout DRC-clean: vias sit just beyond d_obs
        # from the untouched trace, squarely inside the meander band.
        radial = rules.dobs + width / 2.0 + via_radius + 0.5
        for frac, side in ((0.35, 1.0), (0.65, -1.0)):
            anchor = start + direction * (length * frac)
            center = anchor + normal * (side * radial)
            board.add_obstacle(
                via(center, radius=via_radius, name=f"v{spec.case}_{k}_{frac}")
            )
    board.add_group(group)
    return board, spec


def _make_table1_differential(
    spec: Table1Spec, tilt_deg: float
) -> Tuple[Board, Table1Spec]:
    width = 0.6
    rule = 1.8  # intra-pair centre-to-centre distance
    rules = DesignRules(dgap=spec.dgap, dobs=2.0, dprotect=2.0)
    errors = _error_profile(
        spec.initial_max / 100.0, spec.initial_avg / 100.0, spec.group_size
    )

    corridor_half = 26.0
    corridor_gap = spec.dgap + width + rule + 2.0
    pitch = 2 * corridor_half + corridor_gap
    tilt = math.radians(tilt_deg)
    direction = Point(math.cos(tilt), math.sin(tilt))

    pairs = []
    corridors = []
    for k, err in enumerate(errors):
        target_len = spec.l_target * (1.0 - err)
        start = Point(0.0, k * pitch)
        pair = _build_decoupled_pair(
            name=f"d{spec.case}_{k}",
            start=start,
            direction=direction,
            pair_length=target_len,
            width=width,
            rule=rule,
            tiny_pattern=(k % 2 == 0),
        )
        pairs.append(pair)
        corridors.append(_pair_corridor(pair, corridor_half))

    xmin = min(c.bounds()[0] for c in corridors) - 6.0
    ymin = min(c.bounds()[1] for c in corridors) - 6.0
    xmax = max(c.bounds()[2] for c in corridors) + 6.0
    ymax = max(c.bounds()[3] for c in corridors) + 6.0
    board = Board.with_rect_outline(xmin, ymin, xmax, ymax, rules=rules)
    group = MatchGroup(name=f"table1_case{spec.case}", target_length=spec.l_target)
    for pair, corridor in zip(pairs, corridors):
        board.add_pair(pair)
        group.add(pair)
        board.set_routable_area(pair.name, corridor)
    board.add_group(group)
    return board, spec


# -- Table II ------------------------------------------------------------------------------

TABLE2_DGAPS: Tuple[float, ...] = (2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
TABLE2_WIDTH = 0.5
TABLE2_LENGTH = 62.2  # gives the paper's 24.89 ideal-pattern ratio at d_gap 2.5


def make_table2_design(dgap: float) -> Tuple[Board, Trace]:
    """The DP-ablation dummy design: one trace in a dense via field.

    The trace has a 135-degree middle segment (the paper's Fig. 15
    geometry) and ``l_original = 62.2``; via rows above and below leave
    narrow passages that tighten as ``d_gap`` grows.
    """
    width = TABLE2_WIDTH
    rules = DesignRules(dgap=dgap, dobs=1.0, dprotect=1.0)
    board = Board.with_rect_outline(-8.0, -26.0, 68.0, 32.0, rules=rules)

    # Path: 20 straight + 10*sqrt(2) diagonal + remainder straight = 62.2.
    diag = 10.0 * math.sqrt(2.0)
    tail = TABLE2_LENGTH - 20.0 - diag
    pts = [
        Point(0.0, 0.0),
        Point(20.0, 0.0),
        Point(30.0, 10.0),
        Point(30.0 + tail, 10.0),
    ]
    trace = Trace(name="t2", path=Polyline(pts), width=width)
    board.add_trace(trace)
    board.set_routable_area(trace.name, rectangle(-6.0, -24.0, 66.0, 30.0))

    # Via field: staggered rows; the lower half is denser (the "narrow
    # space between dense vias").
    radius = 1.5
    rows = [
        (-6.0, 0.0), (-12.0, 4.5), (-18.0, 0.0),     # below the first run
        (16.0, 2.0), (22.0, 6.5),                    # above the second run
    ]
    for row_y, stagger in rows:
        x = -4.0 + stagger
        while x < 64.0:
            center = Point(x, row_y)
            # Keep the diagonal channel clear of copper-on-via overlaps.
            if min(
                seg.distance_to_point(center) for seg in trace.segments()
            ) > radius + rules.dobs + width:
                board.add_obstacle(via(center, radius=radius, name=f"via_{row_y}_{x:.0f}"))
            x += 9.0
    return board, trace


# -- any-direction showcase (Fig. 14(b)) ---------------------------------------------------


def make_any_direction_design() -> Board:
    """Traces at assorted odd angles with obstacles — the Fig. 14(b) demo."""
    rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=1.5)
    board = Board.with_rect_outline(-10.0, -10.0, 150.0, 120.0, rules=rules)
    group = MatchGroup(name="fanout")
    specs = [
        ("a17", 17.0, Point(0.0, 0.0), 120.0),
        ("a33", 33.0, Point(0.0, 18.0), 110.0),
        ("a56", 56.0, Point(0.0, 36.0), 100.0),
    ]
    for name, angle_deg, start, length in specs:
        angle = math.radians(angle_deg)
        d = Point(math.cos(angle), math.sin(angle))
        trace = Trace(
            name=name, path=Polyline([start, start + d * length]), width=0.8
        )
        board.add_trace(trace)
        group.add(trace)
    group.target_length = 135.0
    board.add_group(group)
    for center in (Point(40.0, 25.0), Point(70.0, 48.0), Point(30.0, 48.0)):
        board.add_obstacle(via(center, radius=2.2))
    return board


# -- MSDTW showcase (Figs. 9/16) -------------------------------------------------------------


def make_msdtw_case() -> Tuple[Board, DifferentialPair]:
    """A decoupled pair with the Fig. 9/Fig. 16 ingredients.

    Split corner nodes, a tiny pattern on one sub-trace, an obtuse bend,
    and a second Design Rule Area declaring a larger pair distance rule
    (exercising the multi-scale rule set of Alg. 3).  Restoration keeps a
    constant pair gap; restoring a gap that changes from one Design Rule
    Area to the next is out of scope.
    """
    rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=1.5)
    board = Board.with_rect_outline(-12.0, -35.0, 150.0, 60.0, rules=rules)
    wide_area = DesignRuleArea(
        region=rectangle(70.0, -35.0, 150.0, 60.0),
        rules=DesignRules(dgap=6.0, dobs=2.0, dprotect=1.5),
        name="wide",
    )
    board.rules.areas.append(wide_area)

    width, rule = 0.6, 1.6
    pair = _build_decoupled_pair(
        name="msdtw",
        start=Point(0.0, 0.0),
        direction=Point(1.0, 0.0),
        pair_length=120.0,
        width=width,
        rule=rule,
        tiny_pattern=True,
    )
    pair = DifferentialPair(
        name=pair.name,
        trace_p=pair.trace_p,
        trace_n=pair.trace_n,
        rule=rule,
        extra_rules=(2.8,),
    )
    board.add_pair(pair)
    board.set_routable_area(pair.name, _pair_corridor(pair, 20.0))
    group = MatchGroup(name="msdtw_group", target_length=132.0)
    group.add(pair)
    board.add_group(group)
    return board, pair
