"""Seeded, parameterized board generators.

Every generator takes an explicit ``random.Random`` plus keyword
parameters and returns a fully-specified :class:`~repro.model.Board`:
outline, rules, members, matching groups, obstacles and *explicit
routable areas* (so the pipeline's region stage has nothing left to
assign and runs are deterministic).  Generators draw every stochastic
choice from the supplied ``rng`` and nothing else — the same
``(seed, params)`` always yields a byte-identical board (the contract
:mod:`repro.scenarios.spec` states and the scenario tests enforce).

All generators emit boards that are DRC-clean *before* routing: member
pitches respect ``d_gap`` (pairs via their virtual width), obstacles sit
beyond ``d_obs`` of any copper, and every member lies inside its
corridor and the outline.  Feasible-tagged scenarios keep their length
deficits well inside what their corridors can absorb, so routed outputs
are expected DRC-clean too.
"""

from __future__ import annotations

import copy
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Point, Polygon, Polyline
from ..model import (
    Board,
    DesignRules,
    DifferentialPair,
    MatchGroup,
    Member,
    Obstacle,
    Trace,
    build_decoupled_pair,
    corridor_polygon,
    pair_corridor,
    rect_keepout,
    via,
)

#: Default absolute matching tolerance for generated groups — a little
#: looser than the library-wide 1e-3 so corpus feasibility reflects
#: routing headroom, not chevron arithmetic at the last micron.
GROUP_TOLERANCE = 1e-2


# -- small shared helpers ---------------------------------------------------------------


def _direction(rng: random.Random, tilt_max_deg: float) -> Point:
    """A unit direction tilted a seeded amount off horizontal."""
    tilt = math.radians(rng.uniform(-tilt_max_deg, tilt_max_deg))
    return Point(math.cos(tilt), math.sin(tilt))


def _deficits(rng: random.Random, count: int, max_deficit: float) -> List[float]:
    """Per-member relative length deficits.

    The first member carries (near) the maximum and the last sits at
    zero, mirroring a real group where the longest member defines the
    matching pressure; middles are drawn uniformly.
    """
    if count < 1:
        raise ValueError("member count must be >= 1")
    if count == 1:
        return [rng.uniform(0.6, 1.0) * max_deficit]
    middle = [rng.uniform(0.0, max_deficit) for _ in range(count - 2)]
    return [rng.uniform(0.75, 1.0) * max_deficit] + middle + [0.0]


def _outline_board(
    rules: DesignRules, areas: Sequence[Polygon], margin: float = 8.0
) -> Board:
    """A rectangular board tightly containing every routable area."""
    xmin = min(a.bounds()[0] for a in areas) - margin
    ymin = min(a.bounds()[1] for a in areas) - margin
    xmax = max(a.bounds()[2] for a in areas) + margin
    ymax = max(a.bounds()[3] for a in areas) + margin
    return Board.with_rect_outline(xmin, ymin, xmax, ymax, rules=rules)


def _corridor_vias(
    rng: random.Random,
    board: Board,
    trace: Trace,
    direction: Point,
    count: int,
    via_radius: float,
) -> None:
    """Sprinkle ``count`` vias along one corridor, alternating sides.

    Vias sit just beyond ``d_obs`` from the untouched trace — inside the
    meander band (so the obstacle-aware DP must route around them) while
    keeping the pre-route layout DRC-clean.
    """
    rules = board.rules.default
    normal = direction.perpendicular()
    radial = rules.dobs + trace.width / 2.0 + via_radius + 0.5
    length = trace.length()
    start = trace.path.start
    side = 1.0 if rng.random() < 0.5 else -1.0
    for k in range(count):
        lo = (k + 0.15) / count
        hi = (k + 0.85) / count
        frac = rng.uniform(lo, hi)
        anchor = start + direction * (length * frac)
        center = anchor + normal * (side * radial)
        board.add_obstacle(
            via(center, radius=via_radius, name=f"v_{trace.name}_{k}")
        )
        side = -side


# -- serpentine bus ---------------------------------------------------------------------


def serpentine_bus(
    rng: random.Random,
    traces: int = 6,
    length: float = 120.0,
    dgap: float = 4.0,
    width: float = 1.0,
    corridor_half: float = 12.0,
    max_deficit: float = 0.18,
    tilt_max_deg: float = 6.0,
) -> Board:
    """Parallel single-ended bus in tilted corridors, no obstacles.

    The bread-and-butter matching workload: every trace meanders inside
    its own corridor toward the bus target length.
    """
    rules = DesignRules(dgap=dgap, dobs=2.0, dprotect=2.0)
    direction = _direction(rng, tilt_max_deg)
    deficits = _deficits(rng, traces, max_deficit)
    pitch = 2.0 * corridor_half + dgap + width + 1.0

    members: List[Trace] = []
    areas: List[Polygon] = []
    for k, deficit in enumerate(deficits):
        start = Point(0.0, k * pitch)
        end = start + direction * (length * (1.0 - deficit))
        members.append(
            Trace(name=f"bus{k}", path=Polyline([start, end]), width=width)
        )
        areas.append(corridor_polygon(start, end, corridor_half))

    board = _outline_board(rules, areas)
    group = MatchGroup(
        name="serpentine_bus",
        target_length=length,
        tolerance=GROUP_TOLERANCE,
    )
    for trace, area in zip(members, areas):
        board.add_trace(trace)
        group.add(trace)
        board.set_routable_area(trace.name, area)
    board.add_group(group)
    return board


# -- BGA-style escape fanout ------------------------------------------------------------


def bga_escape(
    rng: random.Random,
    traces: int = 5,
    length: float = 110.0,
    dgap: float = 4.0,
    width: float = 0.9,
    corridor_half: float = 11.0,
    pad_rows: int = 4,
    pad_cols: int = 5,
    pad_radius: float = 1.8,
    vias_per_corridor: int = 2,
    max_stagger: float = 0.16,
) -> Board:
    """Escape fanout from a BGA-like pad matrix into a via-strewn field.

    Traces leave the pad block at staggered depths (deeper escapes are
    shorter — the natural mismatch of a fanout), then cross a corridor
    seeded with via obstacles the meanders must dodge.
    """
    if traces < 1:
        raise ValueError("member count must be >= 1")
    rules = DesignRules(dgap=dgap, dobs=2.0, dprotect=2.0)
    direction = Point(1.0, 0.0)
    pitch = 2.0 * corridor_half + dgap + width + 1.0

    # Staggered escape depths: trace k starts deeper into the field and
    # is shorter by up to ``max_stagger`` of the full run.
    staggers = sorted(rng.uniform(0.0, max_stagger) for _ in range(traces))
    end_x = length

    members: List[Trace] = []
    areas: List[Polygon] = []
    for k, stagger in enumerate(staggers):
        start = Point(stagger * length, k * pitch)
        end = Point(end_x, k * pitch)
        members.append(
            Trace(name=f"esc{k}", path=Polyline([start, end]), width=width)
        )
        areas.append(corridor_polygon(start, end, corridor_half))

    board = _outline_board(rules, areas, margin=10.0)

    # The pad matrix sits above the top corridor, clear of all copper —
    # the block the escapes notionally emerge from.
    top = (traces - 1) * pitch + corridor_half + rules.dobs + pad_radius + 2.0
    pad_pitch = 2.0 * pad_radius + rules.dobs + 1.5
    for r in range(pad_rows):
        for c in range(pad_cols):
            center = Point(c * pad_pitch, top + r * pad_pitch)
            board.add_obstacle(via(center, radius=pad_radius, name=f"pad_{r}_{c}"))
    # Grow the outline to cover the pad block.
    xmin, ymin, xmax, ymax = board.outline.bounds()
    block_top = top + (pad_rows - 1) * pad_pitch + pad_radius + 4.0
    block_right = (pad_cols - 1) * pad_pitch + pad_radius + 4.0
    board.outline = Polygon(
        [
            Point(xmin, ymin),
            Point(max(xmax, block_right), ymin),
            Point(max(xmax, block_right), max(ymax, block_top)),
            Point(xmin, max(ymax, block_top)),
        ]
    )

    group = MatchGroup(
        name="bga_escape", target_length=end_x, tolerance=GROUP_TOLERANCE
    )
    for trace, area in zip(members, areas):
        board.add_trace(trace)
        group.add(trace)
        board.set_routable_area(trace.name, area)
        _corridor_vias(
            rng, board, trace, direction, vias_per_corridor, via_radius=1.4
        )
    board.add_group(group)
    return board


# -- differential-pair cluster ----------------------------------------------------------


def diffpair_cluster(
    rng: random.Random,
    pairs: int = 3,
    length: float = 110.0,
    dgap: float = 4.0,
    width: float = 0.6,
    rule: float = 1.8,
    corridor_half: float = 24.0,
    max_deficit: float = 0.16,
    tilt_max_deg: float = 5.0,
) -> Board:
    """A cluster of decoupled differential pairs matched to one target.

    Each pair carries the Fig. 10 artefacts (split corner nodes and, on
    some pairs, a tiny compensation pattern) so MSDTW conversion and
    restoration are genuinely exercised; decoupling gaps vary per pair
    through the seeded bend angle.
    """
    rules = DesignRules(dgap=dgap, dobs=2.0, dprotect=2.0)
    direction = _direction(rng, tilt_max_deg)
    deficits = _deficits(rng, pairs, max_deficit)
    pitch = 2.0 * corridor_half + dgap + width + rule + 2.0
    # One bend angle per board: equal bends keep the corridors parallel
    # (differing bends would make neighbouring corridors converge).
    bend_deg = rng.uniform(10.0, 24.0)

    built: List[DifferentialPair] = []
    areas: List[Polygon] = []
    for k, deficit in enumerate(deficits):
        pair = build_decoupled_pair(
            name=f"dp{k}",
            start=Point(0.0, k * pitch),
            direction=direction,
            pair_length=length * (1.0 - deficit),
            width=width,
            rule=rule,
            tiny_pattern=rng.random() < 0.5,
            bend_deg=bend_deg,
        )
        built.append(pair)
        areas.append(pair_corridor(pair, corridor_half))

    board = _outline_board(rules, areas)
    group = MatchGroup(
        name="diffpair_cluster",
        target_length=length,
        tolerance=GROUP_TOLERANCE,
    )
    for pair, area in zip(built, areas):
        board.add_pair(pair)
        group.add(pair)
        board.set_routable_area(pair.name, area)
    board.add_group(group)
    return board


# -- obstacle maze ----------------------------------------------------------------------


def obstacle_maze(
    rng: random.Random,
    length: float = 90.0,
    dgap: float = 3.0,
    width: float = 0.8,
    corridor_half: float = 16.0,
    walls: int = 4,
    wall_thickness: float = 2.5,
    deficit: float = 0.14,
) -> Board:
    """One trace threading a corridor of staggered keep-out walls.

    Walls alternate sides and reach from the corridor edge toward the
    trace, leaving a passage just beyond ``d_obs`` — the meander has to
    thread the resulting chicane while still finding its extra length.
    """
    rules = DesignRules(dgap=dgap, dobs=1.5, dprotect=1.5)
    start = Point(0.0, 0.0)
    end = Point(length * (1.0 - deficit), 0.0)
    trace = Trace(name="maze", path=Polyline([start, end]), width=width)
    area = corridor_polygon(start, end, corridor_half)

    board = _outline_board(rules, [area])
    board.add_trace(trace)
    board.set_routable_area(trace.name, area)
    group = MatchGroup(
        name="obstacle_maze", target_length=length, tolerance=GROUP_TOLERANCE
    )
    group.add(trace)
    board.add_group(group)

    # Staggered walls: wall i sits at a jittered station along the run,
    # alternating sides, spanning from beyond the passage clearance out
    # past the corridor edge.
    passage = rules.dobs + width / 2.0 + 1.0
    run = end.x - start.x
    side = 1.0 if rng.random() < 0.5 else -1.0
    for i in range(walls):
        station = run * (i + 1) / (walls + 1) + rng.uniform(-0.05, 0.05) * run
        depth = rng.uniform(passage + 1.0, corridor_half * 0.75)
        lo = side * depth
        hi = side * (corridor_half + 4.0)
        board.add_obstacle(
            rect_keepout(
                station - wall_thickness / 2.0,
                min(lo, hi),
                station + wall_thickness / 2.0,
                max(lo, hi),
                name=f"wall{i}",
            )
        )
        side = -side
    return board


# -- mixed single-ended + pair groups ---------------------------------------------------


def mixed_groups(
    rng: random.Random,
    traces: int = 3,
    pairs: int = 1,
    length: float = 100.0,
    dgap: float = 4.0,
    se_width: float = 1.0,
    pair_width: float = 0.6,
    rule: float = 1.8,
    corridor_half: float = 18.0,
    max_deficit: float = 0.15,
    tilt_max_deg: float = 4.0,
) -> Board:
    """One matching group mixing single-ended traces and a pair cluster.

    The group target must be met by both member kinds at once — the
    mixed-dispatch path of the router (DP extension for traces, MSDTW
    conversion for pairs) under a single tolerance.
    """
    rules = DesignRules(dgap=dgap, dobs=2.0, dprotect=2.0)
    direction = _direction(rng, tilt_max_deg)
    total = traces + pairs
    deficits = _deficits(rng, total, max_deficit)
    pitch = 2.0 * corridor_half + dgap + max(se_width, rule + pair_width) + 2.0
    # Pairs sit above the straight traces and share one bend angle, so
    # their corridors drift away from the bus rather than into it.
    bend_deg = rng.uniform(10.0, 20.0)

    members: List[Member] = []
    areas: List[Polygon] = []
    for k, deficit in enumerate(deficits):
        start = Point(0.0, k * pitch)
        member_length = length * (1.0 - deficit)
        if k < traces:
            end = start + direction * member_length
            trace = Trace(
                name=f"mix_t{k}", path=Polyline([start, end]), width=se_width
            )
            members.append(trace)
            areas.append(corridor_polygon(start, end, corridor_half))
        else:
            pair = build_decoupled_pair(
                name=f"mix_p{k - traces}",
                start=start,
                direction=direction,
                pair_length=member_length,
                width=pair_width,
                rule=rule,
                tiny_pattern=rng.random() < 0.5,
                bend_deg=bend_deg,
            )
            members.append(pair)
            areas.append(pair_corridor(pair, corridor_half))

    board = _outline_board(rules, areas)
    group = MatchGroup(
        name="mixed", target_length=length, tolerance=GROUP_TOLERANCE
    )
    for member, area in zip(members, areas):
        if isinstance(member, Trace):
            board.add_trace(member)
        else:
            board.add_pair(member)
        group.add(member)
        board.set_routable_area(member.name, area)
    board.add_group(group)
    return board


# -- scale-sweep tiling wrapper ---------------------------------------------------------


def tiled(
    rng: random.Random,
    base: str = "serpentine_bus",
    tiles: int = 2,
    gap: float = 12.0,
    base_params: Optional[Dict] = None,
) -> Board:
    """``tiles`` seeded instances of a base scenario stacked vertically.

    The scale-sweep wrapper: every tile is an independent draw of the
    base generator (seeded off this wrapper's ``rng``), offset so tiles
    keep ``gap`` clearance, with members, groups, obstacles and areas
    renamed per tile.  Board size, member count and group count all grow
    linearly in ``tiles`` — the scaling axis the ``bench --perf``
    ``scaling`` phase sweeps.
    """
    from .registry import get  # local import: registry imports this module

    if tiles < 1:
        raise ValueError("tiles must be >= 1")
    try:
        family = get(base)
    except KeyError as exc:
        # ``base`` arrives straight from user params; surface the same
        # usage-error type every other bad parameter produces.
        raise ValueError(exc.args[0]) from None
    if family.name == "tiled":
        raise ValueError("tiled scenarios cannot nest")
    # Deep copies: the base family's defaults stay pristine even if a
    # builder mutates a nested value.
    params = copy.deepcopy(dict(family.defaults))
    params.update(copy.deepcopy(base_params) if base_params else {})

    board: Optional[Board] = None
    y_cursor = 0.0
    for t in range(tiles):
        tile_rng = random.Random(rng.randrange(2**32))
        tile = family.builder(tile_rng, **params)
        txmin, tymin, txmax, tymax = tile.outline.bounds()
        offset = Point(0.0, y_cursor - tymin)
        y_cursor += (tymax - tymin) + gap
        if board is None:
            board = Board(
                outline=tile.outline.translated(offset),
                rules=tile.rules,
            )
        else:
            xmin, ymin, xmax, ymax = board.outline.bounds()
            board.outline = Polygon(
                [
                    Point(min(xmin, txmin + offset.x), ymin),
                    Point(max(xmax, txmax + offset.x), ymin),
                    Point(max(xmax, txmax + offset.x), tymax + offset.y),
                    Point(min(xmin, txmin + offset.x), tymax + offset.y),
                ]
            )

        renamed: Dict[str, Member] = {}
        for trace in tile.traces:
            moved = Trace(
                name=f"{trace.name}_T{t}",
                path=trace.path.translated(offset),
                width=trace.width,
                net=trace.net,
            )
            board.add_trace(moved)
            renamed[trace.name] = moved
        for pair in tile.pairs:
            moved = DifferentialPair(
                name=f"{pair.name}_T{t}",
                trace_p=Trace(
                    name=f"{pair.trace_p.name}_T{t}",
                    path=pair.trace_p.path.translated(offset),
                    width=pair.trace_p.width,
                    net=pair.trace_p.net,
                ),
                trace_n=Trace(
                    name=f"{pair.trace_n.name}_T{t}",
                    path=pair.trace_n.path.translated(offset),
                    width=pair.trace_n.width,
                    net=pair.trace_n.net,
                ),
                rule=pair.rule,
                extra_rules=pair.extra_rules,
            )
            board.add_pair(moved)
            renamed[pair.name] = moved
        for obstacle in tile.obstacles:
            board.add_obstacle(
                Obstacle(
                    polygon=obstacle.polygon.translated(offset),
                    kind=obstacle.kind,
                    name=f"{obstacle.name}_T{t}",
                )
            )
        for group in tile.groups:
            board.add_group(
                MatchGroup(
                    name=f"{group.name}_T{t}",
                    members=[renamed[m.name] for m in group.members],
                    target_length=group.target_length,
                    tolerance=group.tolerance,
                )
            )
        for member_name, area in tile.routable_areas.items():
            board.set_routable_area(
                f"{member_name}_T{t}", area.translated(offset)
            )
    assert board is not None
    return board
