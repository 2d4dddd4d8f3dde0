"""The all-pairs DRC sweep (test oracle).

:func:`check_board_exhaustive` is the original full-board check: every
segment pair of every trace, every trace pair, and every segment against
every obstacle (each check with ``candidates=None``), with no candidate
filter of any kind.
:func:`repro.drc.check_board` must report the identical violation set
in the identical order, and must beat it by a wide margin on routed
boards.
"""

from __future__ import annotations

from typing import List, Set

from repro.drc import (
    DrcReport,
    check_containment,
    check_obstacle_clearance,
    check_segment_lengths,
    check_self_clearance,
    check_trace_pair_clearance,
)
from repro.model import Board, DesignRules, Trace


def check_board_exhaustive(board: Board, check_areas: bool = True) -> DrcReport:
    """Full-board DRC by exhaustive all-pairs sweeps.

    Same rule resolution and exemptions as :func:`repro.drc.check_board`
    (per-trace DRA rules, pair sub-traces exempt from ``d_protect``,
    intra-pair and same-net trace pairs skipped).
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

    for trace in all_traces:
        rules = per_trace_rules[trace.name]
        if trace.name not in pair_sub_names:
            check_segment_lengths(trace, rules, report)
            check_self_clearance(trace, rules, report)
        else:
            check_self_clearance(trace, rules, report, required=trace.width)
        check_obstacle_clearance(trace, board.obstacles, rules, report)
        if check_areas:
            area = board.routable_areas.get(trace.name)
            if area is not None:
                check_containment(trace, area, report)

    for i in range(len(all_traces)):
        for j in range(i + 1, len(all_traces)):
            a, b = all_traces[i], all_traces[j]
            if frozenset((a.name, b.name)) in same_pair_keys:
                continue
            if a.net and a.net == b.net:
                continue
            rules = DesignRules(
                dgap=max(per_trace_rules[a.name].dgap, per_trace_rules[b.name].dgap),
                dobs=max(per_trace_rules[a.name].dobs, per_trace_rules[b.name].dobs),
                dprotect=max(
                    per_trace_rules[a.name].dprotect, per_trace_rules[b.name].dprotect
                ),
            )
            check_trace_pair_clearance(a, b, rules, report)
    return report
