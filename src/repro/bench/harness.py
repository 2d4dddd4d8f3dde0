"""Benchmark harness — regenerates every table and figure of Sec. VI.

Each ``run_*`` function returns the structured rows and prints the same
columns the paper reports; ``python -m repro.bench.harness all`` rebuilds
everything, including the SVG figures under ``out/``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

from ..api import RoutingSession, SessionConfig
from ..core import (
    AiDTProxy,
    ClearanceScene,
    ExtensionConfig,
    FixedTrackMeander,
    TraceExtender,
)
from ..dtw import convert_pair, restore_pair
from ..model import Board, Trace
from ..viz import render_board
from .designs import (
    TABLE1_SPECS,
    TABLE2_DGAPS,
    TABLE2_LENGTH,
    TABLE2_WIDTH,
    make_any_direction_design,
    make_msdtw_case,
    make_table1_case,
    make_table2_design,
)
from .metrics import (
    Table1Row,
    Table2Row,
    avg_error_pct,
    extension_upper_bound_pct,
    format_table,
    max_error_pct,
)


# -- Table I --------------------------------------------------------------------------


def _bench_session(board) -> RoutingSession:
    """A matching-only session: Table boards carve their own corridors,
    and the harness times the DRC separately — the ``bench`` preset keeps
    engine timings comparable to the paper's."""
    return RoutingSession(board, config=SessionConfig.preset("bench"))


def run_table1(
    cases: Optional[Sequence[int]] = None, verbose: bool = True
) -> List[Table1Row]:
    """Overall length-matching performance: ours vs. the AiDT proxy."""
    rows: List[Table1Row] = []
    for case in cases or [s.case for s in TABLE1_SPECS]:
        board_ours, spec = make_table1_case(case)
        board_aidt, _ = make_table1_case(case)

        group_ours = board_ours.groups[0]
        initial_max = max_error_pct(
            spec.l_target, [m.length() for m in group_ours.members]
        )
        initial_avg = avg_error_pct(
            spec.l_target, [m.length() for m in group_ours.members]
        )

        t0 = time.perf_counter()
        aidt_report = AiDTProxy(board_aidt).match_group(board_aidt.groups[0])
        aidt_runtime = time.perf_counter() - t0

        result = _bench_session(board_ours).run()
        ours_report = result.groups[0]
        ours_runtime = result.stage("match").runtime

        rows.append(
            Table1Row(
                case=spec.case,
                l_target=spec.l_target,
                dgap=spec.dgap,
                group_size=spec.group_size,
                trace_type=spec.trace_type,
                spacing=spec.spacing,
                initial_max=initial_max,
                aidt_max=aidt_report.max_error() * 100.0,
                ours_max=ours_report.max_error() * 100.0,
                initial_avg=initial_avg,
                aidt_avg=aidt_report.avg_error() * 100.0,
                ours_avg=ours_report.avg_error() * 100.0,
                aidt_runtime=aidt_runtime,
                ours_runtime=ours_runtime,
            )
        )
    if verbose:
        print("\nTable I — length-matching performance (errors in %)")
        print(format_table(Table1Row.HEADER, rows))
    return rows


# -- Table II --------------------------------------------------------------------------


def run_table2(
    dgaps: Optional[Sequence[float]] = None, verbose: bool = True
) -> List[Table2Row]:
    """DP ablation: extension upper bound with vs. without DP (Eq. 20)."""
    rows: List[Table2Row] = []
    for case, dgap in enumerate(dgaps or TABLE2_DGAPS, start=1):
        with_dp = _table2_upper_bound(dgap, use_dp=True)
        without_dp = _table2_upper_bound(dgap, use_dp=False)
        rows.append(
            Table2Row(
                case=case,
                dgap=dgap,
                w_trace=TABLE2_WIDTH,
                ideal_patterns=TABLE2_LENGTH / dgap,
                with_dp=with_dp,
                without_dp=without_dp,
            )
        )
    if verbose:
        print("\nTable II — extension upper bound with and without DP (Eq. 20, %)")
        print(format_table(Table2Row.HEADER, rows))
    return rows


def _table2_extender(board: Board, trace: Trace, use_dp: bool):
    rules = board.rules.rules_for_points(trace.path.points)
    area = board.member_routable_area(trace)
    cls = TraceExtender if use_dp else FixedTrackMeander
    return cls(
        rules=rules,
        area=area,
        scene=ClearanceScene(board.obstacles),
        config=ExtensionConfig(max_iterations=800),
    )


def _table2_upper_bound(dgap: float, use_dp: bool) -> float:
    board, trace = make_table2_design(dgap)
    extender = _table2_extender(board, trace, use_dp)
    result = extender.extension_upper_bound(trace)
    return extension_upper_bound_pct(trace.length(), result.achieved)


# -- figures ----------------------------------------------------------------------------


def run_figures(outdir: str = "out", verbose: bool = True) -> Dict[str, str]:
    """Regenerate the display figures (Figs. 14-16) as SVGs.

    Returns figure name -> written file path (what ``bench figures
    --json`` emits, so consumers can locate the artifacts).
    """
    os.makedirs(outdir, exist_ok=True)
    produced: Dict[str, str] = {}

    def emit(key: str, board: Board, **render_kwargs) -> None:
        path = os.path.join(outdir, f"{key}.svg")
        render_board(board, path, **render_kwargs)
        produced[key] = path

    # Fig. 14(a): a Table I dense case, before (dashed) and after.
    board, _ = make_table1_case(1)
    reference = {t.name: t.path for t in board.traces}
    _bench_session(board).run()
    emit("fig14a", board, reference=reference)

    # Fig. 14(b): any-direction functionality.
    board = make_any_direction_design()
    reference = {t.name: t.path for t in board.traces}
    _bench_session(board).run()
    emit("fig14b", board, reference=reference)

    # Fig. 15: Table II cases 1, 5, 6 with and without DP.
    for case_idx in (1, 5, 6):
        dgap = TABLE2_DGAPS[case_idx - 1]
        for use_dp in (True, False):
            board, trace = make_table2_design(dgap)
            extender = _table2_extender(board, trace, use_dp)
            result = extender.extension_upper_bound(trace)
            board.replace_trace(result.trace)
            tag = "dp" if use_dp else "nodp"
            emit(
                f"fig15_case{case_idx}_{tag}",
                board,
                reference={trace.name: trace.path},
            )

    # Fig. 16: MSDTW merge (a) and restoration (b).
    board, pair = make_msdtw_case()
    base_rules = board.rules.rules_for_points(pair.trace_p.path.points)
    conversion = convert_pair(pair, base_rules)
    merged = Board(
        outline=board.outline,
        rules=board.rules,
        traces=[conversion.median],
        pairs=[pair],
        obstacles=board.obstacles,
    )
    emit("fig16a", merged)

    restoration = restore_pair(conversion, conversion.median)
    restored = Board(
        outline=board.outline,
        rules=board.rules,
        traces=[conversion.median],
        pairs=[restoration.pair],
        obstacles=board.obstacles,
    )
    emit("fig16b", restored)

    if verbose:
        for _, path in sorted(produced.items()):
            print(f"wrote {path}")
    return produced


def run_bench(
    what: str,
    outdir: str = "out",
    cases: Optional[Sequence[int]] = None,
    dgaps: Optional[Sequence[float]] = None,
    emit_json: bool = False,
) -> Dict[str, object]:
    """Run the requested artefacts — the one backend behind both the
    ``python -m repro bench`` subcommand and this module's legacy CLI.

    Prints the rows as tables (or one JSON document when ``emit_json``)
    and returns the structured payload.
    """
    import json

    payload: Dict[str, object] = {}
    if what in ("table1", "all"):
        rows = run_table1(cases=cases, verbose=not emit_json)
        payload["table1"] = [vars(r) for r in rows]
    if what in ("table2", "all"):
        rows = run_table2(dgaps=dgaps, verbose=not emit_json)
        payload["table2"] = [vars(r) for r in rows]
    if what in ("figures", "all"):
        payload["figures"] = run_figures(outdir, verbose=not emit_json)
    if emit_json:
        print(json.dumps(payload, indent=2))
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Regenerate tables/figures — the legacy module entry point.

    Kept as a shim so ``python -m repro.bench.harness`` and old imports
    keep working; the real CLI lives in :mod:`repro.cli`.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "what",
        choices=["table1", "table2", "figures", "all"],
        help="which artefact to regenerate",
    )
    parser.add_argument("--outdir", default="out", help="figure output directory")
    parser.add_argument(
        "--cases", type=int, nargs="+", default=None,
        help="Table I cases to run (default: all)",
    )
    parser.add_argument(
        "--dgaps", type=float, nargs="+", default=None,
        help="Table II d_gap values to run (default: all)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print rows as JSON instead of tables"
    )
    args = parser.parse_args(argv)
    run_bench(
        args.what,
        outdir=args.outdir,
        cases=args.cases,
        dgaps=args.dgaps,
        emit_json=args.json,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
