"""The corpus runner: sweep generated scenarios through the pipeline.

``run_corpus`` generates every requested ``(scenario, seed)`` board,
routes the whole batch through the fault-isolated
:meth:`repro.api.RoutingSession.run_many` engine (optionally across
worker processes) and aggregates one JSON report: per-scenario success
rates, error/skew statistics and timings, plus an overall verdict gated
on the feasible-tagged subset.  A board whose pipeline crashes becomes
a ``status="crashed"`` report row counted against the gate — it never
aborts the sweep.  With an ``outdir``, every case's full run artifact
lands under ``<outdir>/results/`` as it completes, and ``resume=True``
skips the ``(scenario, seed)`` cases those artifacts already cover —
multi-hour sweeps restart where they stopped.  The aggregate report
round-trips through :func:`repro.io.save_corpus_report` and is what the
``corpus-smoke`` CI job uploads.
"""

from __future__ import annotations

import os
import statistics
import time
import warnings
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..api import RoutingSession, SessionConfig
from ..model import Board
from .registry import ScenarioFamily, generate, get, list_scenarios
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import ResultCache

#: Minimum routed-and-DRC-clean rate over feasible-tagged scenarios for
#: a corpus run to pass (what ``repro corpus run`` exits non-zero on).
CORPUS_GATE = 0.9

#: Seeds swept per scenario (``--quick`` keeps the first two).
DEFAULT_SEEDS: Sequence[int] = (0, 1, 2)
QUICK_SEEDS: Sequence[int] = (0, 1)


def _board_skews(board: Board) -> List[float]:
    return [pair.skew() for pair in board.pairs]


def _case_metrics(board: Board, result) -> Dict[str, Any]:
    """The per-(scenario, seed) row of the report."""
    drc_clean = result.drc is not None and result.drc.is_clean()
    skews = _board_skews(board)
    return {
        "board": board.name,
        "provenance": board.meta.get("scenario"),
        "ok": bool(result.ok()),
        "status": result.status,
        "error": result.error,
        "drc_clean": drc_clean,
        "drc_violations": len(result.drc) if result.drc is not None else None,
        "max_error": result.max_error(),
        "max_skew": max(skews) if skews else None,
        "run_s": result.runtime,
        "stages": {record.name: record.status for record in result.stages},
    }


def _aggregate(family: ScenarioFamily, cases: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One scenario's aggregate block."""
    oks = [c for c in cases if c["ok"]]
    crashed = [c for c in cases if c.get("status") == "crashed"]
    errors = [c["max_error"] for c in cases]
    skews = [c["max_skew"] for c in cases if c["max_skew"] is not None]
    times = [c["run_s"] for c in cases]
    return {
        "scenario": family.name,
        "difficulty": family.difficulty,
        "feasible": family.feasible,
        "tags": list(family.tags),
        "boards": len(cases),
        "ok": len(oks),
        "crashed": len(crashed),
        "success_rate": len(oks) / len(cases) if cases else None,
        "max_error_max": max(errors) if errors else None,
        "max_error_avg": sum(errors) / len(errors) if errors else None,
        "max_skew": max(skews) if skews else None,
        "run_s_median": statistics.median(times) if times else None,
        "run_s_total": sum(times),
        "cases": cases,
    }


def _results_dir(outdir: str) -> str:
    return os.path.join(outdir, "results")


def _load_completed_cases(
    outdir: str, preset: str
) -> Dict[str, Tuple[Dict[str, Any], Any]]:
    """Per-case artifacts from an earlier run, keyed by board name.

    Unreadable, foreign or malformed files under ``results/`` are
    skipped with a warning rather than failing the resume — the
    directory may hold a half-written artifact from the very crash
    being resumed around.  Artifacts routed under a different preset
    are skipped too (and hence re-routed): one report must not blend
    two configurations while claiming one.
    """
    from ..io import load_corpus_case

    completed: Dict[str, Tuple[Dict[str, Any], Any]] = {}
    results_dir = _results_dir(outdir)
    if not os.path.isdir(results_dir):
        return completed
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(results_dir, name)
        try:
            case, result = load_corpus_case(path)
            board_name = case["board"]
        except Exception as exc:
            # Deliberately broad: the directory may hold arbitrary
            # foreign JSON (a list-shaped document raises
            # AttributeError, a malformed nested result TypeError) and
            # none of it may abort a multi-hour resume.
            warnings.warn(
                f"resume: skipping unreadable case artifact {path}: {exc}",
                RuntimeWarning,
            )
            continue
        case_preset = result.config.get("preset_name")
        if case_preset != preset:
            warnings.warn(
                f"resume: re-routing {board_name}: its artifact was "
                f"produced under preset {case_preset!r}, this run uses "
                f"{preset!r}",
                RuntimeWarning,
            )
            continue
        completed[board_name] = (case, result)
    return completed


def run_corpus(
    scenarios: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    quick: bool = False,
    preset: str = "fast",
    workers: Optional[int] = None,
    outdir: Optional[str] = None,
    save_boards: bool = False,
    gate: float = CORPUS_GATE,
    verbose: bool = False,
    timeout: Optional[float] = None,
    retry: bool = False,
    resume: bool = False,
    cache: Union[str, "ResultCache", None] = None,
    on_case: Optional[Callable[[Dict[str, Any]], None]] = None,
    fixtures: Optional[Sequence[str]] = None,
    fixture_match: str = "",
) -> Dict[str, Any]:
    """Generate, route and score a scenario corpus; returns the report.

    ``quick`` is the CI smoke configuration: every scenario's
    ``quick_overrides`` applied, two seeds, serial execution (a
    requested ``workers`` value is ignored with a warning; the report's
    ``workers`` key always records the *effective* count).  With an
    ``outdir`` the aggregate report lands in
    ``<outdir>/corpus_report.json``, every case's full run artifact in
    ``<outdir>/results/<board>.json`` (plus, with ``save_boards``, every
    generated board — pre-route, as generated — under
    ``<outdir>/boards/``).  ``resume=True`` (requires ``outdir``) loads
    those per-case artifacts and routes only the ``(scenario, seed)``
    cases that have none yet.  ``timeout`` and ``retry`` are the
    executor's per-board knobs (workers mode).  The report's
    ``summary.gate_passed`` is the corpus verdict: the success rate over
    feasible-tagged scenarios must reach ``gate`` — crashed cases count
    against it like any other non-OK run.

    ``cache`` (a directory path or a live
    :class:`~repro.cache.ResultCache`) wires the content-addressed
    result cache underneath the sweep: each generated board's cache key
    (canonical board JSON + config fingerprint + library version) is
    probed before routing, hits adopt their cached routed geometry and
    skip the pipeline entirely, and fresh non-crashed results are
    published back — so only *changed* boards re-route across repeated
    sweeps, incremental far beyond ``resume``.  ``on_case`` fires with
    each case row as it settles (resumed, cached, then routed), which is
    how the server streams corpus progress.
    """
    from ..io import (
        board_from_dict,
        board_to_dict,
        run_result_from_dict,
        save_board,
        save_corpus_case,
        save_corpus_report,
    )

    # ``fixtures`` are real board files for the ``imported`` family: one
    # case per file (seeds do not apply — the board is a pure function
    # of the file bytes), spec-pinned by path + content hash.
    fixtures = list(dict.fromkeys(fixtures)) if fixtures else []
    if scenarios is not None:
        # Dedupe while keeping request order: a repeated name must not
        # route its boards twice nor double-count in the gate statistics
        # (aggregation is keyed by name).
        families = []
        for name in dict.fromkeys(scenarios):
            families.append(get(name))
    else:
        # Families with required params (``imported``) cannot build from
        # a bare (name, seed) spec; they join the default sweep only
        # when fixtures supply what they need.
        families = [f for f in list_scenarios() if not f.requires]
    if fixtures and all(f.name != "imported" for f in families):
        families.append(get("imported"))
    for family in families:
        if family.requires and family.name == "imported" and not fixtures:
            raise ValueError(
                "scenario 'imported' needs board files: pass --fixture "
                "<file.kicad_pcb> (repeatable) to say what to import"
            )
        if family.requires and family.name != "imported":
            raise ValueError(
                f"scenario '{family.name}' requires parameter(s) "
                f"{', '.join(family.requires)} and cannot run in a "
                "corpus sweep"
            )
    # Seeds dedupe for the same reason scenario names do above: a
    # repeated seed must not double-route nor double-count in the gate.
    seeds = tuple(dict.fromkeys(seeds)) if seeds is not None else (
        QUICK_SEEDS if quick else DEFAULT_SEEDS
    )
    workers_requested = workers
    if quick and workers is not None and workers > 1:
        warnings.warn(
            f"workers={workers} ignored: --quick is the serial smoke "
            "configuration",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = None
    if save_boards and outdir is None:
        raise ValueError("save_boards requires an outdir to write into")
    if resume and outdir is None:
        raise ValueError("resume requires the outdir of the run to pick up")

    specs: List[ScenarioSpec] = []
    boards: List[Board] = []
    for family in families:
        if family.name == "imported":
            from ..model.kicad import file_sha256

            for path in fixtures:
                spec = ScenarioSpec(
                    name=family.name,
                    seed=0,
                    params={
                        "path": path,
                        "sha256": file_sha256(path),
                        "match": fixture_match,
                    },
                )
                specs.append(spec)
                boards.append(generate(spec))
            continue
        params = dict(family.quick_overrides) if quick else {}
        for seed in seeds:
            spec = ScenarioSpec(name=family.name, seed=seed, params=params)
            specs.append(spec)
            boards.append(generate(spec))

    if outdir is not None and save_boards:
        # Save *before* routing: the session mutates boards in place, and
        # the flag promises the pristine generated inputs (the whole
        # point of capturing a failing workload for replay).
        boards_dir = os.path.join(outdir, "boards")
        os.makedirs(boards_dir, exist_ok=True)
        for board in boards:
            save_board(board, os.path.join(boards_dir, f"{board.name}.json"))

    completed = _load_completed_cases(outdir, preset) if resume else {}
    # An artifact only covers a case when its full provenance — name,
    # seed and *effective params* — matches what this run would
    # generate: board names carry no params, so a full-run artifact
    # must not masquerade as a --quick case (or vice versa).
    for board in boards:
        entry = completed.get(board.name)
        if entry is None:
            continue
        if entry[0].get("provenance") != board.meta.get("scenario"):
            warnings.warn(
                f"resume: re-routing {board.name}: its artifact was "
                "generated under different scenario parameters",
                RuntimeWarning,
            )
            del completed[board.name]
    cases_by_board: Dict[str, Dict[str, Any]] = {
        name: case for name, (case, _result) in completed.items()
    }
    if on_case is not None:
        for name, (case, _result) in completed.items():
            on_case(case)

    results_dir = _results_dir(outdir) if outdir is not None else None

    # -- content-addressed cache probe (see the docstring) ------------------
    cache_obj: Optional["ResultCache"] = None
    if cache is not None:
        from ..cache import ResultCache
        from ..cache import cache_key as _corpus_cache_key

        cache_obj = ResultCache(cache) if isinstance(cache, str) else cache
    cached_names: set = set()
    keys_by_name: Dict[str, str] = {}
    if cache_obj is not None:
        # Keys are computed from the *pre-route* board (the session
        # mutates boards in place) under the one effective config.
        fingerprint = SessionConfig.preset(preset).fingerprint()
        for board in boards:
            if board.name in completed:
                continue
            key = _corpus_cache_key(board_to_dict(board), fingerprint)
            keys_by_name[board.name] = key
            entry = cache_obj.get(key)
            if entry is None:
                continue
            result = run_result_from_dict(entry["result"])
            if entry.get("routed_board") is not None:
                # Adopt the cached routed geometry so skew/DRC metrics
                # see the board exactly as the producing run left it.
                from ..api.executor import _adopt_routed

                _adopt_routed(board, board_from_dict(entry["routed_board"]))
            case = _case_metrics(board, result)
            cases_by_board[board.name] = case
            cached_names.add(board.name)
            if results_dir is not None:
                os.makedirs(results_dir, exist_ok=True)
                save_corpus_case(
                    case,
                    result,
                    os.path.join(results_dir, f"{board.name}.json"),
                )
            if on_case is not None:
                on_case(case)

    run_boards = [
        board
        for board in boards
        if board.name not in completed and board.name not in cached_names
    ]
    # What run_many will actually do, recorded in the report (the serial
    # fallbacks below mirror the executor's own dispatch rule).
    effective_workers = (
        workers if workers is not None and workers > 1 and len(run_boards) > 1 else 1
    )

    if results_dir is not None and run_boards:
        os.makedirs(results_dir, exist_ok=True)

    def on_board_done(index: int, board: Board, result) -> None:
        # One row per case, computed here (the board's routed geometry
        # is adopted by the time the callback fires) and shared by the
        # artifact and the report — recomputing in two places would let
        # them drift apart.  Persisting as each case settles, not after
        # the sweep, is what leaves resume its artifacts behind a
        # killed run.
        case = _case_metrics(board, result)
        cases_by_board[board.name] = case
        if results_dir is not None:
            save_corpus_case(
                case, result, os.path.join(results_dir, f"{board.name}.json")
            )
        if cache_obj is not None:
            cache_obj.publish(keys_by_name[board.name], result, board)
        if on_case is not None:
            on_case(case)

    started = time.perf_counter()
    if run_boards:
        # A fully resumed/cached sweep never touches the executor at
        # all (the corpus cache tests pin this down by poisoning it).
        RoutingSession.run_many(
            run_boards,
            config=preset,
            workers=workers,
            timeout=timeout,
            retry=retry,
            on_board_done=on_board_done,
        )
    wall_s = time.perf_counter() - started

    by_scenario: Dict[str, List[Dict[str, Any]]] = {f.name: [] for f in families}
    for spec, board in zip(specs, boards):
        case = cases_by_board[board.name]
        by_scenario[spec.name].append(case)
        if verbose:
            note = (
                " (resumed)"
                if board.name in completed
                else " (cached)" if board.name in cached_names else ""
            )
            print(
                f"  {board.name:<24} {case['status']:<8} ok={case['ok']!s:<5} "
                f"err={case['max_error']:.5f} {case['run_s']:.2f}s{note}"
            )

    aggregates = [_aggregate(family, by_scenario[family.name]) for family in families]
    feasible = [a for a in aggregates if a["feasible"] and a["boards"]]
    feasible_boards = sum(a["boards"] for a in feasible)
    feasible_ok = sum(a["ok"] for a in feasible)
    feasible_rate = feasible_ok / feasible_boards if feasible_boards else None
    report: Dict[str, Any] = {
        "quick": quick,
        "preset": preset,
        "seeds": list(seeds),
        "workers": effective_workers,
        "workers_requested": workers_requested,
        "wall_s": wall_s,
        "scenarios": aggregates,
        "summary": {
            "boards": len(boards),
            "ok": sum(a["ok"] for a in aggregates),
            "crashed": sum(a["crashed"] for a in aggregates),
            "resumed": len([b for b in boards if b.name in completed]),
            "cached": len(cached_names),
            "feasible_boards": feasible_boards,
            "feasible_ok": feasible_ok,
            "feasible_success_rate": feasible_rate,
            "gate": gate,
            "gate_passed": feasible_rate is not None and feasible_rate >= gate,
        },
    }

    if cache_obj is not None:
        report["cache"] = cache_obj.stats()

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        save_corpus_report(report, os.path.join(outdir, "corpus_report.json"))
    if verbose:
        summary = report["summary"]
        crashed_note = (
            f", {summary['crashed']} crashed" if summary["crashed"] else ""
        )
        resumed_note = (
            f", {summary['resumed']} resumed" if summary["resumed"] else ""
        )
        cached_note = (
            f", {summary['cached']} cached" if summary["cached"] else ""
        )
        print(
            f"corpus: {summary['ok']}/{summary['boards']} ok{crashed_note}"
            f"{resumed_note}{cached_note}, feasible "
            f"{summary['feasible_ok']}/{summary['feasible_boards']} "
            f"(gate {gate:.0%}: "
            f"{'passed' if summary['gate_passed'] else 'FAILED'}), "
            f"{wall_s:.1f}s wall"
        )
    return report
