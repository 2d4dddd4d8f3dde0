"""The ``python -m repro`` command-line interface.

Subcommands::

    python -m repro route board.json --preset quality --out result.json
    python -m repro check board.json --json
    python -m repro render board.json -o board.svg --show-areas
    python -m repro gen bga_escape --seed 7 --out board.json --svg board.svg
    python -m repro gen --list
    python -m repro corpus run --quick --outdir out
    python -m repro corpus run --resume out
    python -m repro corpus run --cache-dir .repro-cache
    python -m repro serve --port 8765 --cache-dir .repro-cache
    python -m repro route board.json --remote http://127.0.0.1:8765 --json
    python -m repro bench table1 --cases 1 --json
    python -m repro bench all --outdir out
    python -m repro bench --perf --quick
    python -m repro bench --perf --profile
    python -m repro bench --perf --quick --guard BENCH_perf.json --out out/perf.json
    python -m repro route board.json --trace trace.json
    python -m repro trace summarize trace.json
    python -m repro serve --trace-dir traces/
    python -m repro import board.kicad_pcb --out board.json --json
    python -m repro import board.kicad_pcb --match BUS --svg board.svg
    python -m repro corpus run --fixture tests/kicad/fixtures/demo_bus.kicad_pcb

``route`` runs the full :class:`~repro.api.RoutingSession` pipeline and
can persist the structured :class:`~repro.api.RunResult` (with
``--remote URL`` the board is routed by a running ``serve`` daemon
instead, same envelope and exit codes); ``check`` is
the stand-alone DRC gate; ``serve`` runs the :mod:`repro.server`
routing-as-a-service daemon in front of the :mod:`repro.cache`
content-addressed result cache; ``render`` draws a board; ``gen`` builds a
seeded :mod:`repro.scenarios` board (same scenario + seed + params ⇒
byte-identical JSON); ``corpus run`` sweeps the scenario corpus and
writes the aggregate report; ``bench`` regenerates the paper's tables
and figures (the pre-redesign top-level
``table1``/``table2``/``figures``/``all`` spellings keep working as
aliases) or, with ``--perf``, times the hot paths and writes the
``BENCH_perf.json`` baseline (see PERFORMANCE.md); ``import`` ingests a
real KiCad ``.kicad_pcb`` board through :mod:`repro.model.kicad` — its
``--json`` envelope carries the validator report, and its exit codes
distinguish parse error (2), validation-fatal or ``--strict`` warnings
(1), and ok-with-warnings (0).

Exit codes (documented in README, gated by CI): **0** on success; **1**
when routing ends un-OK (failed stage, missed targets, or DRC
violations remain), when a plain ``check`` finds violations, or when
``corpus run`` misses its feasible-success gate; **2** on bad usage or
unreadable/invalid input (argparse's convention), a ``--tolerance``
included.  A batch is never all-or-nothing: a board
whose pipeline crashes becomes a ``status="crashed"`` report row
counted against the gate, and ``corpus run --resume <outdir>`` restarts
a killed sweep from its per-case artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from .api import RoutingSession, SessionConfig
from .drc import check_board
from .io import (
    board_to_json,
    check_response,
    corpus_report_to_dict,
    error_response,
    load_board,
    load_trace,
    route_response,
    run_result_to_dict,
    save_board,
    save_result,
    save_trace,
)
# The package root imports repro.scenarios anyway, so this costs nothing
# extra at CLI start-up.
from . import obs, scenarios
from .scenarios import CORPUS_GATE
from .viz import render_board

#: Legacy top-level spellings, silently rewritten to ``bench <what>``.
_LEGACY_BENCH = ("table1", "table2", "figures", "all")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Obstacle-aware length-matching routing (DAC'24 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser(
        "route", help="run the full pipeline on a board JSON file"
    )
    route.add_argument("board", help="input board JSON (see repro.io)")
    route.add_argument(
        "--preset",
        default="default",
        choices=SessionConfig.PRESETS,
        help="named SessionConfig preset (default: %(default)s)",
    )
    route.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="session-wide tolerance override (absolute length units)",
    )
    route.add_argument(
        "--no-region", action="store_true", help="skip the region-assignment LP"
    )
    route.add_argument(
        "--no-drc", action="store_true", help="skip the final DRC gate"
    )
    route.add_argument(
        "--out", default=None, metavar="RESULT.json",
        help="write the structured RunResult as JSON",
    )
    route.add_argument(
        "--svg", default=None, metavar="BOARD.svg",
        help="render the routed board",
    )
    route.add_argument(
        "--json", action="store_true",
        help="print the route_response envelope (key, cache state, "
        "status, RunResult) as JSON instead of the summary — the same "
        "schema a repro server answers with",
    )
    route.add_argument(
        "--quiet", action="store_true", help="suppress stage progress lines"
    )
    route.add_argument(
        "--remote", default=None, metavar="URL",
        help="send the board to a running `repro serve` daemon at URL "
        "instead of routing in-process (same envelope, same exit codes)",
    )
    route.add_argument(
        "--remote-timeout", type=float, default=None, metavar="S",
        help="with --remote: overall deadline budget in seconds across "
        "all attempts (default: one 300 s socket timeout per attempt)",
    )
    route.add_argument(
        "--remote-retries", type=int, default=None, metavar="N",
        help="with --remote: transport retries after the first attempt "
        "(capped exponential backoff + jitter; default: 2). The route "
        "request is content-addressed, so replays are safe",
    )
    route.add_argument(
        "--trace", default=None, metavar="TRACE.json",
        help="collect a repro.obs span trace of the run and write it "
        "here (local runs only; inspect with `repro trace summarize`)",
    )

    check = sub.add_parser("check", help="DRC-check a board JSON file")
    check.add_argument("board")
    check.add_argument(
        "--no-areas",
        action="store_true",
        help="skip routable-area containment checks",
    )
    check.add_argument(
        "--net-classes",
        action="store_true",
        help="also enforce per-net-class clearances recorded by the "
        "KiCad importer (no-op on boards without class tables)",
    )
    check.add_argument(
        "--json", action="store_true",
        help="print the check_response envelope (clean flag, violation "
        "count, report) as JSON — the same schema a repro server "
        "answers with",
    )

    render = sub.add_parser("render", help="render a board JSON file to SVG")
    render.add_argument("board")
    render.add_argument("-o", "--out", required=True, metavar="BOARD.svg")
    render.add_argument("--scale", type=float, default=4.0)
    render.add_argument(
        "--show-areas", action="store_true", help="draw assigned routable areas"
    )

    imp = sub.add_parser(
        "import",
        help="import a KiCad .kicad_pcb board file (repro.model.kicad)",
    )
    imp.add_argument("file", help="path of the .kicad_pcb file")
    imp.add_argument(
        "--out", default=None, metavar="BOARD.json",
        help="write the imported board as board JSON (routable via "
        "`repro route`)",
    )
    imp.add_argument(
        "--svg", default=None, metavar="BOARD.svg",
        help="render the imported board",
    )
    imp.add_argument(
        "--json", action="store_true",
        help="print the import_response envelope (content hash, counts, "
        "full validator report) as JSON",
    )
    imp.add_argument(
        "--strict", action="store_true",
        help="treat validator warnings as failures (exit 1); fatal "
        "findings always fail",
    )
    imp.add_argument(
        "--match", default="", metavar="NET_CLASS",
        help="bind the traces of the named KiCad net class into one "
        "length-matching group (target: the longest member)",
    )
    imp.add_argument(
        "--name", default=None,
        help="override the imported board's name (default: the file stem)",
    )

    gen = sub.add_parser(
        "gen", help="generate a seeded scenario board (repro.scenarios)"
    )
    gen.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (see --list)",
    )
    gen.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="generator seed (default: 0)",
    )
    gen.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override one generator parameter (repeatable; values parse "
        "as JSON, falling back to strings)",
    )
    gen.add_argument(
        "--out", default=None, metavar="BOARD.json",
        help="write the board JSON (default: stdout)",
    )
    gen.add_argument(
        "--svg", default=None, metavar="BOARD.svg", help="render the board"
    )
    gen.add_argument(
        "--list", action="store_true",
        help="describe every registered scenario (or just the named one) "
        "and exit",
    )

    corpus = sub.add_parser(
        "corpus", help="run the scenario corpus and write the aggregate report"
    )
    corpus.add_argument("action", choices=("run",), help="corpus action")
    corpus.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: small boards, two seeds, serial",
    )
    corpus.add_argument(
        "--outdir", default=None,
        help="write corpus_report.json (and, with --save-boards, the "
        "generated boards) under this directory; omit for stdout-only",
    )
    corpus.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="restrict to the named scenario (repeatable; default: all)",
    )
    corpus.add_argument(
        "--seeds", type=int, nargs="+", default=None, metavar="S",
        help="explicit seed list (default: 0 1 2, or 0 1 with --quick)",
    )
    corpus.add_argument(
        "--preset", default="fast", choices=SessionConfig.PRESETS,
        help="SessionConfig preset for every run (default: %(default)s)",
    )
    corpus.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="route the corpus in N processes (ignored with --quick)",
    )
    corpus.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-board wall-clock budget in seconds (workers mode); a "
        "board over budget becomes a crashed report row",
    )
    corpus.add_argument(
        "--retry", action="store_true",
        help="resubmit each crashed board once (workers mode)",
    )
    corpus.add_argument(
        "--resume", default=None, metavar="OUTDIR",
        help="pick up the run whose per-case artifacts live under "
        "OUTDIR/results/, routing only the (scenario, seed) cases "
        "without one (implies --outdir OUTDIR)",
    )
    corpus.add_argument(
        "--save-boards", action="store_true",
        help="also write every generated board under <outdir>/boards/",
    )
    corpus.add_argument(
        "--gate", type=float, default=CORPUS_GATE, metavar="RATE",
        help="feasible success rate required to exit 0 (default: %(default)s)",
    )
    corpus.add_argument(
        "--json", action="store_true",
        help="print the aggregate report as JSON instead of the summary",
    )
    corpus.add_argument(
        "--fixture", action="append", default=None, metavar="FILE.kicad_pcb",
        help="route this real board through the 'imported' family "
        "(repeatable; one case per file, spec-pinned by content hash)",
    )
    corpus.add_argument(
        "--fixture-match", default="", metavar="NET_CLASS",
        help="with --fixture: bind each board's named net class into a "
        "length-matching group",
    )
    corpus.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache: boards whose (board JSON, "
        "config, version) key is already cached skip routing entirely; "
        "fresh results are published back (see repro.cache)",
    )
    corpus.add_argument(
        "--trace", default=None, metavar="TRACE.json",
        help="collect a repro.obs span trace of the whole sweep "
        "(worker-process traces are grafted in) and write it here",
    )

    serve = sub.add_parser(
        "serve", help="run the routing-as-a-service HTTP daemon"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: %(default)s)",
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port; 0 binds an ephemeral port, announced on stdout "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="persistent content-addressed result cache directory "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="N",
        help="cache size budget; oldest-used entries are evicted past it "
        "(default: 256 MiB)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker-process cap for batch requests (default: in-process "
        "serial routing)",
    )
    serve.add_argument(
        "--request-deadline", type=float, default=None, metavar="S",
        help="per-request wall-clock budget for single-answer endpoints; "
        "an overrunning request answers 504 (default: unbounded)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="on SIGTERM/Ctrl-C: seconds to wait for in-flight requests "
        "(including open NDJSON streams) to finish before closing "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one repro.obs trace JSON per request under DIR and "
        "echo its id in the X-Repro-Trace response header "
        "(default: tracing off)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )

    trace = sub.add_parser(
        "trace", help="inspect a repro.obs trace artifact"
    )
    trace.add_argument("action", choices=("summarize",), help="trace action")
    trace.add_argument("path", help="trace JSON written by --trace / --trace-dir")
    trace.add_argument(
        "--tree", action="store_true",
        help="print the span tree (indented, with durations) instead of "
        "the per-name aggregate table",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="print the aggregate rows as JSON",
    )

    bench = sub.add_parser(
        "bench",
        help="regenerate the paper's tables and figures, or run the perf bench",
    )
    bench.add_argument(
        "what", nargs="?", default=None, choices=list(_LEGACY_BENCH),
        help="artefact to regenerate (omit when using --perf)",
    )
    bench.add_argument(
        "--perf", action="store_true",
        help="time the hot paths and write a BENCH_perf.json baseline",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="with --perf: smallest scales, one repeat (the CI smoke run)",
    )
    bench.add_argument(
        "--out", default=None, metavar="PERF.json",
        help="with --perf: where to write the baseline "
        "(default: BENCH_perf.json)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="with --perf: also cProfile the match hot path and write "
        "the top-25 cumulative table next to the baseline",
    )
    bench.add_argument(
        "--guard", default=None, metavar="BASELINE.json",
        help="with --perf: fail (exit 1) if the extension-phase median "
        "regresses more than 2x against this committed baseline "
        "(machine speed normalized by the frozen calibration kernel), "
        "if any dtw, extension or region digest differs from it, or if "
        "a startup row (bare import, idle daemon) loaded scipy",
    )
    bench.add_argument(
        "--outdir", default=None,
        help="figure output directory (default: out)",
    )
    bench.add_argument(
        "--cases", type=int, nargs="+", default=None, metavar="N",
        help="Table I cases to run (default: all); --cases 1 is the CI fast path",
    )
    bench.add_argument(
        "--dgaps", type=float, nargs="+", default=None, metavar="G",
        help="Table II d_gap values to run (default: all)",
    )
    bench.add_argument(
        "--json", action="store_true", help="print rows as JSON instead of tables"
    )
    return parser


# -- handlers -----------------------------------------------------------------------


def _cmd_route(args: argparse.Namespace) -> int:
    board = load_board(args.board)
    config = SessionConfig.preset(args.preset)
    if args.tolerance is not None:
        config.tolerance = args.tolerance
        config.check()
    if args.no_region:
        config.region.enabled = False
    if args.no_drc:
        config.drc.enabled = False

    if args.remote is not None:
        if args.trace is not None:
            print(
                "error: --trace records the local pipeline; with --remote "
                "the routing happens in the daemon (start it with "
                "`repro serve --trace-dir` instead)",
                file=sys.stderr,
            )
            return 2
        return _route_remote(args, board, config)

    # The content address of this computation — captured *before*
    # routing mutates the board, so local and remote envelopes agree on
    # the key for the same request.
    from .cache import cache_key
    from .io import board_to_dict

    key = cache_key(board_to_dict(board), config.fingerprint())

    on_stage_start = None
    if not args.quiet and not args.json:
        on_stage_start = lambda session, stage: print(f"[{stage.name}] ...")
    session = RoutingSession(board, config, on_stage_start=on_stage_start)
    if args.trace is not None:
        trace_attrs: Dict[str, Any] = {
            "board": board.name, "preset": args.preset
        }
        kicad_meta = board.meta.get("kicad")
        if isinstance(kicad_meta, dict) and kicad_meta.get("source"):
            trace_attrs["source"] = kicad_meta["source"]
        with obs.trace(f"route {board.name}", **trace_attrs) as collected:
            result = session.run()
        save_trace(collected, args.trace)
        # Stamped before save_result so the artifact records where its
        # trace lives; untraced runs keep the field unset (and the JSON
        # byte-identical to pre-observability artifacts).
        result.trace_ref = args.trace
    else:
        result = session.run()

    if args.out:
        save_result(result, args.out)
    if args.svg:
        render_board(board, path=args.svg)
    if args.json:
        envelope = route_response(key, None, run_result_to_dict(result))
        print(json.dumps(envelope, indent=2))
    else:
        print(result.summary())
        if args.out:
            print(f"wrote {args.out}")
        if args.svg:
            print(f"wrote {args.svg}")
        if args.trace:
            print(f"wrote {args.trace}")
    return 0 if result.ok() else 1


def _route_remote(args: argparse.Namespace, board, config) -> int:
    """Route via a running daemon; same outputs and exit codes as local.

    An unreachable daemon (refused, reset, dead mid-retry) is an
    operational error, not a crash: the typed
    :class:`~repro.server.client.TransportError` becomes a clean
    ``error_response`` envelope (with ``--json``) or a one-line stderr
    message, and exit code 2 — never a traceback.
    """
    from .io import board_from_dict, run_result_from_dict
    from .server.client import DEFAULT_RETRIES, ServerClient, TransportError

    client = ServerClient(
        args.remote,
        retries=(
            args.remote_retries
            if args.remote_retries is not None
            else DEFAULT_RETRIES
        ),
        deadline=args.remote_timeout,
    )
    try:
        response = client.route(
            board,
            config=config.to_dict(),
            # The routed geometry only travels back when something needs it.
            return_board=args.svg is not None,
        )
    except TransportError as exc:
        if args.json:
            print(json.dumps(error_response(exc), indent=2))
        print(f"error: {args.remote}: {exc}", file=sys.stderr)
        return 2
    envelope = response.payload
    if envelope.get("kind") == "error_response":
        message = envelope.get("error", {}).get("message", "server error")
        print(f"error: {args.remote}: {message}", file=sys.stderr)
        return 2
    result = run_result_from_dict(envelope["result"])
    if args.out:
        save_result(result, args.out)
    if args.svg and envelope.get("routed_board") is not None:
        render_board(board_from_dict(envelope["routed_board"]), path=args.svg)
    if args.json:
        # The server's envelope verbatim (minus the board geometry,
        # which --json consumers did not ask for).
        envelope.pop("routed_board", None)
        print(json.dumps(envelope, indent=2))
    else:
        cache_note = envelope.get("cache")
        print(result.summary())
        print(f"served by {args.remote} (cache {cache_note})")
        if args.out:
            print(f"wrote {args.out}")
        if args.svg:
            print(f"wrote {args.svg}")
    return 0 if result.ok() else 1


def _cmd_check(args: argparse.Namespace) -> int:
    board = load_board(args.board)
    report = check_board(board, check_areas=not args.no_areas)
    if args.net_classes:
        from .drc import check_net_classes

        check_net_classes(board, report)
    if args.json:
        # Byte-compatible with POST /check: local and remote DRC gates
        # are interchangeable to machine consumers.
        print(json.dumps(check_response(report), indent=2))
    else:
        print("DRC clean" if report.is_clean() else str(report))
    return 0 if report.is_clean() else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .cache import DEFAULT_MAX_BYTES
    from .server import make_http_server

    server = make_http_server(
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_max_bytes=(
            args.cache_max_bytes
            if args.cache_max_bytes is not None
            else DEFAULT_MAX_BYTES
        ),
        quiet=args.quiet,
        request_deadline=args.request_deadline,
        trace_dir=args.trace_dir,
    )
    # SIGTERM (the deploy/orchestrator stop signal) begins a graceful
    # drain: stop admitting, finish in-flight requests and open NDJSON
    # streams, then exit 0.  The handler only *requests* the shutdown —
    # the drain itself happens in serve_forever's cleanup below, on the
    # main thread, inside the --drain-timeout budget.
    signal.signal(
        signal.SIGTERM, lambda *_: server.request_graceful_shutdown()
    )
    cache_note = args.cache_dir
    if server.app.cache.degraded is not None:
        cache_note += " [DEGRADED: serving without a cache]"
    # Announced on stdout (and flushed) so wrappers that asked for an
    # ephemeral port (--port 0) can read the real endpoint back.
    trace_note = f", traces: {args.trace_dir}" if args.trace_dir else ""
    print(
        f"repro-serve listening on {server.url} "
        f"(cache: {cache_note}, workers: {args.workers or 'serial'}"
        f"{trace_note})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        drained = server.shutdown(drain_timeout=args.drain_timeout)
        if not drained:
            print(
                "warning: drain timeout expired with requests in flight",
                file=sys.stderr,
            )
    return 0


def _parse_param(text: str) -> tuple:
    """One ``KEY=VALUE`` override; values parse as JSON, else strings."""
    if "=" not in text:
        raise ValueError(f"--param expects KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.list:
        ignored = [
            flag
            for flag, used in (
                ("--seed", args.seed is not None),
                ("--param", bool(args.param)),
                ("--out", args.out is not None),
                ("--svg", args.svg is not None),
            )
            if used
        ]
        if ignored:
            print(
                f"error: {', '.join(ignored)} only applies when generating "
                "a board, not to --list",
                file=sys.stderr,
            )
            return 2
        if args.scenario is not None:
            try:
                print(scenarios.describe(args.scenario))
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
            return 0
        for family in scenarios.list_scenarios():
            print(family.describe())
            print()
        return 0
    if args.scenario is None:
        print(
            "error: gen needs a scenario name (or --list)", file=sys.stderr
        )
        return 2
    params: Dict[str, Any] = dict(
        _parse_param(item) for item in args.param
    )
    try:
        board = scenarios.generate(
            args.scenario, seed=args.seed or 0, params=params
        )
    except KeyError as exc:
        # Unknown scenario name (the message lists what exists).
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.out:
        save_board(board, args.out)
        print(f"wrote {args.out}")
        notices = sys.stdout
    else:
        print(board_to_json(board))
        # Stdout is the board JSON; keep it machine-parseable.
        notices = sys.stderr
    if args.svg:
        render_board(board, path=args.svg)
        print(f"wrote {args.svg}", file=notices)
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    """``repro import``: .kicad_pcb → Board, with the validator report.

    Exit codes: **2** for a file that cannot be read or parsed at all
    (OSError / :class:`KicadParseError`), **1** when validation found
    fatal problems — or, under ``--strict``, any warnings — and **0**
    for a clean or warnings-only import.
    """
    from .model.kicad import KicadParseError, import_board_file

    try:
        board, report, digest = import_board_file(args.file, match=args.match)
    except (OSError, KicadParseError) as exc:
        if args.json:
            envelope = error_response(exc)
            if isinstance(exc, KicadParseError):
                envelope["error"].update(line=exc.line, column=exc.column)
            print(json.dumps(envelope, indent=2))
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    if args.name:
        board.name = args.name
    ok = report.ok(strict=args.strict)
    if args.out:
        save_board(board, args.out)
    if args.svg:
        render_board(board, path=args.svg)
    summary = report.summary()
    if args.json:
        envelope: Dict[str, Any] = {
            "kind": "import_response",
            "source": args.file,
            "sha256": digest,
            "board": board.name,
            "ok": ok,
            "strict": args.strict,
            "counts": {
                "traces": len(board.traces),
                "obstacles": len(board.obstacles),
                "groups": len(board.groups),
            },
            "validation": report.to_dict(),
        }
        print(json.dumps(envelope, indent=2, ensure_ascii=False))
    else:
        print(
            f"imported {board.name}: {len(board.traces)} traces, "
            f"{len(board.obstacles)} obstacles, {len(board.groups)} "
            f"matching group(s)  [sha256 {digest[:12]}]"
        )
        print(
            f"validation: {summary['fatal']} fatal, "
            f"{summary['warnings']} warning(s), {summary['infos']} info"
        )
        for finding in report.fatal + report.warnings:
            position = f" (line {finding.line})" if finding.line else ""
            print(
                f"  [{finding.severity}] {finding.code}: "
                f"{finding.message}{position}"
            )
        if args.out:
            print(f"wrote {args.out}")
        if args.svg:
            print(f"wrote {args.svg}")
    return 0 if ok else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        try:
            for name in args.scenario:
                scenarios.get(name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        # A param-requiring family (imported) cannot sweep bare seeds:
        # refuse up front with the structured envelope machine callers
        # expect — never a traceback.
        unsatisfied = [
            family.name
            for family in map(scenarios.get, args.scenario)
            if family.requires and not args.fixture
        ]
        if unsatisfied:
            message = (
                f"scenario(s) {', '.join(unsatisfied)} need board files: "
                "pass --fixture <file.kicad_pcb> (repeatable)"
            )
            if args.json:
                print(json.dumps(error_response(ValueError(message)), indent=2))
            print(f"error: {message}", file=sys.stderr)
            return 2
    outdir = args.outdir
    if args.resume is not None:
        if outdir is not None and outdir != args.resume:
            print(
                "error: --resume already names the output directory; "
                f"--outdir {outdir} contradicts it",
                file=sys.stderr,
            )
            return 2
        outdir = args.resume
    def sweep():
        return scenarios.run_corpus(
            scenarios=args.scenario,
            seeds=args.seeds,
            quick=args.quick,
            preset=args.preset,
            workers=args.workers,
            outdir=outdir,
            save_boards=args.save_boards,
            gate=args.gate,
            verbose=not args.json,
            timeout=args.timeout,
            retry=args.retry,
            resume=args.resume is not None,
            cache=args.cache_dir,
            fixtures=args.fixture,
            fixture_match=args.fixture_match,
        )

    if args.trace is not None:
        with obs.trace("corpus run", preset=args.preset) as collected:
            report = sweep()
        save_trace(collected, args.trace)
        if not args.json:
            print(f"wrote {args.trace}")
    else:
        report = sweep()
    if args.json:
        # The same versioned envelope save_corpus_report writes, so
        # redirected stdout round-trips through load_corpus_report.
        print(json.dumps(corpus_report_to_dict(report), indent=2))
    return 0 if report["summary"]["gate_passed"] else 1


def _cmd_render(args: argparse.Namespace) -> int:
    board = load_board(args.board)
    render_board(
        board, path=args.out, scale=args.scale, show_areas=args.show_areas
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace summarize``: the aggregate (or tree) view of one trace.

    Reads any artifact :func:`repro.io.save_trace` wrote — ``route
    --trace``, ``corpus run --trace``, or a per-request file from a
    ``serve --trace-dir`` daemon.
    """
    trace = load_trace(args.path)
    doc = trace.to_dict()
    if args.tree:
        print(f"{trace.name}  ({trace.duration_s() * 1000.0:.1f} ms total)")
        for depth, span in obs.iter_tree(doc):
            attrs = span.get("attrs") or {}
            note = ""
            if attrs:
                pairs = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                note = f"  [{pairs}]"
            print(
                f"{'  ' * (depth + 1)}{span['name']}  "
                f"{span['duration_s'] * 1000.0:.2f} ms{note}"
            )
        return 0
    rows = obs.aggregate_spans(doc)
    if args.json:
        print(json.dumps({"trace": trace.trace_id, "rows": rows}, indent=2))
        return 0
    print(
        f"trace {trace.trace_id}  {trace.name!r}  "
        f"{len(doc['spans'])} spans  {trace.duration_s() * 1000.0:.1f} ms"
    )
    # Imported-board runs carry the board name and source file on their
    # span attrs (`session.run` / the route trace root); surface them so
    # the table says what was routed, not just how long it took.
    board_name = source = None
    for span in doc["spans"]:
        attrs = span.get("attrs") or {}
        if board_name is None and attrs.get("board"):
            board_name = attrs["board"]
        if source is None and attrs.get("source"):
            source = attrs["source"]
        if board_name is not None and source is not None:
            break
    if board_name or source:
        note = f"board {board_name or '?'}"
        if source:
            note += f"  ({source})"
        print(note)
    header = f"{'span':<28} {'count':>6} {'total ms':>10} {'mean ms':>9} {'max ms':>9} {'share':>6}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['name']:<28} {row['count']:>6} "
            f"{row['total_s'] * 1000.0:>10.2f} {row['mean_ms']:>9.3f} "
            f"{row['max_ms']:>9.3f} {row['share'] * 100.0:>5.1f}%"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the harness pulls in the whole bench design suite.
    if args.perf:
        if args.what is not None:
            print(
                f"error: --perf and the '{args.what}' artefact are separate "
                "bench modes; request one at a time",
                file=sys.stderr,
            )
            return 2
        ignored = [
            flag
            for flag, used in (
                ("--cases", args.cases is not None),
                ("--dgaps", args.dgaps is not None),
                ("--json", args.json),
                ("--outdir", args.outdir is not None),
            )
            if used
        ]
        if ignored:
            print(
                f"error: {', '.join(ignored)} only applies to table/figure "
                "benches, not --perf",
                file=sys.stderr,
            )
            return 2
        from .bench.perf import run_perf, run_perf_guard, run_profile

        payload = run_perf(
            quick=args.quick,
            out=args.out or "BENCH_perf.json",
        )
        if args.profile:
            out = args.out or "BENCH_perf.json"
            sibling = os.path.join(
                os.path.dirname(out) or ".", "BENCH_profile.txt"
            )
            run_profile(out=sibling, quick=args.quick)
        if args.guard:
            if not run_perf_guard(args.guard, payload):
                return 1
        return 0
    if args.what is None:
        print(
            "error: bench needs an artefact (table1|table2|figures|all) "
            "unless --perf is given",
            file=sys.stderr,
        )
        return 2
    ignored = [
        flag
        for flag, used in (
            ("--quick", args.quick),
            ("--out", args.out is not None),
            ("--profile", args.profile),
            ("--guard", args.guard is not None),
        )
        if used
    ]
    if ignored:
        print(
            f"error: {', '.join(ignored)} only applies to --perf",
            file=sys.stderr,
        )
        return 2
    from .bench.harness import run_bench

    run_bench(
        args.what,
        outdir=args.outdir or "out",
        cases=args.cases,
        dgaps=args.dgaps,
        emit_json=args.json,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args_list: List[str] = list(argv if argv is not None else sys.argv[1:])
    if args_list and args_list[0] in _LEGACY_BENCH:
        args_list.insert(0, "bench")
    args = _build_parser().parse_args(args_list)
    handler = {
        "route": _cmd_route,
        "check": _cmd_check,
        "render": _cmd_render,
        "import": _cmd_import,
        "gen": _cmd_gen,
        "corpus": _cmd_corpus,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        # Bad input file, unreadable path, unsupported format version:
        # user errors, not crashes.  (Unknown scenario names are handled
        # at their lookup sites — a KeyError reaching here is a bug and
        # should crash loudly.)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
