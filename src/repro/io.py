"""Board and result serialization — JSON round-trip for layouts and runs.

A downstream tool needs to get layouts in and results out; this module
(de)serialises the full :class:`~repro.model.Board` — outline, rule set
with DRAs, traces, differential pairs, obstacles, matching groups and
routable areas — and the structured :class:`~repro.api.RunResult` a
:class:`~repro.api.RoutingSession` emits (stage records, member reports,
DRC findings, config snapshot).  Both formats are versioned,
human-readable JSON documents; geometry is stored as plain coordinate
lists.
"""

from __future__ import annotations

import copy
import json
import math
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple, Union

from ._version import __version__
from .api.result import RunResult, StageRecord
from .core import GroupReport, MemberReport
from .drc import DrcReport, Violation, ViolationKind
from .geometry import Point, Polygon, Polyline
from .model import (
    Board,
    DesignRuleArea,
    DesignRules,
    DifferentialPair,
    MatchGroup,
    Obstacle,
    RuleSet,
    Trace,
)

FORMAT_VERSION = 1
RESULT_FORMAT_VERSION = 1
CORPUS_FORMAT_VERSION = 1


def _atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` via same-directory temp + rename.

    Every artifact writer goes through here so a process killed
    mid-write (SIGKILL during a corpus sweep, an OOM'd worker) leaves
    either the complete document or nothing — never a torn file for
    ``corpus run --resume`` or a result consumer to trip over.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


# -- encoding ---------------------------------------------------------------------


def _points(points) -> List[List[float]]:
    return [[p.x, p.y] for p in points]


def _rules_dict(rules: DesignRules) -> Dict[str, float]:
    return {
        "dgap": rules.dgap,
        "dobs": rules.dobs,
        "dprotect": rules.dprotect,
        "dmiter": rules.dmiter,
    }


def _trace_dict(trace: Trace) -> Dict[str, Any]:
    return {
        "name": trace.name,
        "width": trace.width,
        "net": trace.net,
        "path": _points(trace.path.points),
    }


def board_to_dict(board: Board) -> Dict[str, Any]:
    """The board as a JSON-serialisable dictionary."""
    return {
        "version": FORMAT_VERSION,
        "name": board.name,
        # Deep copy: the snapshot must not alias the board's nested
        # provenance dicts (same invariant as session/registry stamping).
        "meta": copy.deepcopy(board.meta),
        "outline": _points(board.outline.points),
        "rules": {
            "default": _rules_dict(board.rules.default),
            "areas": [
                {
                    "name": area.name,
                    "region": _points(area.region.points),
                    "rules": _rules_dict(area.rules),
                }
                for area in board.rules.areas
            ],
        },
        "traces": [_trace_dict(t) for t in board.traces],
        "pairs": [
            {
                "name": p.name,
                "rule": p.rule,
                "extra_rules": list(p.extra_rules),
                "trace_p": _trace_dict(p.trace_p),
                "trace_n": _trace_dict(p.trace_n),
            }
            for p in board.pairs
        ],
        "obstacles": [
            {
                "name": o.name,
                "kind": o.kind,
                "polygon": _points(o.polygon.points),
            }
            for o in board.obstacles
        ],
        "groups": [
            {
                "name": g.name,
                "members": [m.name for m in g.members],
                "target_length": g.target_length,
                "tolerance": g.tolerance,
            }
            for g in board.groups
        ],
        "routable_areas": {
            name: _points(poly.points)
            for name, poly in board.routable_areas.items()
        },
    }


def board_to_json(board: Board, indent: int = 2) -> str:
    """The board as a JSON string."""
    return json.dumps(board_to_dict(board), indent=indent)


def _canonical_numbers(value: Any) -> Any:
    """A shadow copy with every non-bool number as a float, so ``5`` and
    ``5.0`` — equal values, different JSON spellings — serialise to the
    same bytes.  (Ints beyond 2**53 would lose exactness, but board
    documents carry geometry and small counts, never such values.)"""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        return {k: _canonical_numbers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_numbers(v) for v in value]
    return value


def canonical_json(data: Any) -> str:
    """``data`` as minimal, key-sorted JSON — one byte string per value.

    The content-addressing primitive: two documents that compare equal
    serialise to the same bytes regardless of insertion order, original
    whitespace or numeric spelling (``0`` vs ``0.0`` — a saved board
    file and a decoded-re-encoded board must name the same content), so
    hashes over this text are stable identities (see
    :func:`repro.cache.cache_key`).  Floats keep their exact ``repr``
    round-trip text, so distinct geometries never collide.
    """
    return json.dumps(
        _canonical_numbers(data),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def save_board(board: Board, path: str) -> str:
    """Write the board to ``path`` (atomically); returns the path."""
    return _atomic_write_text(path, board_to_json(board))


# -- decoding ---------------------------------------------------------------------


def _to_points(data) -> List[Point]:
    points = [Point(float(x), float(y)) for x, y in data]
    if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in points):
        raise ValueError("coordinates must be finite")
    return points


def _to_rules(data: Dict[str, float]) -> DesignRules:
    return DesignRules(
        dgap=data["dgap"],
        dobs=data["dobs"],
        dprotect=data["dprotect"],
        dmiter=data.get("dmiter", 0.0),
    )


def _to_trace(data: Dict[str, Any]) -> Trace:
    trace = Trace(
        name=data["name"],
        path=Polyline(_to_points(data["path"])),
        width=data["width"],
        net=data.get("net", ""),
    )
    if not trace.length() > 0.0:
        raise ValueError(f"trace '{trace.name}' has a path of zero length")
    return trace


def board_from_dict(data: Dict[str, Any]) -> Board:
    """Rebuild a board from :func:`board_to_dict` output.

    Raises :class:`ValueError` on an unknown format version, a ``meta``
    that is not an object, a trace whose path has zero length, or a
    group that is empty, references a missing member or sets a target
    below its longest member (:meth:`MatchGroup.resolved_target`).
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported board format version: {version!r}")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"board meta must be an object, not {type(meta).__name__}")

    rules = RuleSet(
        default=_to_rules(data["rules"]["default"]),
        areas=[
            DesignRuleArea(
                region=Polygon(_to_points(a["region"])),
                rules=_to_rules(a["rules"]),
                name=a.get("name", ""),
            )
            for a in data["rules"].get("areas", [])
        ],
    )
    board = Board(
        outline=Polygon(_to_points(data["outline"])),
        rules=rules,
        name=data.get("name", ""),
        # Documents written before the provenance field existed simply
        # have no "meta" key.  Deep copy so the board never aliases the
        # caller's dict.
        meta=copy.deepcopy(meta),
    )

    for t in data.get("traces", []):
        board.add_trace(_to_trace(t))
    for p in data.get("pairs", []):
        board.add_pair(
            DifferentialPair(
                name=p["name"],
                trace_p=_to_trace(p["trace_p"]),
                trace_n=_to_trace(p["trace_n"]),
                rule=p["rule"],
                extra_rules=tuple(p.get("extra_rules", ())),
            )
        )
    for o in data.get("obstacles", []):
        board.add_obstacle(
            Obstacle(
                polygon=Polygon(_to_points(o["polygon"])),
                kind=o.get("kind", "keepout"),
                name=o.get("name", ""),
            )
        )

    by_name: Dict[str, Any] = {t.name: t for t in board.traces}
    by_name.update({p.name: p for p in board.pairs})
    for g in data.get("groups", []):
        members = []
        for name in g["members"]:
            if name not in by_name:
                raise ValueError(f"group '{g['name']}' references unknown member '{name}'")
            members.append(by_name[name])
        group = MatchGroup(
            name=g["name"],
            members=members,
            target_length=g.get("target_length"),
            tolerance=g.get("tolerance", 1e-3),
        )
        group.resolved_target()  # raises on an empty group or a target too low
        board.add_group(group)
    for name, pts in data.get("routable_areas", {}).items():
        board.set_routable_area(name, Polygon(_to_points(pts)))
    return board


def board_from_json(text: str) -> Board:
    """Rebuild a board from a JSON string."""
    return board_from_dict(json.loads(text))


def load_board(path: str) -> Board:
    """Read a board from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return board_from_json(fh.read())


# -- run results --------------------------------------------------------------------


def _member_report_dict(member: MemberReport) -> Dict[str, Any]:
    return {
        "name": member.name,
        "kind": member.kind,
        "target": member.target,
        "length_before": member.length_before,
        "length_after": member.length_after,
        "runtime": member.runtime,
        "iterations": member.iterations,
        "patterns": member.patterns,
        "rollbacks": member.rollbacks,
    }


def _to_member_report(data: Dict[str, Any]) -> MemberReport:
    return MemberReport(
        name=data["name"],
        kind=data["kind"],
        target=data["target"],
        length_before=data["length_before"],
        length_after=data["length_after"],
        runtime=data.get("runtime", 0.0),
        iterations=data.get("iterations", 0),
        patterns=data.get("patterns", 0),
        rollbacks=data.get("rollbacks", 0),
    )


def group_report_to_dict(report: GroupReport) -> Dict[str, Any]:
    """A :class:`~repro.core.GroupReport` as a JSON-serialisable dict."""
    return {
        "group": report.group,
        "target": report.target,
        "members": [_member_report_dict(m) for m in report.members],
        "runtime": report.runtime,
    }


def group_report_from_dict(data: Dict[str, Any]) -> GroupReport:
    """Rebuild a group report from :func:`group_report_to_dict` output."""
    return GroupReport(
        group=data["group"],
        target=data["target"],
        members=[_to_member_report(m) for m in data.get("members", [])],
        runtime=data.get("runtime", 0.0),
    )


def _violation_dict(violation: Violation) -> Dict[str, Any]:
    return {
        "kind": violation.kind.value,
        "subject": violation.subject,
        "detail": violation.detail,
        "location": (
            [violation.location.x, violation.location.y]
            if violation.location is not None
            else None
        ),
        "measured": violation.measured,
        "required": violation.required,
    }


def _to_violation(data: Dict[str, Any]) -> Violation:
    loc = data.get("location")
    return Violation(
        kind=ViolationKind(data["kind"]),
        subject=data["subject"],
        detail=data.get("detail", ""),
        location=Point(float(loc[0]), float(loc[1])) if loc is not None else None,
        measured=data.get("measured"),
        required=data.get("required"),
    )


def drc_report_to_dict(report: DrcReport) -> Dict[str, Any]:
    """A :class:`~repro.drc.DrcReport` as a JSON-serialisable dict."""
    return {"violations": [_violation_dict(v) for v in report.violations]}


def drc_report_from_dict(data: Dict[str, Any]) -> DrcReport:
    """Rebuild a DRC report from :func:`drc_report_to_dict` output."""
    return DrcReport(
        violations=[_to_violation(v) for v in data.get("violations", [])]
    )


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """The full run artifact as a JSON-serialisable dictionary."""
    out = {
        "version": RESULT_FORMAT_VERSION,
        #: Which library version produced the artifact — provenance only,
        #: never validated on load (older/newer artifacts stay loadable).
        "repro_version": __version__,
        "board": result.board,
        "config": result.config,
        "provenance": result.provenance,
        "stages": [
            {
                "name": s.name,
                "status": s.status,
                "runtime": s.runtime,
                "detail": s.detail,
                "data": s.data,
            }
            for s in result.stages
        ],
        "groups": [group_report_to_dict(g) for g in result.groups],
        "drc": drc_report_to_dict(result.drc) if result.drc is not None else None,
        "runtime": result.runtime,
        "status": result.status,
        "error": copy.deepcopy(result.error),
    }
    if result.trace_ref is not None:
        # Emitted only when set: untraced artifacts (and every cached
        # entry — the server never sets it) stay byte-identical to
        # pre-observability ones.
        out["trace_ref"] = result.trace_ref
    return out


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Rebuild a run artifact from :func:`run_result_to_dict` output.

    Raises :class:`ValueError` on an unknown format version.
    """
    version = data.get("version")
    if version != RESULT_FORMAT_VERSION:
        raise ValueError(f"unsupported result format version: {version!r}")
    drc: Optional[DrcReport] = None
    if data.get("drc") is not None:
        drc = drc_report_from_dict(data["drc"])
    result = RunResult(
        board=data.get("board", ""),
        config=data.get("config", {}),
        # Absent in artifacts saved before provenance stamping existed.
        provenance=data.get("provenance"),
        stages=[
            StageRecord(
                name=s["name"],
                status=s.get("status", "ok"),
                runtime=s.get("runtime", 0.0),
                detail=s.get("detail", ""),
                data=s.get("data", {}),
            )
            for s in data.get("stages", [])
        ],
        groups=[group_report_from_dict(g) for g in data.get("groups", [])],
        drc=drc,
        runtime=data.get("runtime", 0.0),
        error=copy.deepcopy(data.get("error")),
        # Absent in artifacts saved before (or without) tracing.
        trace_ref=data.get("trace_ref"),
    )
    if "status" in data:
        result.status = data["status"]
    else:
        # Artifacts saved before run-level status existed: derive the
        # verdict the producing run would have stamped.
        result.finalize_status()
    return result


def result_to_json(result: RunResult, indent: int = 2) -> str:
    """The run artifact as a JSON string."""
    return json.dumps(run_result_to_dict(result), indent=indent)


def result_from_json(text: str) -> RunResult:
    """Rebuild a run artifact from a JSON string."""
    return run_result_from_dict(json.loads(text))


def save_result(result: RunResult, path: str) -> str:
    """Write the run artifact to ``path`` (atomically); returns the path."""
    return _atomic_write_text(path, result_to_json(result))


def load_result(path: str) -> RunResult:
    """Read a run artifact from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return result_from_json(fh.read())


# -- wire envelopes -----------------------------------------------------------------
#
# The answers the daemon sends and the CLI's ``--json`` prints, built in
# one place so local and remote consumers read the same keys in the
# same order.


#: The fields of an encoded run that an answer repeats outside it, each
#: with the value a result without it reads as.
ANSWER_FIELDS = {"status": "ok", "error": None, "board": ""}


def answer_fields(result_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The :data:`ANSWER_FIELDS` of an encoded run (the cache keeps them
    in its entry header, so a hit answers without decoding the run)."""
    return {
        name: result_dict.get(name, default)
        for name, default in ANSWER_FIELDS.items()
    }


def route_response(
    key: str,
    cache: Optional[str],
    result_dict: Union[Dict[str, Any], bytes],
    fields: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``route_response`` envelope around one encoded run.

    ``cache`` is ``"hit"``/``"miss"`` from the daemon and ``None`` for a
    local run, which consults no cache but still names the content
    address a daemon would serve for the same request.  A crash record
    in the result is repeated at the top level for 422/500 consumers.
    ``fields`` are the run's :func:`answer_fields` when the caller has
    them already; ``result_dict`` is then not read, and may be the run's
    stored compact JSON bytes (the daemon's answers carry those).
    """
    if fields is None:
        fields = answer_fields(result_dict)
    envelope: Dict[str, Any] = {
        "kind": "route_response",
        "key": key,
        "cache": cache,
        "status": fields["status"],
        "result": result_dict,
    }
    if fields["error"] is not None:
        envelope["error"] = fields["error"]
    return envelope


def check_response(report: DrcReport) -> Dict[str, Any]:
    """The ``check_response`` envelope: the verdict and the findings."""
    return {
        "kind": "check_response",
        "clean": report.is_clean(),
        "violations": len(report),
        "report": drc_report_to_dict(report),
    }


def error_response(exc: BaseException) -> Dict[str, Any]:
    """The ``error_response`` envelope naming ``exc``'s type and message."""
    return {
        "kind": "error_response",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


# -- corpus reports -----------------------------------------------------------------


def corpus_report_to_dict(report: Dict[str, Any]) -> Dict[str, Any]:
    """The corpus aggregate wrapped as a versioned, self-describing doc."""
    # Envelope keys last so they always win over same-named report keys
    # (a silently mis-versioned document would fail only at load time).
    return {
        **report,
        "version": CORPUS_FORMAT_VERSION,
        "kind": "corpus_report",
        "repro_version": __version__,
    }


def corpus_report_from_dict(data: Dict[str, Any]) -> Dict[str, Any]:
    """Unwrap a corpus report; raises :class:`ValueError` on an unknown
    format version or a document of another kind."""
    kind = data.get("kind")
    if kind != "corpus_report":
        # Board and result documents share version numbers; the kind
        # discriminator is what tells the three formats apart.
        raise ValueError(f"not a corpus report (kind: {kind!r})")
    version = data.get("version")
    if version != CORPUS_FORMAT_VERSION:
        raise ValueError(f"unsupported corpus report version: {version!r}")
    # Strip only the format plumbing; repro_version stays readable (the
    # producing version is data, even though a re-save re-stamps it).
    return {k: v for k, v in data.items() if k not in ("version", "kind")}


def corpus_case_to_dict(
    case: Dict[str, Any], result: RunResult
) -> Dict[str, Any]:
    """One corpus case — the report row plus its full run artifact —
    wrapped as a versioned, self-describing document.

    These are the per-case files ``run_corpus(outdir=...)`` writes under
    ``<outdir>/results/``; ``corpus run --resume`` loads them back to
    skip already-completed ``(scenario, seed)`` cases, so the row is
    stored verbatim (recomputing it would need the routed board, which
    only existed in the producing run).
    """
    return {
        "version": CORPUS_FORMAT_VERSION,
        "kind": "corpus_case",
        "repro_version": __version__,
        "case": copy.deepcopy(case),
        "result": run_result_to_dict(result),
    }


def corpus_case_from_dict(
    data: Dict[str, Any]
) -> Tuple[Dict[str, Any], RunResult]:
    """Unwrap a corpus case document into ``(case_row, run_result)``;
    raises :class:`ValueError` on another kind or an unknown version."""
    kind = data.get("kind")
    if kind != "corpus_case":
        raise ValueError(f"not a corpus case (kind: {kind!r})")
    version = data.get("version")
    if version != CORPUS_FORMAT_VERSION:
        raise ValueError(f"unsupported corpus case version: {version!r}")
    return copy.deepcopy(data["case"]), run_result_from_dict(data["result"])


def save_corpus_case(case: Dict[str, Any], result: RunResult, path: str) -> str:
    """Write one corpus case document to ``path`` (atomically — these
    are exactly the files a killed sweep's ``--resume`` reads back);
    returns the path."""
    return _atomic_write_text(
        path, json.dumps(corpus_case_to_dict(case, result), indent=2) + "\n"
    )


def load_corpus_case(path: str) -> Tuple[Dict[str, Any], RunResult]:
    """Read one corpus case document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return corpus_case_from_dict(json.load(fh))


def save_corpus_report(report: Dict[str, Any], path: str) -> str:
    """Write a corpus aggregate report to ``path`` (atomically);
    returns the path."""
    return _atomic_write_text(
        path, json.dumps(corpus_report_to_dict(report), indent=2) + "\n"
    )


def load_corpus_report(path: str) -> Dict[str, Any]:
    """Read a corpus aggregate report from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return corpus_report_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Trace artifacts (repro.obs)
#
# Imported lazily: io is on the critical import path of nearly every
# module, and obs pulls in nothing heavy, but keeping the dependency
# one-directional (io -> obs only inside these helpers) avoids any
# chance of an import cycle as obs instruments more of the codebase.


def save_trace(trace, path: str) -> str:
    """Write a :class:`repro.obs.Trace` (or an already-serialized trace
    document) to ``path`` atomically; returns the path."""
    doc = trace if isinstance(trace, dict) else trace.to_dict()
    if doc.get("kind") != "trace":
        raise ValueError(f"not a trace document (kind: {doc.get('kind')!r})")
    return _atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def load_trace(path: str):
    """Read a trace artifact back as a :class:`repro.obs.Trace`.

    Raises :class:`ValueError` on a document of another kind or an
    unsupported trace format version.
    """
    from .obs.tracing import Trace as _ObsTrace

    with open(path, "r", encoding="utf-8") as fh:
        return _ObsTrace.from_dict(json.load(fh))
