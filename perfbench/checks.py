"""Output checks: every routed board is verified before it counts as ok.

Geometry is re-measured here from the routed board document, not taken
from the program's own reports; only the DRC pass reuses the library's
``check_board``, on a board decoded from the routed JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Tuple

#: Slack for comparing a recomputed length with a reported one (the
#: program sums the same segments, possibly in another order).
LENGTH_SLACK = 1e-6

#: How far a pin may be from where it was: float noise only.
PIN_SLACK = 1e-9

#: Check kinds, each counted on its own.  ``answer``: the operation
#: returned a well-formed result of the kind asked for (no crash, transport
#: error, 5xx, wrong status code or wrong cache outcome, and a routed board
#: with the same traces).  ``pins``, ``lengths``: every routed board.
#: ``tolerance``, ``drc``: every routed board the program called ``ok``.
#: ``hit_match``: a cache hit's result equals its board's first answer.
KINDS = ("answer", "pins", "lengths", "tolerance", "drc", "hit_match")


def canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256_of(document: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical(document).encode("utf-8")).hexdigest()


def polyline_length(points: List[List[float]]) -> float:
    return sum(
        math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:])
    )


def _traces(board: Dict[str, Any]) -> Dict[str, List[List[float]]]:
    """Every copper path by name, pair halves included."""
    out = {t["name"]: t["path"] for t in board.get("traces", [])}
    for pair in board.get("pairs", []):
        for half in ("trace_p", "trace_n"):
            out[pair[half]["name"]] = pair[half]["path"]
    return out


def _member_lengths(board: Dict[str, Any]) -> Dict[str, float]:
    out = {t["name"]: polyline_length(t["path"]) for t in board.get("traces", [])}
    for pair in board.get("pairs", []):
        out[pair["name"]] = (
            polyline_length(pair["trace_p"]["path"])
            + polyline_length(pair["trace_n"]["path"])
        ) / 2.0
    return out


def check_routed(
    original: Dict[str, Any],
    routed: Optional[Dict[str, Any]],
    result: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> Tuple[Dict[str, List[str]], Dict[str, Any]]:
    """``(outcomes, stats)`` for one routed board.

    ``outcomes`` maps each check kind that ran (see :data:`KINDS`)
    to its problems; an empty list is a pass.  Each kind runs on its own,
    so a board that already fails one kind is still checked for the
    others.  ``tolerance`` is the session-wide override (``None``: each
    group's own).  ``stats`` holds ``members``, ``outside`` (members that
    started outside tolerance), ``matched`` (of those, the ones that ended
    inside) and the routed board's ``sha256``.
    """
    stats: Dict[str, Any] = {"members": 0, "outside": 0, "matched": 0, "sha256": None}
    status = result.get("status")
    if status not in ("ok", "failed"):
        return {"answer": [f"status {status!r}: {result.get('error')}"]}, stats
    if routed is None:
        return {"answer": ["no routed board returned"]}, stats
    stats["sha256"] = sha256_of(routed)

    before_paths = _traces(original)
    after_paths = _traces(routed)
    if set(before_paths) != set(after_paths):
        return {"answer": ["routed board has a different set of traces"]}, stats
    outcomes: Dict[str, List[str]] = {"answer": [], "pins": [], "lengths": []}
    if status == "ok":
        outcomes["tolerance"] = []
        outcomes["drc"] = []
    for name, path in before_paths.items():
        after = after_paths[name]
        moved = max(
            abs(a - b) for i in (0, -1) for a, b in zip(after[i], path[i])
        )
        if moved > PIN_SLACK:
            outcomes["pins"].append(f"{name}: pins moved by {moved:.3g}")

    before = _member_lengths(original)
    after = _member_lengths(routed)
    reported = {
        m["name"]: m for g in result.get("groups", []) for m in g["members"]
    }
    for group in original.get("groups", []):
        members = group["members"]
        target = group.get("target_length")
        if target is None:
            target = max(before[m] for m in members)
        tol = tolerance if tolerance is not None else group.get("tolerance", 1e-3)
        for name in members:
            stats["members"] += 1
            inside = abs(target - after[name]) <= tol
            if abs(target - before[name]) > tol:
                stats["outside"] += 1
                stats["matched"] += inside
            report = reported.get(name)
            if report is None:
                outcomes["lengths"].append(f"{name}: no member report")
            elif abs(report["length_after"] - after[name]) > LENGTH_SLACK:
                outcomes["lengths"].append(
                    f"{name}: reported length {report['length_after']!r}, "
                    f"geometry says {after[name]!r}"
                )
            if status == "ok" and not inside:
                outcomes["tolerance"].append(
                    f"{name}: status ok but {after[name]:.6f} vs target {target}"
                )

    if status == "ok":
        from repro.drc import check_board
        from repro.io import board_from_dict

        violations = len(check_board(board_from_dict(routed), check_areas=True))
        if violations:
            outcomes["drc"].append(f"status ok but check_board finds {violations} violation(s)")
    return outcomes, stats
