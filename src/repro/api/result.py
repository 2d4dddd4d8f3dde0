"""Structured run artifacts.

A :class:`RunResult` is the single object a pipeline run produces: one
:class:`StageRecord` per executed stage (status, timing, stage-specific
data), the per-group :class:`~repro.core.GroupReport` list from matching,
the final :class:`~repro.drc.DrcReport`, and a snapshot of the config
that produced it all.  The whole thing round-trips through JSON via
:mod:`repro.io` (``save_result`` / ``load_result``), so downstream tools
and regression suites consume runs without re-executing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core import GroupReport
from ..drc import DrcReport

#: Stage outcome labels (the only values ``StageRecord.status`` takes).
STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_FAILED = "failed"
#: The stage (or run) died with an uncaptured exception; see
#: ``RunResult.error`` for the record.
STATUS_CRASHED = "crashed"


@dataclass
class StageRecord:
    """What one pipeline stage did."""

    name: str
    status: str = STATUS_OK
    runtime: float = 0.0
    #: Human-readable note (skip reason, failure diagnosis).
    detail: str = ""
    #: Small stage-specific payload (JSON-serialisable scalars only).
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status not in (STATUS_FAILED, STATUS_CRASHED)


@dataclass
class RunResult:
    """Everything one :class:`~repro.api.RoutingSession` run produced."""

    #: ``Board.name`` of the routed board (may be empty).
    board: str = ""
    #: ``SessionConfig.to_dict()`` snapshot taken when the run started.
    config: Dict[str, Any] = field(default_factory=dict)
    #: Scenario provenance copied from ``Board.meta["scenario"]`` when
    #: the routed board was generated by :mod:`repro.scenarios` —
    #: ``{"name", "seed", "params"}``, enough to rebuild the exact input
    #: board.  ``None`` for hand-built boards and artifacts saved by
    #: older versions.
    provenance: Optional[Dict[str, Any]] = None
    stages: List[StageRecord] = field(default_factory=list)
    groups: List[GroupReport] = field(default_factory=list)
    drc: Optional[DrcReport] = None
    #: Wall-clock of the whole pipeline (stages only).
    runtime: float = 0.0
    #: Run-level verdict: ``"ok"`` (every stage ok, DRC clean when it
    #: ran), ``"failed"`` (the pipeline completed but a stage reported
    #: failure or DRC found violations), or ``"crashed"`` (an exception
    #: escaped a stage — see ``error``).  Stamped by
    #: :meth:`~repro.api.RoutingSession.run`; derived on load for
    #: artifacts saved before the field existed.
    status: str = STATUS_OK
    #: Crash record when ``status == "crashed"``: exception ``type`` and
    #: ``message``, the ``stage`` that was running, and the last lines of
    #: the ``traceback``.  ``None`` for runs that completed.
    error: Optional[Dict[str, Any]] = None
    #: Path of the :mod:`repro.obs` trace artifact saved alongside this
    #: run (``route --trace``), or ``None``.  Serialized only when set,
    #: so untraced artifacts — and every cached entry — stay
    #: byte-identical to pre-observability ones.
    trace_ref: Optional[str] = None

    # -- queries ------------------------------------------------------------

    def stage(self, name: str) -> Optional[StageRecord]:
        """The record of the named stage, or ``None`` if it never ran."""
        for record in self.stages:
            if record.name == name:
                return record
        return None

    def max_error(self) -> float:
        """Worst member error across every group (``0.0`` if none)."""
        if not self.groups:
            return 0.0
        return max(g.max_error() for g in self.groups)

    def ok(self) -> bool:
        """No crash, no failed stage and (when DRC ran) a clean board."""
        if self.error is not None or self.status == STATUS_CRASHED:
            return False
        if any(not record.ok for record in self.stages):
            return False
        return self.drc is None or self.drc.is_clean()

    def finalize_status(self) -> str:
        """Derive and stamp ``status`` from the run's recorded outcome.

        Called by the session at the end of :meth:`run` (and by the io
        codec for artifacts saved before the field existed): ``crashed``
        when an error record is present, otherwise ``ok``/``failed`` per
        :meth:`ok`.
        """
        if self.error is not None:
            self.status = STATUS_CRASHED
        else:
            self.status = STATUS_OK if self.ok() else STATUS_FAILED
        return self.status

    # -- presentation -------------------------------------------------------

    def summary(self) -> str:
        """A compact multi-line human-readable digest."""
        verdict = "OK" if self.ok() else (
            "CRASHED" if self.status == STATUS_CRASHED else "FAILED"
        )
        lines = [
            f"run: board={self.board or '<unnamed>'} "
            f"preset={self.config.get('preset_name', '?')} "
            f"{verdict} ({self.runtime:.2f} s)"
        ]
        for record in self.stages:
            note = f" — {record.detail}" if record.detail else ""
            lines.append(
                f"  [{record.status:>7}] {record.name} "
                f"({record.runtime:.2f} s){note}"
            )
        if self.error is not None:
            lines.append(
                f"  error: {self.error.get('type', '?')} in stage "
                f"{self.error.get('stage', '?')}: "
                f"{self.error.get('message', '')}"
            )
        for group in self.groups:
            lines.append(
                f"  group {group.group}: {len(group.members)} members, "
                f"target {group.target:.3f}, "
                f"max err {group.max_error() * 100:.4f}%, "
                f"avg err {group.avg_error() * 100:.4f}%"
            )
        if self.drc is not None:
            lines.append(
                "  DRC: clean"
                if self.drc.is_clean()
                else f"  DRC: {len(self.drc)} violation(s)"
            )
        return "\n".join(lines)

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> str:
        """Write the result as JSON to ``path`` (via :mod:`repro.io`)."""
        from ..io import save_result  # local import: io depends on this module

        return save_result(self, path)
