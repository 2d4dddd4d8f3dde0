"""Consolidated session configuration.

One :class:`SessionConfig` carries every knob of the pipeline — the
router's (it *is* a :class:`~repro.core.RouterConfig`, extension engine
knobs included), region assignment's and the DRC gate's — so a caller
configures a run in one place instead of threading three config objects
through by hand.

Named presets cover the common operating points::

    SessionConfig.preset("fast")      # low iteration caps, no region LP
    SessionConfig.preset("quality")   # high caps, full pipeline
    SessionConfig.preset("paper")     # the Sec. VI evaluation settings

Tolerance precedence — the session-wide ``tolerance`` override, else the
group's own, else ``extension.tolerance`` outside any group — is
:meth:`~repro.core.RouterConfig.effective_tolerance`; every stage and
the router resolve it there.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional

from ..core import ExtensionConfig, RouterConfig


def _canonical_value(value: Any) -> Any:
    """Normalise a config snapshot for hashing.

    Bools stay bools (``True`` is not the number ``1.0`` here — it is a
    different knob setting from any count), every other number becomes
    its float ``repr`` string so ``150`` and ``150.0`` collapse, and
    containers recurse.  ``repr`` of a float is exact round-trip text in
    Python 3, so distinct values never collide.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return repr(float(value))
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return value


@dataclass
class RegionConfig:
    """Knobs of the Sec. III region-assignment stage."""

    #: Run the LP at all.  Members that already carry an explicit
    #: routable area are never reassigned, enabled or not.
    enabled: bool = True
    #: Decomposition cell size; ``None`` derives it from the meander
    #: pitch of the board's default rules.
    cell: Optional[float] = None
    #: Over-provisioning factor on the length→area requirement.
    safety: float = 1.5
    #: Neighbourhood radius for the x_ij variables; ``None`` lets the
    #: decomposition pick its default.
    reach: Optional[float] = None
    #: Raise on an infeasible LP instead of recording a failed stage and
    #: continuing without assigned areas.
    strict: bool = False


def _finite(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_region(region: RegionConfig) -> None:
    """Reject region knobs the decomposition cannot run with.

    A NaN ``cell`` used to crash the region stage and a NaN or negative
    ``reach`` silently left every trace without neighbour regions.
    """
    if region.cell is not None and not (_finite(region.cell) and region.cell > 0):
        raise ValueError(
            f"region.cell must be a finite number > 0 or null, got {region.cell!r}"
        )
    if not (_finite(region.safety) and region.safety > 0):
        raise ValueError(
            f"region.safety must be a finite number > 0, got {region.safety!r}"
        )
    if region.reach is not None and not (_finite(region.reach) and region.reach >= 0):
        raise ValueError(
            f"region.reach must be a finite number >= 0 or null, got {region.reach!r}"
        )


@dataclass
class DrcConfig:
    """Knobs of the final DRC verification stage."""

    enabled: bool = True
    #: Also check containment in assigned routable areas.
    check_areas: bool = True
    #: Raise on violations instead of recording a failed stage.
    strict: bool = False


@dataclass
class SessionConfig(RouterConfig):
    """Everything a :class:`~repro.api.RoutingSession` needs to run: the
    router's knobs (inherited, in :class:`~repro.core.RouterConfig`'s
    field order) followed by the region and DRC stages' own."""

    region: RegionConfig = field(default_factory=RegionConfig)
    drc: DrcConfig = field(default_factory=DrcConfig)
    #: Which preset produced this config ("custom" when hand-built);
    #: recorded in run results for provenance only.
    preset_name: str = "custom"

    # -- presets ------------------------------------------------------------

    PRESETS = ("default", "fast", "quality", "paper", "bench")

    @classmethod
    def preset(cls, name: str) -> "SessionConfig":
        """A named operating point.

        * ``default`` — the dataclass defaults: full pipeline, the
          engine's stock iteration caps.
        * ``fast`` — low caps and no region LP; for smoke tests and
          interactive iteration.
        * ``quality`` — raised caps and extra pair top-up rounds; for
          final sign-off runs.
        * ``paper`` — the Sec. VI evaluation settings (identical to
          ``default`` caps, full pipeline; kept as an explicit name so
          benchmark provenance survives future default changes).
        * ``bench`` — matching only (no region LP, no DRC gate); what
          the table harness uses so engine timings stay comparable.
        """
        if name == "default":
            config = cls()
        elif name == "fast":
            config = cls(
                extension=ExtensionConfig(max_iterations=150, max_points=64),
                pair_topup_rounds=1,
                region=RegionConfig(enabled=False),
            )
        elif name == "quality":
            config = cls(
                extension=ExtensionConfig(max_iterations=800, max_points=128),
                pair_topup_rounds=5,
            )
        elif name == "paper":
            config = cls(
                extension=ExtensionConfig(max_iterations=400, max_points=96),
            )
        elif name == "bench":
            config = cls(
                region=RegionConfig(enabled=False),
                drc=DrcConfig(enabled=False),
            )
        else:
            raise ValueError(
                f"unknown preset {name!r}; expected one of {', '.join(cls.PRESETS)}"
            )
        config.preset_name = name
        return config

    # -- serialization ------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable hash of everything that changes routing behaviour.

        Two configs that behave identically fingerprint identically —
        ``preset_name`` is provenance only (``preset("default")`` and
        ``SessionConfig()`` run the same pipeline), so it is excluded —
        while any *effective* knob change changes the hash.  Numbers are
        canonicalized (``150`` and ``150.0`` are the same iteration
        cap) and keys sorted, so the hash is independent of dict order
        and int/float spelling.  This is the config half of the result
        cache's content address (:mod:`repro.cache`): a stale artifact
        can never be served across a preset or parameter change.
        """
        snapshot = self.to_dict()
        snapshot.pop("preset_name", None)
        canonical = json.dumps(
            _canonical_value(snapshot), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable snapshot (round-trips via :func:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SessionConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are ignored so snapshots stay loadable across
        versions that add knobs.  Raises :class:`ValueError` on region
        knobs the decomposition cannot run with (a non-finite or
        non-positive ``cell``/``safety``, a non-finite or negative
        ``reach``).
        """
        def pick(dc_cls, payload):
            names = {f.name for f in fields(dc_cls)}
            return dc_cls(**{k: v for k, v in payload.items() if k in names})

        data = dict(data)
        extension = pick(ExtensionConfig, data.pop("extension", {}))
        region = pick(RegionConfig, data.pop("region", {}))
        _check_region(region)
        drc = pick(DrcConfig, data.pop("drc", {}))
        base = pick(cls, data)
        return replace(base, extension=extension, region=region, drc=drc)
