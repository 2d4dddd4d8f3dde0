"""The unified pipeline API: sessions, stages, configs, run artifacts.

This is the package's stable entry point (see :class:`RoutingSession`);
the lower-level modules (:mod:`repro.core`, :mod:`repro.region`,
:mod:`repro.drc`) remain importable for surgical use.
"""

from .config import DrcConfig, RegionConfig, SessionConfig
from .result import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    RunResult,
    StageRecord,
)
from .stages import (
    DrcVerifyStage,
    LengthMatchingStage,
    RegionAssignmentStage,
    Stage,
    default_stages,
)
from .session import RoutingSession
from .executor import crashed_result, run_batch

__all__ = [
    "DrcConfig",
    "RegionConfig",
    "SessionConfig",
    "STATUS_CRASHED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "RunResult",
    "StageRecord",
    "DrcVerifyStage",
    "LengthMatchingStage",
    "RegionAssignmentStage",
    "Stage",
    "default_stages",
    "RoutingSession",
    "crashed_result",
    "run_batch",
]
