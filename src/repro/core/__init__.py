"""The paper's primary contribution: DP-based obstacle-aware extension."""

from .pattern import (
    Pattern,
    chain_new_segments,
    miter_pattern_corners,
    patterns_to_chain,
)
from .ura import URA
from .shrink import ShrinkEnvironment, TOUCH_EPS
from .scene import ClearanceScene
from .dp import DPConfig, DPResult, SegmentDP
from .extension import ExtensionConfig, ExtensionResult, TraceExtender
from .baseline import FixedTrackConfig, FixedTrackMeander
from .aidt import AiDTConfig, AiDTProxy
from .router import (
    GroupReport,
    LengthMatchingRouter,
    MemberReport,
    RouterConfig,
)

__all__ = [
    "Pattern",
    "chain_new_segments",
    "miter_pattern_corners",
    "patterns_to_chain",
    "URA",
    "ShrinkEnvironment",
    "TOUCH_EPS",
    "ClearanceScene",
    "DPConfig",
    "DPResult",
    "SegmentDP",
    "ExtensionConfig",
    "ExtensionResult",
    "TraceExtender",
    "FixedTrackConfig",
    "FixedTrackMeander",
    "AiDTConfig",
    "AiDTProxy",
    "GroupReport",
    "LengthMatchingRouter",
    "MemberReport",
    "RouterConfig",
]
