"""Multi-Scale Dynamic Time Warping for differential pairs (Sec. V)."""

from .dtw import MatchedPair, dtw_match
from .msdtw import MSDTWResult, SubPair, filter_threshold, msdtw, msdtw_pair
from .median import (
    MedianConversion,
    convert_pair,
    median_points,
    virtual_rules_for,
)
from .restore import RestorationResult, restore_pair

__all__ = [
    "MatchedPair",
    "dtw_match",
    "MSDTWResult",
    "SubPair",
    "filter_threshold",
    "msdtw",
    "msdtw_pair",
    "MedianConversion",
    "convert_pair",
    "median_points",
    "virtual_rules_for",
    "RestorationResult",
    "restore_pair",
]
