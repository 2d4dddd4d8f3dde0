"""PCB data model: rules, traces, pairs, obstacles, groups and boards."""

from .rules import DesignRuleArea, DesignRules, RuleSet
from .trace import Trace
from .diffpair import DifferentialPair
from .obstacle import Obstacle, rect_keepout, via
from .group import MatchGroup, Member
from .board import Board
from .synth import (
    build_decoupled_pair,
    corridor_polygon,
    error_profile,
    pair_corridor,
)

__all__ = [
    "DesignRuleArea",
    "DesignRules",
    "RuleSet",
    "Trace",
    "DifferentialPair",
    "Obstacle",
    "rect_keepout",
    "via",
    "MatchGroup",
    "Member",
    "Board",
    "build_decoupled_pair",
    "corridor_polygon",
    "error_profile",
    "pair_corridor",
]
