"""Matching groups.

A matching group collects the parallel signals (single-ended traces and/or
differential pairs) whose lengths must agree.  The group target defaults
to the longest member, the smallest legal common target (``l_target`` must
be no less than every original length).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

from .diffpair import DifferentialPair
from .trace import Trace

Member = Union[Trace, DifferentialPair]


@dataclass
class MatchGroup:
    """A set of members that must arrive at a common length.

    ``tolerance`` is the per-trace absolute length error accepted as
    "matched" (the error tolerance of Alg. 1's termination test).
    """

    name: str
    members: List[Member] = field(default_factory=list)
    target_length: Optional[float] = None
    tolerance: float = 1e-3

    def __post_init__(self) -> None:
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.target_length is not None and not math.isfinite(self.target_length):
            raise ValueError("target length must be finite")

    # -- membership ---------------------------------------------------------

    def traces(self) -> List[Trace]:
        """Single-ended members only."""
        return [m for m in self.members if isinstance(m, Trace)]

    def pairs(self) -> List[DifferentialPair]:
        """Differential-pair members only."""
        return [m for m in self.members if isinstance(m, DifferentialPair)]

    def add(self, member: Member) -> None:
        self.members.append(member)

    def __len__(self) -> int:
        return len(self.members)

    # -- lengths ------------------------------------------------------------------

    @staticmethod
    def member_length(member: Member) -> float:
        return member.length()

    def lengths(self) -> List[float]:
        return [self.member_length(m) for m in self.members]

    def resolved_target(self) -> float:
        """The group's target length.

        Explicit ``target_length`` wins but must dominate every member's
        original length (targets below an original length are infeasible —
        meandering only ever lengthens).  Otherwise the longest member
        defines the target.
        """
        if not self.members:
            raise ValueError(f"matching group '{self.name}' is empty")
        longest = max(self.lengths())
        if self.target_length is None:
            return longest
        if self.target_length < longest - self.tolerance:
            raise ValueError(
                f"target {self.target_length:.4f} below the longest original "
                f"length {longest:.4f} in group '{self.name}'"
            )
        return self.target_length

    # -- error metrics (paper Eq. 19) -------------------------------------------------

    def max_error(self, target: Optional[float] = None) -> float:
        """``max_i (l_target - l_i) / l_target`` over the group, as a fraction."""
        t = target if target is not None else self.resolved_target()
        return max((t - l) / t for l in self.lengths())

    def avg_error(self, target: Optional[float] = None) -> float:
        """``sum_i (l_target - l_i) / (n * l_target)``, as a fraction."""
        t = target if target is not None else self.resolved_target()
        lens = self.lengths()
        return sum(t - l for l in lens) / (len(lens) * t)

    def is_matched(self, target: Optional[float] = None) -> bool:
        """True when every member is within tolerance of the target."""
        t = target if target is not None else self.resolved_target()
        return all(abs(t - l) <= self.tolerance for l in self.lengths())
