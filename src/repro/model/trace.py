"""Traces: routed nets whose length the router tunes."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

from ..geometry import Point, Polyline, Segment


@dataclass(frozen=True)
class Trace:
    """A routed single-ended trace.

    ``path`` is the centreline; ``width`` the copper width.  A trace is
    immutable — meandering produces a new trace via :meth:`with_path` so
    the original routing is always recoverable (the paper's headline
    constraint is that original routing is *preserved*, i.e. meandering
    only inserts detours without re-routing).
    """

    name: str
    path: Polyline
    width: float = 1.0
    net: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.width < math.inf:
            raise ValueError("trace width must be positive and finite")

    # -- measures -----------------------------------------------------------

    def length(self) -> float:
        """Centreline arc length, the quantity being matched."""
        return self.path.length()

    def segments(self) -> List[Segment]:
        return self.path.segments()

    @property
    def start(self) -> Point:
        return self.path.start

    @property
    def end(self) -> Point:
        return self.path.end

    # -- edits ----------------------------------------------------------------------

    def with_path(self, path: Polyline) -> "Trace":
        """The same logical trace with new geometry."""
        return replace(self, path=path)

    def endpoints_match(self, other: "Trace", eps: float = 1e-6) -> bool:
        """True when both traces connect the same pin locations.

        Meandering must never move the endpoints; tests use this as the
        'original routing preserved' oracle together with topology checks.
        """
        return self.start.almost_equals(other.start, eps) and self.end.almost_equals(
            other.end, eps
        )
