"""Summary statistics and machine-speed calibration arithmetic.

Pure functions, no ``repro`` import: the tests pin every rule here.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int, wanted: float = 99.0) -> Optional[int]:
    """The highest whole percentile ``<= wanted`` that has at least
    :data:`TAIL_SAMPLES` of ``count`` samples beyond it, or ``None`` when
    even the median has fewer."""
    if count <= 0:
        return None
    best = min(int(wanted), math.floor(100.0 * (1.0 - TAIL_SAMPLES / count) + 1e-9))
    return best if best >= 50 else None


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def check_ratio(counts: Dict[str, Sequence[int]]) -> float:
    """Mean over check kinds of the share of attempts that passed.

    ``counts`` maps each kind to ``(attempted, failed)``; a kind that was
    never attempted counts as passed, so the base is the same fixed set of
    kinds on every run.  Each kind weighs the same however many times it
    ran, so a check that fails on every routed board moves the ratio by a
    whole kind even when hits outnumber routes a hundredfold.
    """
    if not counts:
        raise ValueError("no check kinds")
    return sum(1.0 - ratio(failed, attempted) for attempted, failed in counts.values()) / len(counts)


def calibrate(raw: float, kernel: float, k_ref: float) -> float:
    """``raw`` seconds in reference seconds: ``raw × K_ref / K_adjacent``,
    where ``kernel`` is the adjacent calibration-kernel time."""
    if kernel <= 0.0:
        raise ValueError("kernel time must be positive")
    return raw * k_ref / kernel


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, the tail percentile the sample count allows, and the count."""
    out: Dict[str, float] = {"n": len(values)}
    if values:
        out["p50"] = percentile(values, 50.0)
        tail = tail_percentile(len(values))
        if tail is not None:
            out["tail_q"] = tail
            out["tail"] = percentile(values, tail)
    return out
