"""Non-finite numbers are rejected where the model validates its inputs.

``NaN <= 0`` is False, so a plain sign check lets NaN through; a NaN
rule or width used to reach the router and crash it (or vacuously pass
every clearance comparison).  Every ``__post_init__`` check must reject
NaN and infinities alike.
"""

import math

import pytest

from repro.geometry import Point, Polyline
from repro.model import DesignRules, DifferentialPair, MatchGroup, Trace

NON_FINITE = [math.nan, math.inf, -math.inf]


def straight(name="t", y=0.0, width=0.5):
    return Trace(name, Polyline([Point(0, y), Point(10, y)]), width=width)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["dgap", "dobs", "dprotect", "dmiter"])
def test_design_rules_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        DesignRules(**{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
def test_trace_width_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        straight(width=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_pair_rule_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        DifferentialPair("d", straight("d_P", 1.0), straight("d_N", -1.0), rule=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_group_tolerance_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        MatchGroup("g", tolerance=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_group_target_length_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        MatchGroup("g", target_length=value)


def test_finite_values_still_accepted():
    DesignRules(dgap=4.0, dobs=0.0, dprotect=0.0, dmiter=0.0)
    pair = DifferentialPair(
        "d", straight("d_P", 1.0), straight("d_N", -1.0), rule=2.0
    )
    group = MatchGroup("g", members=[pair], target_length=12.0, tolerance=0.1)
    assert group.target_length == 12.0
