"""Ablation benches for the design choices of the DP engine (Sec. IV).

Beyond the paper's own DP-vs-no-DP ablation (Table II), these isolate the
individual mechanisms the DP engine is built from:

* **p_local / connected patterns** (Fig. 3(c), Fig. 5) — connected
  patterns pack denser (pitch = pattern width instead of width + d_gap)
  and merged legs host later meander-on-meander rounds;
* **node feet** (Fig. 3(d)) — feet on segment nodes rescue capacity near
  corners that ``d_protect`` stubs would otherwise waste;
* **obstacle enclosure** (the inner-border exception of Alg. 2) — the
  via-field capacity left when patterns must avoid instead of enclose;
* **the dominance break / column-bound prefilter** — pure-speed knobs,
  benched for regression tracking via the DP micro-bench in
  test_components.py.
"""

import math

import pytest

from repro.bench.designs import make_table2_design
from repro.core import ClearanceScene, ExtensionConfig, TraceExtender
from repro.geometry import Point, Polyline, rectangle
from repro.model import DesignRules, Trace

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
CORRIDOR = rectangle(-5.0, -8.0, 105.0, 8.0)


def _extender(**cfg) -> TraceExtender:
    return TraceExtender(RULES, CORRIDOR, config=ExtensionConfig(**cfg))


def _trace() -> Trace:
    return Trace("t", Polyline([Point(0, 0), Point(100, 0)]), width=1.0)


def test_ablation_plocal(once):
    """Connected patterns buy a large share of the tight-corridor capacity."""

    def run():
        with_plocal = _extender().extension_upper_bound(_trace()).achieved
        without = _extender(allow_plocal=False).extension_upper_bound(_trace()).achieved
        return with_plocal, without

    with_plocal, without = once(run)
    assert with_plocal > without * 1.2


def test_ablation_node_feet(once):
    """Node feet rescue capacity on short segments."""
    short = Trace("t", Polyline([Point(0, 0), Point(9, 0)]), width=1.0)

    def run():
        with_feet = _extender().extension_upper_bound(short).achieved
        without = _extender(allow_node_feet=False).extension_upper_bound(short).achieved
        return with_feet, without

    with_feet, without = once(run)
    assert with_feet > without


def test_ablation_obstacle_enclosure(once):
    """Enclosure (inner-border exception) vs. avoid-only.

    A dense via row hangs low over the trace with passages narrower than
    one URA arm, so no pattern can thread *between* the vias; the only way
    to the free space above is a wide pattern that takes the whole row
    into its inner border.  Forcing ``allow_enclosed`` off in the shrinker
    isolates exactly this mechanism.
    """
    from repro.core.shrink import ShrinkEnvironment
    from repro.model import via

    # Flank gaps admit exactly one URA arm (too narrow for a two-legged
    # "tower" pattern), passages between vias are 0.29 wide, and the area
    # below the trace is too shallow for patterns — the free space above
    # the row is reachable only by enclosing the whole row.
    area = rectangle(24.0, -3.0, 76.0, 40.0)
    trace = Trace("t", Polyline([Point(26, 0), Point(74, 0)]), width=1.0)
    vias = [via(Point(31.9 + 3.29 * k, 6.0), 1.5) for k in range(12)]
    cfg = dict(max_iterations=200, ldisc=0.5, max_points=120)

    def run():
        full = TraceExtender(
            RULES, area, ClearanceScene(vias), ExtensionConfig(**cfg)
        ).extension_upper_bound(trace).achieved

        original = ShrinkEnvironment.max_pattern_height

        def avoid_only(self, x_left, x_right, g, h_init, h_min, allow_enclosed=True):
            return original(self, x_left, x_right, g, h_init, h_min, False)

        ShrinkEnvironment.max_pattern_height = avoid_only
        try:
            avoid = TraceExtender(
                RULES, area, ClearanceScene(vias), ExtensionConfig(**cfg)
            ).extension_upper_bound(trace).achieved
        finally:
            ShrinkEnvironment.max_pattern_height = original
        return full, avoid

    full, avoid = once(run)
    assert full > 3.0 * avoid  # enclosure is the only route past the row
