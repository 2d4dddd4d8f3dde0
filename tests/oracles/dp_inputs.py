"""Real DP inputs captured from routing.

:func:`corpus_dp_inputs` routes one board of a scenario family with the
``fast`` preset, :func:`region_dp_inputs` the same board with its areas
cleared and the ``default`` preset, :func:`table2_dp_inputs` runs the
Table II via-field extension; each records every
:class:`~repro.core.dp.SegmentDP` the extender builds: its
:class:`~repro.core.dp.DPConfig` and, per direction, the environment's
flat coordinate arrays.  Tests rebuild
fresh environments from the arrays (:func:`fresh_envs`,
:func:`oracle_env`), so no memo filled during the routing run leaks
into what they check.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.core.dp import DPConfig
from repro.geometry import Polygon

Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray]
DPInput = Tuple[DPConfig, Dict[int, Arrays]]


def _recorded(run) -> Tuple[DPInput, ...]:
    """Every DP constructed while ``run()`` routes."""
    import repro.core.extension as extension_mod

    captured: List[DPInput] = []
    production = extension_mod.SegmentDP

    class Recording(production):
        def __init__(self, config, envs):
            captured.append(
                (
                    dataclasses.replace(config),
                    {d: (env._xs, env._ys, env._sizes) for d, env in envs.items()},
                )
            )
            super().__init__(config, envs)

    extension_mod.SegmentDP = Recording
    try:
        run()
    finally:
        extension_mod.SegmentDP = production
    return tuple(captured)


@lru_cache(maxsize=None)
def corpus_dp_inputs(family: str, seed: int = 0) -> Tuple[DPInput, ...]:
    """Every DP the ``fast`` route of ``family``/``seed`` constructs."""
    from repro.api import RoutingSession, SessionConfig
    from repro.scenarios import generate

    board = generate(family, seed=seed)
    session = RoutingSession(board, config=SessionConfig.preset("fast"))
    return _recorded(session.run)


@lru_cache(maxsize=None)
def region_dp_inputs(family: str, seed: int = 0) -> Tuple[DPInput, ...]:
    """Every DP the ``default`` route of ``family``/``seed`` constructs
    once its routable areas are cleared, so the region stage assigns
    them (the Fig. 2 flow of the ``unassigned_mixed_12`` benchmark)."""
    from repro.api import RoutingSession, SessionConfig
    from repro.scenarios import generate

    board = generate(family, seed=seed)
    board.routable_areas.clear()
    session = RoutingSession(board, config=SessionConfig.preset("default"))
    return _recorded(session.run)


@lru_cache(maxsize=None)
def table2_dp_inputs(dgap: float = 4.0) -> Tuple[DPInput, ...]:
    """Every DP of the Table II via-field extension upper bound: large
    environments, and most segments fail the feasibility prune."""
    from repro.bench.designs import make_table2_design
    from repro.bench.harness import _table2_extender

    board, trace = make_table2_design(dgap)
    extender = _table2_extender(board, trace, use_dp=True)
    return _recorded(lambda: extender.extension_upper_bound(trace))


def spread(items, count: int):
    """``count`` items spread evenly over ``items`` (all when fewer)."""
    if len(items) <= count:
        return list(items)
    return [items[k * len(items) // count] for k in range(count)]


def fresh_envs(envs: Dict[int, Arrays], mirrored: bool = True):
    """Production environments over captured arrays, memos empty.

    A pair captured from :meth:`ShrinkEnvironment.mirrored` (the -1 side
    shares the +1 side's x array) is rebuilt the same way, so the DP takes
    the extender's one-pass path; ``mirrored=False`` builds the two sides
    independently instead.
    """
    from repro.core.shrink import ShrinkEnvironment

    if mirrored and envs[-1][0] is envs[1][0]:
        env = ShrinkEnvironment(*envs[1])
        return {1: env, -1: env.mirrored()}
    return {d: ShrinkEnvironment(*arrays) for d, arrays in envs.items()}


def polygons(arrays: Arrays) -> List[Polygon]:
    """The captured environment's polygons, vertex for vertex."""
    from repro.core.shrink import ShrinkEnvironment

    env = ShrinkEnvironment(*arrays)
    return [Polygon(env._poly_points(pid)) for pid in range(len(arrays[2]))]


def oracle_env(arrays: Arrays):
    """The polygon oracle environment over captured arrays."""
    from .shrink import ShrinkEnvironment

    return ShrinkEnvironment(polygons(arrays))
