"""Scenario specifications — the reproducibility contract.

A :class:`ScenarioSpec` is the complete recipe for one synthetic board:
the registered generator ``name``, the integer ``seed`` feeding its
``random.Random``, and the generator-specific ``params`` overriding the
registry defaults.  Two equal specs produce byte-identical board JSON —
that is the contract the scenario tests enforce, and what makes any
corpus result reproducible from its provenance entry alone.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping


def _normalized_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Params in sorted key order — recursively, so equal specs with
    differently-ordered nested dicts (tiled's ``base_params``) serialise
    identically too."""
    def norm(value: Any) -> Any:
        if isinstance(value, Mapping):
            return {key: norm(value[key]) for key in sorted(value)}
        return value

    return {key: norm(params[key]) for key in sorted(params)}


@dataclass(frozen=True)
class ScenarioSpec:
    """One reproducible board: ``(name, seed, params)``."""

    name: str
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _normalized_params(self.params))

    def __hash__(self) -> int:
        # The frozen-dataclass default hashes the params dict and raises;
        # hash the canonical JSON form instead so specs work in sets and
        # as cache keys (params values are JSON-serialisable by contract,
        # including nested dicts like tiled's base_params).
        return hash((self.name, self.seed, json.dumps(self.params, sort_keys=True)))

    @property
    def board_name(self) -> str:
        """The generated board's identifier, e.g. ``serpentine_bus-s3``."""
        return f"{self.name}-s{self.seed}"

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form — what lands in provenance entries.

        The params are deep-copied: the returned dict is safe to mutate
        without corrupting this (frozen, hashed) spec through nested
        references.
        """
        return {
            "name": self.name,
            "seed": self.seed,
            "params": copy.deepcopy(dict(self.params)),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (tolerant of
        missing ``seed``/``params``)."""
        return cls(
            name=data["name"],
            seed=int(data.get("seed", 0)),
            params=dict(data.get("params", {})),
        )
