"""Catalogue contract tests for the scenario registry."""

import pytest

from repro.scenarios import (
    ScenarioFamily,
    ScenarioSpec,
    describe,
    generate,
    get,
    list_scenarios,
    register,
    scenario_names,
)


@pytest.mark.smoke
class TestCatalogue:
    def test_at_least_five_families(self):
        assert len(list_scenarios()) >= 5

    def test_names_sorted_and_consistent(self):
        names = scenario_names()
        assert names == sorted(names)
        assert [f.name for f in list_scenarios()] == names

    def test_every_family_is_tagged(self):
        for family in list_scenarios():
            assert family.difficulty in ("easy", "medium", "hard")
            assert isinstance(family.feasible, bool)
            assert family.description
            assert family.defaults  # parameterized, not hard-coded

    def test_feasible_only_filter(self):
        assert all(f.feasible for f in list_scenarios(feasible_only=True))

    def test_tag_filter(self):
        tagged = list_scenarios(tag="pairs")
        assert tagged and all("pairs" in f.tags for f in tagged)

    def test_get_unknown_lists_alternatives(self):
        with pytest.raises(KeyError, match="serpentine_bus"):
            get("nope")

    def test_describe_mentions_defaults(self):
        text = describe("serpentine_bus")
        assert "serpentine_bus" in text and "traces=" in text

    def test_register_rejects_duplicates(self):
        family = get("serpentine_bus")
        with pytest.raises(ValueError, match="already registered"):
            register(family)

    def test_register_rejects_unknown_difficulty(self):
        with pytest.raises(ValueError, match="difficulty"):
            register(
                ScenarioFamily(
                    name="bogus_difficulty",
                    builder=lambda rng: None,
                    description="x",
                    difficulty="impossible",
                    feasible=False,
                )
            )


class TestGenerate:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            generate("serpentine_bus", seed=0, params={"bogus": 1})

    def test_spec_and_kwargs_are_equivalent(self):
        from repro.io import board_to_json

        spec = ScenarioSpec("obstacle_maze", seed=5, params={"walls": 3})
        assert board_to_json(generate(spec)) == board_to_json(
            generate("obstacle_maze", seed=5, params={"walls": 3})
        )

    def test_spec_plus_kwargs_rejected(self):
        with pytest.raises(ValueError):
            generate(ScenarioSpec("serpentine_bus"), seed=1)

    def test_board_name_and_meta(self):
        board = generate("bga_escape", seed=9)
        assert board.name == "bga_escape-s9"
        prov = board.meta["scenario"]
        assert prov["name"] == "bga_escape" and prov["seed"] == 9
        # Effective params are fully materialised (defaults merged).
        assert prov["params"]["traces"] == 5

    def test_tiled_cannot_nest(self):
        with pytest.raises(ValueError, match="nest"):
            generate("tiled", seed=0, params={"base": "tiled"})

    def test_tiled_unknown_base_is_a_value_error(self):
        # ValueError, not KeyError: `base` is user input and must get the
        # same usage-error treatment as every other bad parameter.
        with pytest.raises(ValueError, match="unknown scenario"):
            generate("tiled", seed=0, params={"base": "nope"})

    def test_badly_typed_param_is_a_value_error(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            generate("serpentine_bus", seed=0, params={"traces": "abc"})

    def test_nested_param_order_is_normalised(self):
        from repro.io import board_to_json

        a = ScenarioSpec("tiled", 0, {"base_params": {"traces": 2, "length": 70.0}})
        b = ScenarioSpec("tiled", 0, {"base_params": {"length": 70.0, "traces": 2}})
        assert a == b
        assert board_to_json(generate(a)) == board_to_json(generate(b))

    def test_mutating_provenance_cannot_corrupt_the_catalogue(self):
        """Board.meta holds deep copies: poking at one board's provenance
        (or its nested dicts) must not leak into the frozen defaults or
        into boards generated later from the same spec."""
        from repro.io import board_to_json

        baseline = board_to_json(generate("tiled", seed=0))
        victim = generate("tiled", seed=0)
        victim.meta["scenario"]["params"]["base_params"]["traces"] = 1
        assert board_to_json(generate("tiled", seed=0)) == baseline


class TestSpec:
    def test_params_normalised_sorted(self):
        spec = ScenarioSpec("s", 1, {"b": 2, "a": 1})
        assert list(spec.params) == ["a", "b"]

    def test_roundtrip(self):
        spec = ScenarioSpec("serpentine_bus", 3, {"traces": 4})
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_tolerates_missing_fields(self):
        spec = ScenarioSpec.from_dict({"name": "x"})
        assert spec.seed == 0 and dict(spec.params) == {}

    def test_to_dict_is_safe_to_mutate(self):
        spec = ScenarioSpec("tiled", 0, {"base_params": {"traces": 2}})
        original_hash = hash(spec)
        spec.to_dict()["params"]["base_params"]["traces"] = 99
        assert spec.params["base_params"]["traces"] == 2
        assert hash(spec) == original_hash

    def test_specs_are_hashable_even_with_nested_params(self):
        a = ScenarioSpec("tiled", 0, {"base_params": {"traces": 2}})
        b = ScenarioSpec("tiled", 0, {"base_params": {"traces": 2}})
        c = ScenarioSpec("tiled", 1, {"base_params": {"traces": 2}})
        assert len({a, b, c}) == 2 and hash(a) == hash(b)
