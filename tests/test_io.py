"""Tests for board JSON serialization."""

import math

import pytest

from repro.bench import make_msdtw_case, make_table1_case
from repro.io import (
    board_from_dict,
    board_from_json,
    board_to_dict,
    board_to_json,
    load_board,
    save_board,
)


class TestRoundTrip:
    def test_table1_board_round_trips(self):
        board, _ = make_table1_case(1)
        restored = board_from_json(board_to_json(board))
        assert len(restored.traces) == len(board.traces)
        assert len(restored.obstacles) == len(board.obstacles)
        assert len(restored.groups) == 1
        for a, b in zip(board.traces, restored.traces):
            assert a.name == b.name
            assert math.isclose(a.length(), b.length(), rel_tol=1e-12)

    def test_board_name_round_trips(self):
        board, _ = make_table1_case(1)
        board.name = "case1"
        assert board_from_json(board_to_json(board)).name == "case1"
        # Pre-name documents load with an empty name.
        data = board_to_dict(board)
        del data["name"]
        assert board_from_dict(data).name == ""

    def test_pair_board_round_trips(self):
        board, pair = make_msdtw_case()
        restored = board_from_json(board_to_json(board))
        rp = restored.pair_by_name(pair.name)
        assert rp.rule == pair.rule
        assert rp.extra_rules == pair.extra_rules
        assert math.isclose(rp.length(), pair.length(), rel_tol=1e-12)
        assert math.isclose(rp.skew(), pair.skew(), abs_tol=1e-12)

    def test_rules_and_dras_preserved(self):
        board, _ = make_msdtw_case()
        restored = board_from_json(board_to_json(board))
        assert restored.rules.default == board.rules.default
        assert len(restored.rules.areas) == len(board.rules.areas)
        assert restored.rules.areas[0].rules.dgap == board.rules.areas[0].rules.dgap

    def test_routable_areas_preserved(self):
        board, pair = make_msdtw_case()
        restored = board_from_json(board_to_json(board))
        area = restored.routable_areas[pair.name]
        assert math.isclose(
            area.area(), board.routable_areas[pair.name].area(), rel_tol=1e-12
        )

    def test_group_membership_rebound(self):
        board, _ = make_table1_case(2)
        restored = board_from_json(board_to_json(board))
        group = restored.groups[0]
        assert group.members[0] is restored.traces[0]
        assert group.target_length == board.groups[0].target_length

    def test_file_round_trip(self, tmp_path):
        board, _ = make_table1_case(3)
        path = save_board(board, str(tmp_path / "board.json"))
        restored = load_board(path)
        assert len(restored.traces) == len(board.traces)

    def test_routing_after_reload(self, tmp_path):
        from repro import LengthMatchingRouter, check_board

        board, spec = make_table1_case(4)
        restored = board_from_json(board_to_json(board))
        report = LengthMatchingRouter(restored).match_group(restored.groups[0])
        assert report.max_error() < 0.06
        assert check_board(restored).is_clean()


class TestValidation:
    def test_unknown_version_rejected(self):
        board, _ = make_table1_case(1)
        data = board_to_dict(board)
        data["version"] = 999
        with pytest.raises(ValueError):
            board_from_dict(data)

    def test_missing_member_rejected(self):
        board, _ = make_table1_case(1)
        data = board_to_dict(board)
        data["groups"][0]["members"].append("ghost")
        with pytest.raises(ValueError):
            board_from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinate_rejected(self, value):
        board, _ = make_table1_case(1)
        data = board_to_dict(board)
        data["traces"][0]["path"][1][0] = value
        with pytest.raises(ValueError, match="finite"):
            board_from_dict(data)
