"""Tests for the unified RoutingSession pipeline."""

import pytest

from repro import (
    Board,
    DesignRules,
    MatchGroup,
    Point,
    Polyline,
    RoutingSession,
    SessionConfig,
    Trace,
    default_stages,
)
from repro.api import DrcConfig, RegionConfig, StageRecord
from repro.api.stages import StageFailure
from repro.core import LengthMatchingRouter, RouterConfig

RULES = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)


def bus_board(n=2, target=120.0, name="bus_board"):
    board = Board.with_rect_outline(0, 0, 100, 20 + 25 * n, RULES)
    board.name = name
    members = []
    for k in range(n):
        t = board.add_trace(
            Trace(
                f"sig{k}",
                Polyline([Point(5, 15 + 25 * k), Point(95, 15 + 25 * k)]),
                width=1.0,
            )
        )
        members.append(t)
    board.add_group(MatchGroup("bus", members=members, target_length=target))
    return board


@pytest.mark.smoke
class TestPipeline:
    def test_run_executes_all_stages_in_order(self):
        result = RoutingSession(bus_board()).run()
        assert [s.name for s in result.stages] == ["region", "match", "drc"]
        assert result.ok()
        assert result.board == "bus_board"

    def test_matching_reaches_target(self):
        result = RoutingSession(bus_board()).run()
        assert result.max_error() <= 1e-5
        assert result.drc is not None and result.drc.is_clean()

    def test_region_stage_assigns_areas(self):
        board = bus_board()
        result = RoutingSession(board).run()
        record = result.stage("region")
        assert record.status == "ok"
        assert set(record.data["traces"]) == {"sig0", "sig1"}
        assert set(board.routable_areas) == {"sig0", "sig1"}

    def test_region_stage_respects_explicit_areas(self):
        board = bus_board()
        for t in board.traces:
            board.set_routable_area(t.name, board.outline)
        result = RoutingSession(board).run()
        assert result.stage("region").status == "skipped"

    def test_region_stage_disabled(self):
        result = RoutingSession(
            bus_board(), config=SessionConfig(region=RegionConfig(enabled=False))
        ).run()
        assert result.stage("region").status == "skipped"
        assert result.ok()

    def test_drc_stage_disabled(self):
        result = RoutingSession(
            bus_board(), config=SessionConfig(drc=DrcConfig(enabled=False))
        ).run()
        assert result.stage("drc").status == "skipped"
        assert result.drc is None
        assert result.ok()

    def test_empty_board_skips_match(self):
        board = Board.with_rect_outline(0, 0, 50, 50, RULES)
        result = RoutingSession(board).run()
        assert result.stage("match").status == "skipped"
        assert result.groups == []
        assert result.max_error() == 0.0

    def test_config_snapshot_recorded(self):
        result = RoutingSession(bus_board(), config="fast").run()
        assert result.config["preset_name"] == "fast"
        assert result.config["extension"]["max_iterations"] == 150

    def test_region_infeasible_records_failure_and_continues(self):
        # A tiny board with an absurd target: the LP cannot provision it.
        board = Board.with_rect_outline(0, 0, 30, 8, RULES)
        t = board.add_trace(
            Trace("t0", Polyline([Point(2, 4), Point(28, 4)]), width=1.0)
        )
        board.add_group(MatchGroup("g", members=[t], target_length=2000.0))
        config = SessionConfig(drc=DrcConfig(enabled=False))
        config.extension.max_iterations = 5  # keep the doomed match short
        result = RoutingSession(board, config).run()
        assert result.stage("region").status == "failed"
        assert result.stage("match") is not None  # pipeline kept going
        assert not result.ok()

    def test_match_miss_marks_stage_failed(self):
        # Regression: a corridor too tight to absorb the deficit must
        # surface as a failed match stage (and a non-OK run), not OK.
        board = Board.with_rect_outline(0, 0, 30, 8, RULES)
        t = board.add_trace(
            Trace("t0", Polyline([Point(2, 4), Point(28, 4)]), width=1.0)
        )
        board.add_group(MatchGroup("g", members=[t], target_length=200.0))
        config = SessionConfig(
            region=RegionConfig(enabled=False), drc=DrcConfig(enabled=False)
        )
        config.extension.max_iterations = 50
        result = RoutingSession(board, config).run()
        record = result.stage("match")
        assert record.status == "failed"
        assert "missed target" in record.detail
        assert not result.ok()

    def test_region_infeasible_strict_raises(self):
        board = Board.with_rect_outline(0, 0, 30, 8, RULES)
        t = board.add_trace(
            Trace("t0", Polyline([Point(2, 4), Point(28, 4)]), width=1.0)
        )
        board.add_group(MatchGroup("g", members=[t], target_length=2000.0))
        config = SessionConfig(region=RegionConfig(strict=True))
        with pytest.raises(StageFailure):
            RoutingSession(board, config).run()


@pytest.mark.smoke
class TestObservers:
    def test_callbacks_fire_in_order(self):
        events = []
        RoutingSession(
            bus_board(),
            on_stage_start=lambda s, stage: events.append(("start", stage.name)),
            on_stage_end=lambda s, rec: events.append(("end", rec.name)),
            on_member_done=lambda s, m: events.append(("member", m.name)),
        ).run()
        assert events == [
            ("start", "region"),
            ("end", "region"),
            ("start", "match"),
            ("member", "sig0"),
            ("member", "sig1"),
            ("end", "match"),
            ("start", "drc"),
            ("end", "drc"),
        ]


class TestPluggableStages:
    def test_custom_stage_drops_in(self):
        class SkewProbeStage:
            name = "skew-probe"

            def run(self, session, result):
                pairs = len(session.board.pairs)
                return StageRecord(self.name, data={"pairs": pairs})

        stages = default_stages()
        stages.insert(2, SkewProbeStage())
        result = RoutingSession(bus_board(), stages=stages).run()
        assert [s.name for s in result.stages] == [
            "region",
            "match",
            "skew-probe",
            "drc",
        ]
        assert result.stage("skew-probe").data == {"pairs": 0}

    def test_stage_subset(self):
        from repro.api import LengthMatchingStage

        board = bus_board()
        result = RoutingSession(board, stages=[LengthMatchingStage()]).run()
        assert [s.name for s in result.stages] == ["match"]
        assert board.routable_areas == {}


class TestRunMany:
    def test_batch_routing(self):
        boards = [bus_board(name=f"b{k}") for k in range(3)]
        results = RoutingSession.run_many(boards, config="fast")
        assert [r.board for r in results] == ["b0", "b1", "b2"]
        assert all(r.max_error() <= 1e-5 for r in results)


class TestConfig:
    def test_presets_exist(self):
        for name in SessionConfig.PRESETS:
            config = SessionConfig.preset(name)
            assert config.preset_name == name

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig.preset("turbo")

    def test_config_dict_roundtrip(self):
        config = SessionConfig.preset("quality")
        config.tolerance = 0.25
        rebuilt = SessionConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_from_dict_ignores_unknown_keys(self):
        data = SessionConfig().to_dict()
        data["future_knob"] = True
        data["extension"]["other"] = 1
        rebuilt = SessionConfig.from_dict(data)
        assert rebuilt.extension == SessionConfig().extension

    def test_router_config_equivalence(self):
        # The session config *is* the router's config: no conversion
        # step exists that could drop or copy a knob.
        rc = SessionConfig(breakout_nodes=2, apply_miter=True)
        assert isinstance(rc, RouterConfig)
        assert rc.breakout_nodes == 2
        assert rc.apply_miter is True
        assert LengthMatchingRouter(bus_board(), rc).config.extension is rc.extension


class TestToleranceResolution:
    """Satellite: one effective tolerance, documented precedence."""

    def test_session_override_wins(self):
        group = MatchGroup("g", tolerance=1e-3)
        config = SessionConfig(tolerance=0.5)
        assert config.effective_tolerance(group) == 0.5

    def test_group_tolerance_next(self):
        group = MatchGroup("g", tolerance=0.123)
        assert SessionConfig().effective_tolerance(group) == 0.123

    def test_engine_default_without_group(self):
        config = SessionConfig()
        assert config.effective_tolerance() == config.extension.tolerance

    def test_loose_group_tolerance_reaches_router(self):
        # Trace length 90, target 95, group tolerance 10: the member is
        # already "matched" under the group's own tolerance and must be
        # left untouched (one effective tolerance, group wins).
        board = bus_board(n=1, target=95.0)
        board.groups[0].tolerance = 10.0
        result = RoutingSession(board).run()
        member = result.groups[0].members[0]
        assert member.length_after == member.length_before

    def test_session_override_reaches_router(self):
        # Same board, but a *tighter* session override forces the match.
        board = bus_board(n=1, target=95.0)
        board.groups[0].tolerance = 10.0
        config = SessionConfig(tolerance=1e-3)
        result = RoutingSession(board, config).run()
        member = result.groups[0].members[0]
        assert member.length_after == pytest.approx(95.0, abs=1e-3)
