"""Micro-benchmarks of the core kernels.

These time the individual stages the complexity discussion (Sec. IV-D)
reasons about: URA shrinking, one segment DP, DTW matching and full-board
DRC.  Useful for catching performance regressions;
they run with pytest-benchmark's normal calibration (they are fast).
"""

import pytest

from repro.core import DPConfig, SegmentDP, ShrinkEnvironment
from repro.core import ExtensionConfig, TraceExtender
from repro.drc import check_board
from repro.dtw import dtw_match, msdtw
from repro.geometry import Point, Polyline, rectangle
from repro.model import Board, DesignRules, Trace, via


@pytest.fixture
def via_field_env() -> ShrinkEnvironment:
    polys = [rectangle(-20, -30, 120, 30)]
    for k in range(40):
        x = 3.0 * k
        y = 6.0 + 4.0 * (k % 4)
        polys.append(rectangle(x, y, x + 2.0, y + 2.0))
    return ShrinkEnvironment.from_polygons(polys)


def test_bench_shrink_single_height(benchmark, via_field_env):
    h = benchmark(
        via_field_env.max_pattern_height, 30.0, 50.0, 2.0, 25.0, 1.0
    )
    assert h >= 0.0


def test_bench_segment_dp(benchmark, via_field_env):
    cfg = DPConfig(
        step=1.0, n=60, k_gap=5, k_protect=2, w_min=2,
        h_min=2.0, h_init=20.0, g=2.0,
    )

    def run():
        dp = SegmentDP(cfg, {1: via_field_env, -1: via_field_env})
        return dp.run()

    result = benchmark(run)
    assert result.gain > 0


def test_bench_trace_extension(benchmark):
    rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
    area = rectangle(-20, -40, 120, 40)
    trace = Trace("t", Polyline([Point(0, 0), Point(100, 0)]), width=1.0)

    def run():
        ext = TraceExtender(rules, area, config=ExtensionConfig())
        return ext.extend(trace, 150.0)

    result = benchmark(run)
    assert abs(result.achieved - 150.0) < 1e-3


def test_bench_dtw_matching(benchmark):
    p = [Point(i * 2.0, 1.0 + 0.1 * (i % 3)) for i in range(80)]
    q = [Point(i * 2.1, -1.0) for i in range(75)]
    pairs, _ = benchmark(dtw_match, p, q)
    assert len(pairs) >= 80


def test_bench_msdtw_multiscale(benchmark):
    p = [Point(i * 2.0, 1.0) for i in range(60)]
    q = [Point(i * 2.0, -1.0) for i in range(60)]
    result = benchmark(msdtw, p, q, [2.0, 4.0, 8.0])
    assert len(result.pairs) == 60


def test_bench_full_board_drc(benchmark):
    rules = DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
    board = Board.with_rect_outline(0, 0, 200, 120, rules)
    for k in range(6):
        board.add_trace(
            Trace(
                f"t{k}",
                Polyline([Point(5, 10 + 18 * k), Point(195, 10 + 18 * k)]),
                width=1.0,
            )
        )
    # Vias on the midlines between trace rows: the fixture is DRC-clean.
    for k in range(10):
        board.add_obstacle(via(Point(15 + 18 * k, 19 + 18 * (k % 5)), 1.5))
    report = benchmark(check_board, board)
    assert report.is_clean()
