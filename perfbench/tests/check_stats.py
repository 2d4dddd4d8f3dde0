"""Percentile rule, ratio bases and calibration arithmetic."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import kernel  # noqa: E402
import stats  # noqa: E402


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5
    assert stats.percentile([3, 1, 2], 0) == 1
    assert stats.percentile([3, 1, 2], 100) == 3
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [
        (1000, 99),  # exactly 10 samples beyond p99
        (999, 98),
        (5000, 99),  # never above the wanted percentile
        (200, 95),
        (100, 90),
        (20, 50),
        (19, None),  # not even 10 beyond the median
        (0, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= stats.TAIL_SAMPLES - 1e-9


def test_summary_reports_median_tail_and_count():
    values = list(range(1, 101))
    out = stats.summary(values)
    assert out["n"] == 100 and out["p50"] == 50.5
    assert out["tail_q"] == 90 and out["tail"] == stats.percentile(values, 90)
    assert "tail" not in stats.summary([1.0] * 5)


def test_ratio_bases():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(5, 0) == 0.0


def test_check_ratio_weighs_every_kind_the_same():
    counts = {"answer": (1500, 0), "pins": (10, 10), "drc": (10, 0), "hit_match": (0, 0)}
    # One kind failing on all 10 routed boards costs a whole kind, however
    # many hits there were; a kind never attempted counts as passed.
    assert stats.check_ratio(counts) == pytest.approx(0.75)
    assert stats.check_ratio({"answer": (4, 1), "pins": (2, 0)}) == pytest.approx(0.875)
    with pytest.raises(ValueError):
        stats.check_ratio({})


def test_calibration_converts_to_reference_seconds():
    # A machine whose kernel takes twice K_ref runs everything at half
    # speed: calibrated times are halved.
    assert stats.calibrate(4.0, kernel=0.2, k_ref=0.1) == pytest.approx(2.0)
    assert stats.calibrate(3.0, kernel=0.05, k_ref=0.1) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        stats.calibrate(1.0, kernel=0.0, k_ref=0.1)


def test_kernel_does_fixed_work_without_the_program():
    assert kernel.kernel_work(500) == kernel.kernel_work(500)
    assert "repro" not in open(kernel.__file__, encoding="utf-8").read().replace("``repro``", "")
    assert kernel.run_kernel() > 0
