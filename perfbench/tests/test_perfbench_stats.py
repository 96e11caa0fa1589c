"""Percentiles and spreads the benchmark reports."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import common  # noqa: E402


def test_nearest_rank_percentile_picks_an_observed_sample():
    values = [float(v) for v in range(1, 11)]  # 1..10
    assert common.percentile(values, 50) == 5.0
    assert common.percentile(values, 90) == 9.0
    assert common.percentile(values, 91) == 10.0
    assert common.percentile(values, 100) == 10.0
    assert common.percentile(values, 0) == 1.0
    assert common.percentile([7.0], 99) == 7.0


def test_percentile_of_no_samples_is_an_error():
    with pytest.raises(ValueError):
        common.percentile([], 50)


@pytest.mark.parametrize(
    "n, pct",
    [
        (10_000, 99.9),  # 10 samples beyond p99.9
        (9_999, 99.0),   # p99.9 would leave only 9
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (20, 50.0),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = [float(v) for v in range(n)]
    reported, value = common.tail_percentile(values)
    assert reported == pct
    assert sum(1 for v in values if v > value) >= common.TAIL_MIN_BEYOND


def test_tail_percentile_needs_enough_samples():
    assert common.tail_percentile([1.0] * 19) is None


def test_tail_percentile_sorts_its_input():
    values = [float(v) for v in range(100)][::-1]
    assert common.tail_percentile(values) == (90.0, 89.0)


def test_quartile_spread_is_a_share_of_the_median():
    assert common.quartile_spread([10.0, 10.0, 10.0]) == 0.0
    spread = common.quartile_spread([9.0, 10.0, 11.0, 10.0, 10.0])
    assert spread == pytest.approx(0.1)
    assert common.quartile_spread([1.0]) is None
