"""The rules behind the printed numbers."""

import math

import pytest

from e2e import stats


def test_percentile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0]
    assert stats.percentile(values, 0.0) == 10.0
    assert stats.percentile(values, 1.0) == 40.0
    assert stats.percentile(values, 0.5) == 25.0
    assert stats.percentile(values[::-1], 0.9) == pytest.approx(37.0)


def test_percentile_rejects_bad_input():
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_p90_is_refused_under_a_hundred_samples():
    with pytest.raises(stats.InsufficientSamples):
        stats.p90([1.0] * 99)
    samples = [float(i) for i in range(100)]
    # Ten samples (90..99) lie beyond it.
    assert stats.p90(samples) == pytest.approx(89.1)
    assert sum(1 for s in samples if s > stats.p90(samples)) == 10


def test_geomean():
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert stats.geomean([5.0]) == pytest.approx(5.0)
    # Equal weight per value: one slow cell does not dominate.
    assert stats.geomean([1.0, 1.0, 1000.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])
    with pytest.raises(stats.InsufficientSamples):
        stats.geomean([])


def test_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles(n=4) on 1..10: 2.75 and 8.25; median 5.5.
    assert stats.spread(values) == pytest.approx(5.5 / 5.5)
    assert stats.spread([3.0] * 10) == 0.0
    assert not math.isnan(stats.spread([1.0, 2.0, 3.0, 4.0]))
