"""The speedometer's window arithmetic."""

import pytest

from e2e import speed


def meter_with(spins):
    meter = speed.SpeedMeter()
    meter.spins = list(spins)
    return meter


def test_factor_takes_two_spins_on_each_side():
    # Op 2 ran between spins[2] and spins[3]; its window is 1..4.
    meter = meter_with([100.0, 8.0, 16.0, 16.0, 8.0, 100.0])
    assert meter.factor(2) == pytest.approx(speed.NOMINAL_SPIN_MS / 12.0)


def test_factor_at_the_ends_uses_what_exists():
    meter = meter_with([16.0, 16.0, 16.0])
    assert meter.factor(0) == pytest.approx(0.5)
    assert meter.factor(2) == pytest.approx(0.5)


def test_quiet_box_reads_plain_milliseconds():
    meter = meter_with([speed.NOMINAL_SPIN_MS] * 5)
    assert meter.factor(2) == 1.0


def test_sample_returns_marks_in_order():
    meter = speed.SpeedMeter()
    assert [meter.sample(), meter.sample()] == [0, 1]
    assert all(ms > 0 for ms in meter.spins)
