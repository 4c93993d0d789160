"""The synthetic generator against the whole-array oracle in
``conftest.py``, and its clear-sky bell over a given daylight window."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarcast import DaylightWindow, generate_synthetic
from solarcast.synthetic import REGIMES

from conftest import generate_synthetic_oracle


def assert_same_series(days, regime, seed, step):
    series = generate_synthetic(days, regime, seed=seed, step=step)
    oracle = generate_synthetic_oracle(days, regime, seed=seed, step=step)
    assert (series.start, series.step) == (oracle.start, oracle.step)
    assert series.values.tobytes() == oracle.values.tobytes()
    assert not series.values.flags.writeable


@settings(max_examples=120, deadline=None)
@given(days=st.integers(1, 40), regime=st.sampled_from(REGIMES),
       seed=st.integers(0, 2**32 - 1), step=st.sampled_from((5, 10, 60)))
def test_matches_the_oracle_bit_for_bit(days, regime, seed, step):
    """Each day's recurrence carries on from the last slot of the day
    before, with the start value drawn after every innovation."""
    assert_same_series(days, regime, seed, step)


@pytest.mark.parametrize("regime", REGIMES)
def test_ten_years_match_the_oracle(regime):
    assert_same_series(3650, regime, 7, 10)


def test_the_bell_spans_the_daylight_window():
    """Every slot outside the window is 0, every slot inside it lit,
    with the peak at its middle; the default window is the default."""
    window = DaylightWindow(480, 960)  # 08:00-16:00
    for regime in REGIMES:
        days = generate_synthetic(3, regime, seed=5, daylight=window).values.reshape(3, 144)
        minutes = np.arange(144) * 10
        assert not days[:, (minutes < 480) | (minutes > 960)].any()
        assert (days[:, (minutes > 480) & (minutes < 960)] > 0).all()
    assert generate_synthetic(1, "clear", daylight=window).values[72] == 1000.0
    assert np.array_equal(generate_synthetic(2, "mixed", seed=5).values,
                          generate_synthetic(2, "mixed", seed=5, daylight=DaylightWindow()).values)
