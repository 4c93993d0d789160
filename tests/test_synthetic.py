"""The synthetic generator against the whole-array oracle in
``conftest.py``, and its clear-sky bell over a given daylight window."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarcast import DaylightWindow, generate_synthetic, write_csv
from solarcast.cli import main
from solarcast.synthetic import REGIMES, SYNTH_BLOCK_DAYS

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


@pytest.mark.parametrize("seed", (0, 7, 123))
@pytest.mark.parametrize("days", (1, 7, SYNTH_BLOCK_DAYS - 1, SYNTH_BLOCK_DAYS, SYNTH_BLOCK_DAYS + 1, 100))
@pytest.mark.parametrize("regime", REGIMES)
def test_synth_streams_the_generated_series(tmp_path, regime, days, seed):
    """``synth`` writes its blocks of days as they are made, byte for
    byte as ``write_csv`` writes the whole generated series."""
    assert main(["synth", "--days", str(days), "--regime", regime, "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    streamed = tmp_path / f"synthetic_{regime}_{days}d.csv"
    lines = streamed.read_text().splitlines()
    header = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    assert len(lines) == len(header) + 1 + days * 144
    write_csv(generate_synthetic(days, regime, seed=seed), tmp_path / "whole.csv", header)
    assert streamed.read_bytes() == (tmp_path / "whole.csv").read_bytes()


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
