"""The daylight row policy: ``row_index`` against a brute-force
enumeration, and each of its consumers against a plain-loop oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solarcast import (
    DataValidationError,
    DaylightWindow,
    MarConfig,
    build_design_matrix,
    fit_all_horizons,
    fit_scaler,
    forecast,
    split,
    standardize,
)
from solarcast.nn.training import build_windows
from solarcast.series import MINUTES_PER_DAY, row_index

from conftest import (
    FULL_DAY_WINDOW,
    design_matrix_oracle,
    forecast_oracle,
    make_series,
    windows_oracle,
)

WINDOWS = (DaylightWindow(), DaylightWindow(420, 1020), FULL_DAY_WINDOW)
HORIZONS = (1, 3, 6)

# Vectorized forecasts sum each row's dot product in another order
# than the per-row loop. The rounding scales with the destandardized
# terms, so near-zero predictions are held to the tolerance times mu.
FORECAST_RTOL = 1e-12

# Steps with at least two slots per day, so a daylight window fits.
STEPS = [s for s in range(1, MINUTES_PER_DAY // 2 + 1) if MINUTES_PER_DAY % s == 0]


@st.composite
def policy_cases(draw):
    step = draw(st.sampled_from(STEPS))
    spd = MINUTES_PER_DAY // step
    lo = draw(st.integers(0, spd - 2))
    hi = draw(st.integers(lo + 1, spd - 1))
    return (
        step,
        DaylightWindow(lo * step, hi * step),
        draw(st.integers(1, 6)),
        draw(st.integers(1, 6)),
        draw(st.integers(1, 3)),
    )


def enumerate_rows(spd: int, days: int, lo: int, hi: int, lags: int, horizon: int):
    """Every (target, lags) pair whose slots all lie in [lo, hi] of one day."""
    targets, lag_rows = [], []
    for d in range(days):
        for t in range(spd):
            lag_slots = [t - horizon - k for k in range(lags)]
            if all(lo <= s <= hi for s in [*lag_slots, t]):
                targets.append(d * spd + t)
                lag_rows.append([d * spd + s for s in lag_slots])
    return (
        np.array(targets, dtype=np.int64),
        np.array(lag_rows, dtype=np.int64).reshape(-1, lags),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(policy_cases())
@example((10, DaylightWindow(360, 400), 4, 3, 1))  # window too narrow: no rows
def test_row_index_matches_enumeration(case):
    step, daylight, lags, horizon, days = case
    spd = MINUTES_PER_DAY // step
    series = make_series(np.arange(days * spd, dtype=np.float64), step=step)
    targets, windows = row_index(series, daylight, lags, horizon)
    want_targets, want_lags = enumerate_rows(
        spd, days, daylight.start_minute // step, daylight.end_minute // step, lags, horizon
    )
    assert targets.dtype == np.int64
    assert np.array_equal(targets, want_targets)
    # the lags are a read-only view of the values, no copy; the values
    # are their own flat indices, so each lag equals the slot it comes from
    assert windows.shape == (days, want_targets.size // days, lags)
    assert not windows.flags.writeable
    assert want_targets.size == 0 or np.shares_memory(windows, series.values)
    got_lags = windows.reshape(-1, lags)
    assert got_lags.shape == want_lags.shape
    assert np.array_equal(got_lags, want_lags)
    if want_targets.size == 0:
        with pytest.raises(DataValidationError, match="no usable windows"):
            build_windows(series, lags, horizon, daylight, differenced=False)
        with pytest.raises(DataValidationError, match="design rows"):
            build_design_matrix(series, lags, horizon, daylight)


@pytest.mark.parametrize("daylight", WINDOWS, ids=str)
@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("order", (1, 2, 4, 6))
def test_design_matrix_matches_loop(mixed_30d, order, horizon, daylight):
    dm = build_design_matrix(mixed_30d, order, horizon, daylight)
    lags, targets = design_matrix_oracle(mixed_30d, order, horizon, daylight)
    assert np.array_equal(dm.lags, lags)
    assert np.array_equal(dm.targets, targets)


@pytest.mark.parametrize("differenced", (False, True))
@pytest.mark.parametrize("daylight", WINDOWS, ids=str)
@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("window", (2, 4))
def test_windows_match_loop(mixed_30d, window, horizon, daylight, differenced):
    z = standardize(mixed_30d, fit_scaler(mixed_30d))
    got = build_windows(z, window, horizon, daylight, differenced)
    inputs, targets, anchors, sample_index = windows_oracle(
        z, window, horizon, daylight, differenced
    )
    assert np.array_equal(got.inputs, inputs)
    rows = np.random.default_rng(window * horizon).permutation(len(targets))[:300]
    assert np.array_equal(got.take(rows), inputs[rows])  # a training batch
    assert np.array_equal(got.targets, targets)
    assert np.array_equal(got.anchors, anchors)
    assert np.array_equal(got.sample_index, sample_index)
    assert got.sample_index.dtype == np.int64


@pytest.mark.parametrize("recursive", (False, True))
@pytest.mark.parametrize("daylight", WINDOWS, ids=str)
@pytest.mark.parametrize("ensemble", (True, False))
@pytest.mark.parametrize("order", (2, 4))
def test_forecast_matches_loop(mixed_30d, order, ensemble, daylight, recursive):
    train, test = split(mixed_30d, 0.7)
    model = fit_all_horizons(
        train,
        MarConfig(order=order, horizons=HORIZONS, daylight=daylight, ensemble_enabled=ensemble),
    )
    for horizon in HORIZONS:
        report = forecast(model, test, horizon, recursive=recursive)
        sample_index, actual, predicted = forecast_oracle(model, test, horizon, recursive)
        assert (report.start, report.step) == (test.start, test.step)
        assert np.array_equal(report.sample_index, sample_index)
        assert np.array_equal(report.actual, actual)
        np.testing.assert_allclose(
            report.predicted, predicted, rtol=FORECAST_RTOL, atol=FORECAST_RTOL * model.scaler.mu
        )
