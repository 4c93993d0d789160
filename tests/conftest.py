"""Shared fixtures and independent simulation helpers.

Oracles here are deliberately written as plain loops or closed forms,
never by calling the code paths they check.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from solarcast import DaylightWindow, IrradianceSeries, generate_synthetic

# AR(4) coefficients with a clean PACF signature: every partial
# autocorrelation at lags 1..4 stays above 0.2 in magnitude while lags
# 5+ sit near zero, across seeds.
AR4_COEFFS = (0.5, -0.35, 0.25, 0.3)

FULL_DAY_WINDOW = DaylightWindow(0, 1430)


def simulate_ar(coeffs, n: int, seed: int, noise: float = 1.0, burn: int = 500) -> np.ndarray:
    """Drive an autoregression with seeded Gaussian innovations and
    drop the burn-in."""
    rng = np.random.default_rng(seed)
    p = len(coeffs)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    x = np.zeros(n + burn)
    eps = rng.standard_normal(n + burn) * noise
    for t in range(p, n + burn):
        x[t] = float(np.dot(coeffs, x[t - p : t][::-1])) + eps[t]
    return x[burn:]


def sinusoid_recurrence(n: int, w1: float = 0.7, w2: float = 1.9) -> tuple[np.ndarray, np.ndarray]:
    """A bounded signal satisfying an exact order-4 linear recurrence:
    the sum of two undamped sinusoids. Returns (signal, coefficients),
    with coefficients derived in closed form from the characteristic
    polynomial (z^2 - 2cos(w1) z + 1)(z^2 - 2cos(w2) z + 1)."""
    c1, c2 = np.cos(w1), np.cos(w2)
    coeffs = np.array([2 * (c1 + c2), -(2 + 4 * c1 * c2), 2 * (c1 + c2), -1.0])
    t = np.arange(n)
    signal = np.sin(w1 * t + 0.3) + np.sin(w2 * t + 1.1)
    return signal, coeffs


def make_series(values, step: int = 10, start: datetime | None = None) -> IrradianceSeries:
    return IrradianceSeries(start or datetime(2024, 1, 1), np.asarray(values, dtype=np.float64), step)


@pytest.fixture(scope="session")
def mixed_30d() -> IrradianceSeries:
    return generate_synthetic(30, "mixed", seed=101)


@pytest.fixture(scope="session")
def cloudy_30d() -> IrradianceSeries:
    return generate_synthetic(30, "cloudy", seed=202)


@pytest.fixture(scope="session")
def clear_10d() -> IrradianceSeries:
    return generate_synthetic(10, "clear", seed=303)


# Plain-loop oracles for the daylight row policy: one row per day and
# target slot t whose lags and target all lie inside the window.


def design_matrix_oracle(series: IrradianceSeries, order: int, horizon: int, daylight):
    """Lag rows (most recent first) and targets, one row at a time."""
    lo, hi = daylight.slot_bounds(series.step)
    lags, targets = [], []
    for day in series.day_matrix():
        for t in range(lo + order + horizon - 1, hi + 1):
            base = t - horizon + 1
            lags.append(day[base - order : base][::-1])
            targets.append(day[t])
    return np.array(lags), np.array(targets)


def windows_oracle(z: IrradianceSeries, window: int, horizon: int, daylight, differenced: bool):
    """Chronological input windows, targets, anchors and flat sample
    indices; differenced features restart at each day's first
    in-window slot."""
    lo, hi = daylight.slot_bounds(z.step)
    spd = z.samples_per_day
    inputs, targets, anchors, sample_index = [], [], [], []
    for d, day in enumerate(z.day_matrix()):
        segment = day[lo : hi + 1]
        if differenced:
            feature_seq = np.empty_like(segment)
            feature_seq[0] = segment[0]
            feature_seq[1:] = np.diff(segment)
        else:
            feature_seq = segment
        for t in range(lo + window + horizon - 1, hi + 1):
            base = t - horizon + 1
            r = base - lo
            inputs.append(feature_seq[r - window : r])
            anchor = day[base - 1]
            targets.append(day[t] - anchor if differenced else day[t])
            anchors.append(anchor)
            sample_index.append(d * spd + t)
    return (
        np.asarray(inputs)[:, :, None],
        np.asarray(targets),
        np.asarray(anchors),
        np.asarray(sample_index, dtype=np.int64),
    )


def forecast_oracle(model, test: IrradianceSeries, horizon: int, recursive: bool):
    """Timestamps, actuals and predictions of a fitted autoregressive
    model, one dot product per row (and per step when recursive)."""
    lo, hi = model.daylight.slot_bounds(test.step)
    mu, sigma, m = model.scaler.mu, model.scaler.sigma, model.order
    means = model.profile.means if model.ensemble_enabled else np.zeros(test.samples_per_day)
    timestamps, actual, predicted = [], [], []
    for d, day in enumerate(test.day_matrix()):
        domain = (day - mu) / sigma - means
        for t in range(lo + m + horizon - 1, hi + 1):
            base = t - horizon + 1
            state = domain[base - m : base][::-1].copy()
            if recursive:
                for _ in range(horizon):
                    pred = float(np.dot(model.weights[1], state))
                    state[1:] = state[:-1]
                    state[0] = pred
            else:
                pred = float(np.dot(model.weights[horizon], state))
            timestamps.append(test.timestamp(d * test.samples_per_day + t))
            actual.append(day[t])
            predicted.append(max((pred + means[t]) * sigma + mu, 0.0))
    return timestamps, np.array(actual), np.array(predicted)
