"""Shared fixtures and independent simulation helpers.

Oracles here are deliberately written as plain loops or closed forms,
never by calling the code paths they check.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from solarcast import DataValidationError, DaylightWindow, IrradianceSeries, generate_synthetic
from solarcast.series import MINUTES_PER_DAY
from solarcast.synthetic import (
    AR_COEFF,
    ATTENUATION_HALFWIDTH,
    ATTENUATION_MID,
    BELL_EXPONENT,
    PEAK_IRRADIANCE,
    REGIMES,
)

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


def data_lines(path) -> list[str]:
    """The lines of a solarcast output file without its ``#`` header."""
    lines = path.read_text().splitlines()
    return [ln for ln in lines if ln and not ln.startswith("#")]


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


def clear_sky_day_oracle(step: int = 10) -> np.ndarray:
    """One day of the clear-sky bell over the default daylight window."""
    daylight = DaylightWindow()
    spd = MINUTES_PER_DAY // step
    minutes = np.arange(spd) * step
    rise, set_ = daylight.start_minute, daylight.end_minute
    phase = (minutes - rise) / (set_ - rise)
    day = np.zeros(spd)
    inside = (phase >= 0.0) & (phase <= 1.0)
    day[inside] = PEAK_IRRADIANCE * np.sin(np.pi * phase[inside]) ** BELL_EXPONENT
    return np.clip(day, 0.0, None)


def generate_synthetic_oracle(
    days: int,
    regime: str = "mixed",
    seed: int = 0,
    step: int = 10,
    start: datetime | None = None,
) -> IrradianceSeries:
    """The synthetic generator over whole-series arrays: the innovations,
    the latent and the attenuation in one, the tiled bell and the
    repeated cloudy-day mask, with the AR(1) recurrence over numpy
    scalars."""
    if days < 1:
        raise DataValidationError(f"days must be >= 1, got {days}")
    if regime not in REGIMES:
        raise DataValidationError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    rng = np.random.default_rng(seed)
    spd = MINUTES_PER_DAY // step

    if regime == "clear":
        cloudy_days = np.zeros(days, dtype=bool)
    elif regime == "cloudy":
        cloudy_days = np.ones(days, dtype=bool)
    else:
        cloudy_days = rng.random(days) < 0.5

    # Latent AR(1) runs over every slot of the series so attenuation is
    # correlated within and across cloudy days; innovations scaled for
    # unit stationary variance. One array holds the innovations, then
    # the latent, then the attenuation, each overwriting the last.
    latent = rng.standard_normal(days * spd)
    latent *= np.sqrt(1.0 - AR_COEFF**2)
    u = rng.standard_normal()
    for i, eps in enumerate(latent):
        u = AR_COEFF * u + eps
        latent[i] = u
    attenuation = np.tanh(latent, out=latent)
    attenuation *= ATTENUATION_HALFWIDTH
    attenuation += ATTENUATION_MID

    values = np.tile(clear_sky_day_oracle(step=step), days)
    np.multiply(values, attenuation, out=values, where=np.repeat(cloudy_days, spd))
    values.setflags(write=False)  # fresh, so the series need not copy it

    return IrradianceSeries(
        start=start or datetime(2024, 1, 1), values=values, step=step
    )


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
    """Sample indices, actuals and predictions of a fitted
    autoregressive model, one dot product per row (and per step when
    recursive)."""
    lo, hi = model.daylight.slot_bounds(test.step)
    mu, sigma, m = model.scaler.mu, model.scaler.sigma, model.order
    means = model.profile.means if model.ensemble_enabled else np.zeros(test.samples_per_day)
    sample_index, actual, predicted = [], [], []
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
            sample_index.append(d * test.samples_per_day + t)
            actual.append(day[t])
            predicted.append(max((pred + means[t]) * sigma + mu, 0.0))
    return np.array(sample_index, dtype=np.int64), np.array(actual), np.array(predicted)


def load_csv_oracle(path) -> IrradianceSeries:
    """The canonical CSV loader as one loop over the lines: parse and
    check each row in file order, then the spacing of every pair."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    timestamps, values = [], []
    header_seen = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if stripped != "timestamp,irradiance_wm2":
                raise DataValidationError(
                    f"line {lineno}: expected header 'timestamp,irradiance_wm2', got {stripped!r}"
                )
            header_seen = True
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise DataValidationError(
                f"line {lineno}: expected two comma-separated fields, got {len(parts)}"
            )
        try:
            ts = datetime.fromisoformat(parts[0])
        except ValueError:
            raise DataValidationError(
                f"line {lineno}: malformed ISO-8601 timestamp {parts[0]!r}"
            ) from None
        try:
            value = float(parts[1])
        except ValueError:
            raise DataValidationError(
                f"line {lineno}: malformed irradiance value {parts[1]!r}"
            ) from None
        if not np.isfinite(value):
            raise DataValidationError(f"line {lineno}: non-finite irradiance value")
        if value < 0:
            raise DataValidationError(
                f"line {lineno}: negative irradiance {value} at {ts.isoformat()}"
            )
        timestamps.append(ts)
        values.append(value)
    if not header_seen:
        raise DataValidationError(f"{path}: no header line found")
    if len(values) < 2:
        raise DataValidationError(f"{path}: need at least two data rows")
    try:
        step_delta = timestamps[1] - timestamps[0]
        off_grid = None
        for i in range(2, len(timestamps)):
            if timestamps[i] - timestamps[i - 1] != step_delta:
                off_grid = i
                break
    except TypeError:
        first_naive = timestamps[0].tzinfo is None
        odd = next(ts for ts in timestamps if (ts.tzinfo is None) != first_naive)
        raise DataValidationError(
            f"timestamp {odd.isoformat()} mixes naive and UTC-offset forms"
        ) from None
    step_minutes = step_delta.total_seconds() / 60.0
    if step_minutes <= 0 or step_minutes != int(step_minutes):
        raise DataValidationError(
            f"first two rows imply a non-positive or fractional step of {step_minutes} minutes"
        )
    if off_grid is not None:
        prev, found = timestamps[off_grid - 1], timestamps[off_grid]
        if found == prev:
            raise DataValidationError(f"duplicate timestamp {found.isoformat()}")
        try:
            expected = f"sample at {(prev + step_delta).isoformat()}"
        except OverflowError:
            expected = f"no sample after {prev.isoformat()}"
        raise DataValidationError(
            f"irregular spacing: expected {expected}, found {found.isoformat()}"
        )
    return IrradianceSeries(start=timestamps[0], values=np.array(values), step=int(step_minutes))


def grid_timestamps_oracle(start: datetime, step: int, index) -> list[datetime]:
    """One ``datetime`` per grid slot."""
    return [start + timedelta(minutes=int(i) * step) for i in index]


def write_csv_oracle(series: IrradianceSeries, header_comments=None) -> str:
    """The canonical CSV text, one f-string per row."""
    lines = [f"# {key}={value}\n" for key, value in (header_comments or {}).items()]
    lines.append("timestamp,irradiance_wm2\n")
    stamps = grid_timestamps_oracle(series.start, series.step, range(len(series)))
    for ts, value in zip(stamps, series.values):
        lines.append(f"{ts.isoformat()},{value:.17g}\n")
    return "".join(lines)


def report_rows_csv_oracle(reports) -> str:
    """Forecast rows CSV text, one f-string per row."""
    lines = ["timestamp,model,horizon,actual_wm2,predicted_wm2"]
    for report in reports:
        stamps = grid_timestamps_oracle(report.start, report.step, report.sample_index)
        for ts, a, p in zip(stamps, report.actual, report.predicted):
            lines.append(f"{ts.isoformat()},{report.model},{report.horizon},{a:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"
