"""Per-slot ensemble profiles and correlation diagnostics.

The ensemble profile is the per-time-of-day mean of the standardized
training days; deducting it strips the diurnal bell so the regression
sees only fluctuations around the typical day. The partial
autocorrelation of that residual signal determines how many lags are
worth regressing on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, NumericalError
from .series import IrradianceSeries

PACF_THRESHOLD = 0.1


@dataclass(frozen=True)
class EnsembleProfile:
    """Expected standardized irradiance per time-of-day slot, with the
    number of training days behind each slot."""

    means: np.ndarray
    support_counts: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        counts = np.asarray(self.support_counts, dtype=np.int64)
        if means.ndim != 1 or means.shape != counts.shape:
            raise DataValidationError("profile means and support counts must be 1-D and aligned")
        if not np.all(np.isfinite(means)):
            raise DataValidationError("profile means must be finite")
        if np.any(counts < 1):
            raise DataValidationError("every profile slot needs at least one supporting day")
        means.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "support_counts", counts)

    def __len__(self) -> int:
        return self.means.size

    def add(self, values: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """``values`` plus the expected value of each one's time-of-day
        slot: the inverse of deducting the profile."""
        return values + self.means[slots]


@dataclass(frozen=True)
class CorrelationSequence:
    """Correlation per lag, index 0..max_lag, normalized so values[0] == 1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise DataValidationError("correlation sequence must be a non-empty vector")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def max_lag(self) -> int:
        return self.values.size - 1


def ensemble_profile(train: IrradianceSeries) -> EnsembleProfile:
    """Per-slot arithmetic mean over all training days."""
    day_matrix = train.day_matrix()
    means = day_matrix.mean(axis=0)
    counts = np.full(train.samples_per_day, train.n_days, dtype=np.int64)
    return EnsembleProfile(means=means, support_counts=counts)


def _check_alignment(series: IrradianceSeries, profile: EnsembleProfile) -> None:
    if len(profile) != series.samples_per_day:
        raise DataValidationError(
            f"profile has {len(profile)} slots but the series has "
            f"{series.samples_per_day} samples per day"
        )


def ensemble_deduct(series: IrradianceSeries, profile: EnsembleProfile) -> IrradianceSeries:
    """Subtract each slot's expected value from the sample at that slot."""
    _check_alignment(series, profile)
    deducted = series.day_matrix() - profile.means
    deducted.setflags(write=False)  # fresh, so the series need not copy it
    return series.with_values(deducted.reshape(-1))


def ensemble_add(series: IrradianceSeries, profile: EnsembleProfile) -> IrradianceSeries:
    """Exact inverse of :func:`ensemble_deduct`."""
    _check_alignment(series, profile)
    slots = np.arange(series.values.size) % series.samples_per_day
    return series.with_values(profile.add(series.values, slots))


def training_residual(z: IrradianceSeries, profile: EnsembleProfile) -> IrradianceSeries:
    """``z`` less the ensemble profile fitted on it: the signal an
    ensemble model fits. It is deducted in place, so ``z`` must hold
    values no other series shares, as a ``standardize`` result does, and
    is returned holding the residual. Raises when no signal is left, as
    after a training split of one day, whose profile is that day."""
    _check_alignment(z, profile)
    z.values.setflags(write=True)  # raises for values z does not own
    days = z.day_matrix()
    days -= profile.means
    z.values.setflags(write=False)
    if not z.values.any():
        raise DataValidationError(
            "the ensemble-deducted training series is all zero: every training day equals "
            "the ensemble profile, as the only day of a one-day training split does"
        )
    return z


def autocorrelation(x: np.ndarray, max_lag: int) -> CorrelationSequence:
    """Normalized sample autocorrelation of a (nominally zero-mean)
    signal: r_tau = sum(x[t] * x[t-tau]) / sum(x[t]^2).

    Callers feed ensemble-deducted data, which is zero-mean per slot by
    construction; no mean is subtracted here. Each sum is an ``einsum``
    reduction, which runs on one thread in a fixed order, so the result
    does not depend on the BLAS thread count as a long ``np.dot`` does.
    """
    n = x.size
    if max_lag < 0:
        raise DataValidationError(f"max_lag must be non-negative, got {max_lag}")
    if max_lag >= n:
        raise DataValidationError(f"max_lag {max_lag} must be smaller than series length {n}")
    denom = float(np.einsum("i,i->", x, x))
    if denom <= 0.0:
        raise DataValidationError("cannot correlate an all-zero signal")
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for tau in range(1, max_lag + 1):
        values[tau] = float(np.einsum("i,i->", x[tau:], x[:-tau])) / denom
    return CorrelationSequence(values=values)


def pacf_from_autocorrelation(acf: CorrelationSequence) -> CorrelationSequence:
    """Partial autocorrelation via the Durbin-Levinson recursion.

    phi[k, k] is the correlation of x[t] and x[t-k] after regressing
    out lags 1..k-1; the recursion solves the Yule-Walker systems of
    increasing order without forming any matrix.
    """
    r = acf.values
    max_lag = acf.max_lag
    if max_lag < 1:
        raise DataValidationError("partial autocorrelation needs at least lag 1")
    pacf = np.empty(max_lag + 1)
    pacf[0] = 1.0
    phi_prev = np.zeros(0)
    variance = 1.0  # prediction-error variance of the order-(k-1) model
    for k in range(1, max_lag + 1):
        if variance < 1e-12:
            raise NumericalError(
                f"Durbin-Levinson step {k} is numerically singular "
                f"(prediction-error variance {variance:.3e}); input is near unit root"
            )
        num = r[k] - float(np.dot(phi_prev, r[k - 1 : 0 : -1])) if k > 1 else r[1]
        phi_kk = num / variance
        phi = np.empty(k)
        phi[:-1] = phi_prev - phi_kk * phi_prev[::-1]
        phi[-1] = phi_kk
        variance *= 1.0 - phi_kk**2
        pacf[k] = phi_kk
        phi_prev = phi
    return CorrelationSequence(values=pacf)


def partial_autocorrelation(x: np.ndarray, max_lag: int) -> CorrelationSequence:
    return pacf_from_autocorrelation(autocorrelation(x, max_lag))


def select_order(pacf: CorrelationSequence) -> int:
    """Largest lag such that |PACF| stays at or above ``PACF_THRESHOLD``
    for every lag up to it; at least 1 even when lag 1 is already below."""
    if pacf.max_lag < 1:
        raise DataValidationError("order selection needs a PACF with at least lag 1")
    order = 0
    for tau in range(1, pacf.max_lag + 1):
        if abs(pacf.values[tau]) >= PACF_THRESHOLD:
            order = tau
        else:
            break
    return max(order, 1)
