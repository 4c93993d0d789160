"""Ensemble profiles and correlation diagnostics."""

import numpy as np
import pytest

from solarcast import (
    CorrelationSequence,
    DataValidationError,
    NumericalError,
    autocorrelation,
    ensemble_add,
    ensemble_deduct,
    ensemble_profile,
    fit_scaler,
    partial_autocorrelation,
    select_order,
    standardize,
)
from solarcast.stats import EnsembleProfile, pacf_from_autocorrelation

from conftest import AR4_COEFFS, make_series, simulate_ar


def standardized(series):
    return standardize(series, fit_scaler(series))


class TestEnsembleProfile:
    def test_two_identical_days(self):
        day = np.sin(np.linspace(0, np.pi, 144))
        series = make_series(np.tile(day, 2))
        profile = ensemble_profile(series)
        assert np.array_equal(profile.means, day)
        assert np.all(profile.support_counts == 2)

    def test_mirrored_days_cancel(self):
        day = np.linspace(-1, 1, 144)
        series = make_series(np.concatenate([day, -day]))
        profile = ensemble_profile(series)
        assert np.abs(profile.means).max() == 0.0

    def test_matches_per_slot_accumulation_oracle(self, mixed_30d):
        z = standardized(mixed_30d)
        profile = ensemble_profile(z)
        spd = z.samples_per_day
        # oracle: accumulate each slot across days in a plain loop
        sums = [0.0] * spd
        for d in range(z.n_days):
            for slot in range(spd):
                sums[slot] += float(z.values[d * spd + slot])
        oracle = np.array(sums) / z.n_days
        assert np.abs(profile.means - oracle).max() < 1e-12

    def test_slot_support_requires_one_day(self):
        with pytest.raises(DataValidationError):
            EnsembleProfile(means=np.zeros(4), support_counts=np.zeros(4, dtype=int))


class TestEnsembleDeductAdd:
    def test_series_equal_to_profile_gives_zeros(self, mixed_30d):
        z = standardized(mixed_30d)
        profile = ensemble_profile(z)
        one_day = make_series(profile.means)
        assert np.all(ensemble_deduct(one_day, profile).values == 0.0)

    def test_round_trip_exact(self, mixed_30d):
        z = standardized(mixed_30d)
        profile = ensemble_profile(z)
        back = ensemble_add(ensemble_deduct(z, profile), profile)
        # exact up to one rounding of the subtract-then-add pair
        assert np.abs(back.values - z.values).max() < 1e-12

    def test_deducted_training_slot_means_are_zero(self, cloudy_30d):
        z = standardized(cloudy_30d)
        profile = ensemble_profile(z)
        deducted = ensemble_deduct(z, profile)
        slot_means = deducted.day_matrix().mean(axis=0)
        assert np.abs(slot_means).max() < 1e-12

    def test_zero_ens_series_adds_back_profile(self, mixed_30d):
        z = standardized(mixed_30d)
        profile = ensemble_profile(z)
        zeros = make_series(np.zeros(144))
        assert np.array_equal(ensemble_add(zeros, profile).values, profile.means)

    def test_misaligned_profile_rejected(self, mixed_30d):
        profile = EnsembleProfile(means=np.zeros(48), support_counts=np.ones(48, dtype=int))
        with pytest.raises(DataValidationError, match="slots"):
            ensemble_deduct(mixed_30d, profile)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        x = np.random.default_rng(0).standard_normal(500)
        assert autocorrelation(x, 10).values[0] == 1.0

    def test_white_noise_within_large_sample_band(self):
        n = 4000
        x = np.random.default_rng(12).standard_normal(n)
        acf = autocorrelation(x, 20)
        band = 3.0 / np.sqrt(n)
        inside = np.abs(acf.values[1:]) < band
        assert inside.mean() >= 0.95

    def test_alternating_sequence(self):
        x = np.tile([1.0, -1.0], 100)
        acf = autocorrelation(x, 3)
        assert acf.values[1] == pytest.approx(-1.0, abs=1e-2)

    def test_ar1_coefficient(self):
        x = simulate_ar([0.8], 10_000, seed=21)
        acf = autocorrelation(x, 5)
        assert acf.values[1] == pytest.approx(0.8, abs=0.05)

    def test_max_lag_too_large(self):
        with pytest.raises(DataValidationError):
            autocorrelation(np.ones(10), 10)

    def test_negative_max_lag(self):
        with pytest.raises(DataValidationError, match="^max_lag must be non-negative, got -1$"):
            autocorrelation(np.ones(10), -1)

    @pytest.mark.parametrize("values", [np.array([]), np.ones((2, 2))], ids=["empty", "2-d"])
    def test_sequence_must_be_a_non_empty_vector(self, values):
        with pytest.raises(DataValidationError, match="non-empty vector"):
            CorrelationSequence(values=values)

    def test_all_zero_signal(self):
        with pytest.raises(DataValidationError):
            autocorrelation(np.zeros(100), 5)


def yule_walker_pacf_oracle(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Independent PACF oracle: solve the order-k Yule-Walker system
    directly with a dense linear solver; PACF[k] is the last
    coefficient. No recursion shared with the implementation."""
    n = x.size
    denom = float(np.dot(x, x))
    r = np.array(
        [1.0] + [float(np.dot(x[tau:], x[:-tau])) / denom for tau in range(1, max_lag + 1)]
    )
    pacf = np.empty(max_lag + 1)
    pacf[0] = 1.0
    for k in range(1, max_lag + 1):
        toeplitz = np.array([[r[abs(i - j)] for j in range(k)] for i in range(k)])
        phi = np.linalg.solve(toeplitz, r[1 : k + 1])
        pacf[k] = phi[-1]
    return pacf


class TestPartialAutocorrelation:
    def test_ar1_cuts_off_after_lag_one(self):
        x = simulate_ar([0.8], 10_000, seed=31)
        pacf = partial_autocorrelation(x, 10)
        assert pacf.values[1] == pytest.approx(0.8, abs=0.05)
        assert np.abs(pacf.values[2:]).max() < 0.05

    def test_white_noise_band(self):
        n = 4000
        x = np.random.default_rng(41).standard_normal(n)
        pacf = partial_autocorrelation(x, 20)
        band = 3.0 / np.sqrt(n)
        assert (np.abs(pacf.values[1:]) < band).mean() >= 0.95

    def test_ar4_cuts_off_after_lag_four(self):
        x = simulate_ar(AR4_COEFFS, 10_000, seed=51)
        pacf = partial_autocorrelation(x, 12)
        assert np.abs(pacf.values[5:]).max() < 0.05
        assert np.abs(pacf.values[1:5]).min() > 0.1

    def test_agrees_with_acf_at_lag_one_exactly(self):
        x = simulate_ar([0.6, -0.2], 2000, seed=61)
        acf = autocorrelation(x, 8)
        pacf = partial_autocorrelation(x, 8)
        assert pacf.values[1] == acf.values[1]

    def test_matches_yule_walker_solve_oracle(self):
        x = simulate_ar(AR4_COEFFS, 5000, seed=71)
        pacf = partial_autocorrelation(x, 10)
        oracle = yule_walker_pacf_oracle(x, 10)
        assert np.abs(pacf.values - oracle).max() < 1e-10

    def test_near_unit_root_raises(self):
        # perfectly correlated sequence: recursion variance collapses
        acf = CorrelationSequence(values=np.ones(6))
        with pytest.raises(NumericalError, match="singular"):
            pacf_from_autocorrelation(acf)


class TestSelectOrder:
    def test_hand_sequence(self):
        pacf = CorrelationSequence(values=np.array([1, 0.6, 0.4, 0.3, 0.15, 0.03, 0.02]))
        assert select_order(pacf) == 4

    def test_floor_rule(self):
        pacf = CorrelationSequence(values=np.array([1.0, 0.05, 0.02]))
        assert select_order(pacf) == 1

    def test_negative_pacf_counts_by_magnitude(self):
        pacf = CorrelationSequence(values=np.array([1.0, -0.5, 0.3, 0.02]))
        assert select_order(pacf) == 2

    def test_ar4_end_to_end(self):
        x = simulate_ar(AR4_COEFFS, 10_000, seed=81)
        pacf = partial_autocorrelation(x, 12)
        assert select_order(pacf) == 4

    def test_needs_lag_one(self):
        with pytest.raises(DataValidationError):
            select_order(CorrelationSequence(values=np.array([1.0])))
        with pytest.raises(DataValidationError, match="partial autocorrelation needs at least lag 1"):
            pacf_from_autocorrelation(CorrelationSequence(values=np.array([1.0])))
