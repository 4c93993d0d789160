"""Design matrix construction, least-squares fitting, forecasting."""

import re

import numpy as np
import pytest

from solarcast import (
    DataValidationError,
    DaylightWindow,
    MarConfig,
    NumericalError,
    UsageError,
    build_design_matrix,
    destandardize,
    ensemble_profile,
    fit_all_horizons,
    fit_scaler,
    fit_weights,
    forecast,
    generate_synthetic,
    mape,
    rmse,
    split,
    standardize,
)
from solarcast.mar import FIT_BLOCK_ROWS, DesignMatrix
from solarcast.stats import training_residual

from conftest import FULL_DAY_WINDOW, make_series, sinusoid_recurrence


class TestBuildDesignMatrix:
    def test_row_count_75_slot_window(self):
        # 06:00-18:20 spans 75 slots on the 10-minute grid
        window = DaylightWindow(360, 1100)
        series = make_series(np.random.default_rng(0).uniform(0, 1, 144 * 2))
        lo, hi = window.slot_bounds(10)
        assert hi - lo + 1 == 75
        assert build_design_matrix(series, 4, 1, window).n_rows == 2 * 71
        assert build_design_matrix(series, 4, 6, window).n_rows == 2 * 66

    def test_hand_enumerated_toy_day(self):
        # 8 slots per day at step 180, window covering all of them;
        # four days with values day*100 + (1..8)
        window = DaylightWindow(0, 1260)
        values = np.concatenate([d * 100 + np.arange(1.0, 9.0) for d in range(4)])
        series = make_series(values, step=180)
        dm = build_design_matrix(series, 2, 1, window)
        assert dm.n_rows == 4 * 6
        # first day's rows, written out by hand: lags most recent first
        assert np.array_equal(dm.lags[:6], [
            [2, 1], [3, 2], [4, 3], [5, 4], [6, 5], [7, 6],
        ])
        assert np.array_equal(dm.targets[:6], [3, 4, 5, 6, 7, 8])
        # remaining days follow the same pattern shifted by 100
        for d in range(1, 4):
            assert np.array_equal(dm.lags[6 * d : 6 * d + 6], dm.lags[:6] + 100 * d)
            assert np.array_equal(dm.targets[6 * d : 6 * d + 6], dm.targets[:6] + 100 * d)

    def test_rows_never_straddle_midnight(self):
        # distinct per-day offsets: any cross-midnight row would mix them
        window = DaylightWindow(0, 1260)
        values = np.concatenate([d * 1000 + np.arange(8.0) for d in range(10)])
        series = make_series(values, step=180)
        dm = build_design_matrix(series, 3, 2, window)
        for row, target in zip(dm.lags, dm.targets):
            day_of = set(int(v // 1000) for v in np.append(row, target))
            assert len(day_of) == 1

    def test_insufficient_rows(self):
        window = DaylightWindow(0, 1260)
        series = make_series(np.arange(8.0), step=180)
        message = ("horizon 1: only 6 design rows for order 2 (1 days x 6 rows per day); "
                   "a row spans order + horizon = 3 slots and daylight window 00:00-21:00 "
                   "holds 8 at 180-minute steps; need at least 20 for a stable fit")
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            build_design_matrix(series, 2, 1, window)  # 6 rows < 20

    @pytest.mark.parametrize("lags, targets, message", [
        (np.zeros((5, 4)), np.zeros(4), "^design matrix rows and targets are misaligned$"),
        (np.zeros((2, 5, 4)), np.zeros((2, 4)), "^design matrix rows and targets are misaligned$"),
        (np.zeros(5), np.zeros(5), "^design matrix rows and targets are misaligned$"),
        (np.zeros((5, 3)), np.zeros(5), "^design matrix has 3 columns, expected order 4$"),
    ], ids=["rows", "view-rows", "1-d", "width"])
    def test_design_matrix_checks_its_shape(self, lags, targets, message):
        with pytest.raises(DataValidationError, match=message):
            DesignMatrix(lags=lags, targets=targets, order=4, horizon=1)

    def test_bad_order_and_horizon(self):
        series = make_series(np.zeros(144))
        with pytest.raises(DataValidationError):
            build_design_matrix(series, 0, 1)
        with pytest.raises(DataValidationError):
            build_design_matrix(series, 2, 0)


class TestFitWeights:
    def test_target_equals_first_lag(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 4))
        dm = DesignMatrix(lags=X, targets=X[:, 0].copy(), order=4, horizon=1)
        w = fit_weights(dm)
        assert np.abs(w - [1.0, 0.0, 0.0, 0.0]).max() < 1e-10

    def test_recovers_simulated_ar2(self):
        # targets follow x_n = 0.5 x_{n-1} + 0.3 x_{n-2} + eps with
        # eps ~ N(0, 1e-6); the lag signal carries unit-scale
        # excitation so the noise floor, not sampling error, bounds
        # the recovery
        rng = np.random.default_rng(2)
        n = 6000
        x = rng.standard_normal(n)
        eps = rng.standard_normal(n - 2) * 1e-3
        targets = 0.5 * x[1:-1] + 0.3 * x[:-2] + eps
        dm = DesignMatrix(
            lags=np.column_stack([x[1:-1], x[:-2]]), targets=targets, order=2, horizon=1
        )
        w = fit_weights(dm)
        assert np.abs(w - [0.5, 0.3]).max() < 1e-3

    def test_matches_hand_solved_normal_equations(self):
        # X'X = [[2,1],[1,2]], X'y = [3,4]; w = [2/3, 5/3] by hand
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 2.0])
        dm = DesignMatrix(lags=X, targets=y, order=2, horizon=1)
        w = fit_weights(dm)
        assert np.abs(w - [2.0 / 3.0, 5.0 / 3.0]).max() < 1e-12

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((500, 4))
        y = X @ np.array([0.4, -0.2, 0.1, 0.05]) + rng.standard_normal(500)
        dm = DesignMatrix(lags=X, targets=y, order=4, horizon=1)
        w = fit_weights(dm)
        grad = np.abs(X.T @ (X @ w - y)).max()
        assert grad < 1e-8 * np.abs(X.T @ y).max()

    def test_rank_deficient_reports_condition(self):
        col = np.random.default_rng(4).standard_normal(100)
        X = np.column_stack([col, col])
        dm = DesignMatrix(lags=X, targets=col, order=2, horizon=1)
        with pytest.raises(NumericalError, match="condition"):
            fit_weights(dm)

    def test_underdetermined(self):
        dm = DesignMatrix(lags=np.ones((2, 3)), targets=np.ones(2), order=3, horizon=1)
        with pytest.raises(DataValidationError, match="underdetermined"):
            fit_weights(dm)


class TestBlockFit:
    """``fit_weights`` folds blocks of ``FIT_BLOCK_ROWS`` rows into a QR
    factor; its weights are ``lstsq``'s to 1e-12 relative, at row counts on
    both sides of a block edge and on a series' whole view."""

    @pytest.fixture(scope="class")
    def domains(self):
        train, _ = split(generate_synthetic(60, "mixed", seed=6), 0.7)
        scaler = fit_scaler(train)
        z = standardize(train, scaler)
        residual = standardize(train, scaler)  # deducted in place
        return {"ar": z, "mar": training_residual(residual, ensemble_profile(residual))}

    @pytest.mark.parametrize("rows", (511, 512, 513, 1025, 2047, 2048, 2049, None))
    @pytest.mark.parametrize("horizon", (1, 3, 6))
    @pytest.mark.parametrize("domain", ("mar", "ar"))
    def test_weights_match_lstsq(self, domains, domain, horizon, rows):
        dm = build_design_matrix(domains[domain], 4, horizon)
        if rows is not None:
            dm = DesignMatrix(lags=dm.lags[:rows], targets=dm.targets[:rows], order=4,
                              horizon=horizon)
        want = np.linalg.lstsq(dm.lags, dm.targets, rcond=None)[0]
        assert np.abs(fit_weights(dm) - want).max() <= 1e-12 * np.abs(want).max()

    def test_view_and_matrix_fit_bit_for_bit(self, domains):
        """A series' design matrix holds views of its values, and fits as
        its rows copied into one matrix do."""
        dm = build_design_matrix(domains["mar"], 4, 3)
        assert dm.n_rows > FIT_BLOCK_ROWS
        assert np.shares_memory(dm.windows, domains["mar"].values)
        assert np.shares_memory(dm.target_rows, domains["mar"].values)
        copied = DesignMatrix(lags=dm.lags, targets=dm.targets, order=4, horizon=3)
        assert fit_weights(dm).tobytes() == fit_weights(copied).tobytes()


class TestFitAllHorizons:
    def test_default_shape_on_mixed_100d(self):
        train, _ = split(generate_synthetic(100, "mixed", seed=6), 0.7)
        model = fit_all_horizons(train)
        assert model.horizons == (1, 3, 6)
        assert model.order == 4
        for h in (1, 3, 6):
            assert model.weights[h].shape == (4,)
            assert np.all(np.isfinite(model.weights[h]))

    def test_refit_is_bit_identical(self, mixed_30d):
        train, _ = split(mixed_30d, 0.7)
        a = fit_all_horizons(train)
        b = fit_all_horizons(train)
        for h in a.horizons:
            assert np.array_equal(a.weights[h], b.weights[h])

    def test_plain_ar_differs_from_mar(self, cloudy_30d):
        train, _ = split(cloudy_30d, 0.7)
        mar = fit_all_horizons(train, MarConfig(ensemble_enabled=True))
        ar = fit_all_horizons(train, MarConfig(ensemble_enabled=False))
        assert not np.array_equal(mar.weights[1], ar.weights[1])
        assert not ar.ensemble_enabled

    def test_auto_order_selects_from_pacf(self, cloudy_30d):
        train, _ = split(cloudy_30d, 0.7)
        model = fit_all_horizons(train, MarConfig(order=None))
        assert model.order >= 1

    def test_scaler_and_profile_from_training_split(self, mixed_30d):
        train, _ = split(mixed_30d, 0.7)
        model = fit_all_horizons(train)
        from solarcast import ensemble_profile, fit_scaler, standardize

        scaler = fit_scaler(train)
        assert model.scaler == scaler
        profile = ensemble_profile(standardize(train, scaler))
        assert np.array_equal(model.profile.means, profile.means)

    def test_no_horizon_rejected(self, mixed_30d):
        train, _ = split(mixed_30d, 0.7)
        with pytest.raises(DataValidationError, match="^need at least one horizon$"):
            fit_all_horizons(train, MarConfig(horizons=()))

    def test_repeated_horizon_rejected(self, mixed_30d):
        # its model file would hold two weight records, which the loader refuses
        train, _ = split(mixed_30d, 0.7)
        with pytest.raises(DataValidationError, match=re.escape("must not repeat, got (1, 1, 3)")):
            fit_all_horizons(train, MarConfig(horizons=(1, 1, 3)))


class TestForecast:
    def test_profile_day_is_reproduced_exactly(self, mixed_30d):
        train, _ = split(mixed_30d, 0.7)
        model = fit_all_horizons(train)
        # a test day equal to the (destandardized) profile has all-zero
        # lags in the ensemble-deducted domain, so every prediction is
        # the profile value itself
        profile_day = destandardize(make_series(model.profile.means), model.scaler)
        clipped = make_series(np.clip(profile_day.values, 0.0, None))
        report = forecast(model, clipped, 1)
        assert np.abs(report.predicted - report.actual).max() < 1e-9

    def test_clear_easier_than_cloudy(self):
        train, _ = split(generate_synthetic(60, "mixed", seed=8), 0.7)
        model = fit_all_horizons(train)
        clear_test = generate_synthetic(10, "clear", seed=9)
        cloudy_test = generate_synthetic(10, "cloudy", seed=9)
        clear_report = forecast(model, clear_test, 1)
        cloudy_report = forecast(model, cloudy_test, 1)
        assert mape(clear_report.actual, clear_report.predicted) < mape(
            cloudy_report.actual, cloudy_report.predicted
        )

    def test_predictions_never_negative(self, cloudy_30d):
        train, test = split(cloudy_30d, 0.7)
        model = fit_all_horizons(train)
        for h in (1, 3, 6):
            assert forecast(model, test, h).predicted.min() >= 0.0

    def test_row_count_and_timestamps(self, mixed_30d):
        train, test = split(mixed_30d, 0.7)
        model = fit_all_horizons(train)
        report = forecast(model, test, 1)
        # 76-slot window, order 4, horizon 1: 72 rows per day
        assert len(report) == test.n_days * 72
        first = test.timestamp(int(report.sample_index[0]))
        assert first.hour * 60 + first.minute == 360 + (4 + 1 - 1) * 10

    def test_horizon_degradation_single_seed(self):
        series = generate_synthetic(100, "mixed", seed=10)
        train, test = split(series, 0.7)
        model = fit_all_horizons(train)
        errors = {h: rmse(*_pairs(forecast(model, test, h))) for h in (1, 3, 6)}
        assert errors[6] >= errors[3] >= errors[1]

    def test_pure_function_of_inputs(self, mixed_30d):
        train, test = split(mixed_30d, 0.7)
        model = fit_all_horizons(train)
        a = forecast(model, test, 3)
        b = forecast(model, test, 3)
        assert np.array_equal(a.predicted, b.predicted)
        assert np.array_equal(a.sample_index, b.sample_index)

    def test_unfitted_horizon(self, mixed_30d):
        train, test = split(mixed_30d, 0.7)
        model = fit_all_horizons(train, MarConfig(horizons=(1,)))
        with pytest.raises(UsageError, match="horizon"):
            forecast(model, test, 6)

    def test_step_mismatch(self, mixed_30d):
        train, _ = split(mixed_30d, 0.7)
        model = fit_all_horizons(train)
        other = generate_synthetic(3, "clear", seed=1, step=30)
        with pytest.raises(DataValidationError, match="step"):
            forecast(model, other, 1)


class TestRecursive:
    def test_recursive_equals_direct_at_horizon_one(self, mixed_30d):
        train, test = split(mixed_30d, 0.7)
        model = fit_all_horizons(train)
        direct = forecast(model, test, 1)
        recursive = forecast(model, test, 1, recursive=True)
        assert np.array_equal(direct.predicted, recursive.predicted)

    def test_recursive_multi_step_is_finite_and_aligned(self, mixed_30d):
        train, test = split(mixed_30d, 0.7)
        model = fit_all_horizons(train)
        direct = forecast(model, test, 6)
        recursive = forecast(model, test, 6, recursive=True)
        assert np.array_equal(recursive.sample_index, direct.sample_index)
        assert np.all(np.isfinite(recursive.predicted))

    def test_recursive_needs_one_step_weights(self, mixed_30d):
        train, test = split(mixed_30d, 0.7)
        model = fit_all_horizons(train, MarConfig(horizons=(3,)))
        with pytest.raises(UsageError, match="1-step"):
            forecast(model, test, 3, recursive=True)


class TestNoiseFreeRecovery:
    def test_exact_order4_recurrence(self):
        signal, coeffs = sinusoid_recurrence(40 * 144)
        series = make_series(signal)
        dm = build_design_matrix(series, 4, 1, FULL_DAY_WINDOW)
        w = fit_weights(dm)
        assert np.abs(w - coeffs).max() < 1e-6


def _pairs(report):
    return report.actual, report.predicted
