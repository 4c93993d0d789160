"""Acceptance gate: every contract-level criterion at its stated
tolerance, one PASS/FAIL line per criterion (visible with -s or -v).

Run: pytest tests/test_acceptance.py -v
"""

import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from datetime import datetime

import numpy as np
import pytest

from solarcast import (
    ForecastReport,
    IrradianceSeries,
    build_design_matrix,
    destandardize,
    difference_transform,
    ensemble_add,
    ensemble_deduct,
    ensemble_profile,
    fit_all_horizons,
    fit_scaler,
    fit_weights,
    forecast,
    generate_synthetic,
    load_mar_model,
    mae,
    mape,
    partial_autocorrelation,
    rmse,
    save_mar_model,
    select_order,
    split,
    standardize,
)
from solarcast.cli import main as cli_main
from solarcast.mar import MarConfig
from solarcast.nn import (
    CnnNetwork,
    ConvSpec,
    LstmNetwork,
    LstmSpec,
    finite_difference_gradients,
    lstm_cell_backward,
    lstm_cell_forward,
    max_relative_error,
    nn_forecast,
    train_cnn,
    train_lstm,
)
from solarcast.nn.training import build_windows, mse_loss
from solarcast.series import DaylightWindow

from conftest import AR4_COEFFS, FULL_DAY_WINDOW, simulate_ar, sinusoid_recurrence
from test_nn_layers import (
    make_kink_free_cnn_case,
    make_kink_free_lstm_case,
    small_lstm_params,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def report_pairs(report: ForecastReport):
    return report.actual, report.predicted


def test_coefficient_recovery():
    with criterion("coefficient recovery: order-4 recurrence, noise-free 1e-6 / noisy 1e-2"):
        started = time.perf_counter()
        signal, coeffs = sinusoid_recurrence(40 * 144)
        series = IrradianceSeries(datetime(2024, 1, 1), signal, 10)
        matrix = build_design_matrix(series, 4, 1, FULL_DAY_WINDOW)
        assert matrix.n_rows >= 5000
        weights = fit_weights(matrix)
        assert np.abs(weights - coeffs).max() < 1e-6

        noisy = signal + np.random.default_rng(0).standard_normal(signal.size) * 1e-3
        noisy_matrix = build_design_matrix(
            IrradianceSeries(datetime(2024, 1, 1), noisy, 10), 4, 1, FULL_DAY_WINDOW
        )
        noisy_weights = fit_weights(noisy_matrix)
        assert np.abs(noisy_weights - coeffs).max() < 1e-2
        assert time.perf_counter() - started < 5.0


def test_normal_equation_optimality():
    with criterion("normal-equation optimality: |X'r| < 1e-8 |X'y| on every fit"):
        cases = []
        for regime, seed in (("mixed", 1), ("cloudy", 2)):
            train, _ = split(generate_synthetic(60, regime, seed=seed), 0.7)
            scaler = fit_scaler(train)
            z = standardize(train, scaler)
            profile = ensemble_profile(z)
            domain = ensemble_deduct(z, profile)
            for horizon in (1, 3, 6):
                cases.append(build_design_matrix(domain, 4, horizon))
        signal, _ = sinusoid_recurrence(30 * 144)
        cases.append(
            build_design_matrix(
                IrradianceSeries(datetime(2024, 1, 1), signal, 10), 4, 1, FULL_DAY_WINDOW
            )
        )
        for matrix in cases:
            w = fit_weights(matrix)
            X, y = matrix.lags, matrix.targets
            gradient = np.abs(X.T @ (X @ w - y)).max()
            assert gradient < 1e-8 * np.abs(X.T @ y).max()


def test_round_trip_exactness(tmp_path):
    with criterion("round-trip exactness: scaling, differencing, ensemble, save/load"):
        series = generate_synthetic(30, "mixed", seed=11)
        scaler = fit_scaler(series)
        z = standardize(series, scaler)
        back = destandardize(z, scaler)
        assert np.abs(back.values - series.values).max() < 1e-9

        integers = np.random.default_rng(1).integers(0, 1000, 288).astype(float)
        assert np.array_equal(difference_transform(integers).reconstruct(), integers)
        assert np.abs(difference_transform(z).reconstruct() - z.values).max() < 1e-9

        profile = ensemble_profile(z)
        round_tripped = ensemble_add(ensemble_deduct(z, profile), profile)
        assert np.abs(round_tripped.values - z.values).max() < 1e-9

        train, test = split(series, 0.7)
        model = fit_all_horizons(train)
        path = tmp_path / "roundtrip.model"
        save_mar_model(model, path)
        loaded = load_mar_model(path)
        for h in (1, 3, 6):
            assert np.array_equal(
                forecast(model, test, h).predicted, forecast(loaded, test, h).predicted
            )


def test_pacf_cutoff():
    with criterion("PACF cutoff: AR(4) sim has |PACF|<0.05 at lags 5-12, order 4 selected"):
        started = time.perf_counter()
        x = simulate_ar(AR4_COEFFS, 10_000, seed=42)
        pacf = partial_autocorrelation(x, 12)
        assert np.abs(pacf.values[5:13]).max() < 0.05
        assert select_order(pacf) == 4
        assert time.perf_counter() - started < 2.0


def test_gradient_correctness():
    with criterion("gradient correctness: 100+ random configurations vs central differences"):
        started = time.perf_counter()
        checked = 0
        worst = 0.0

        # 40 full CNNs and 30 full LSTMs with random small shapes
        rng = np.random.default_rng(7)
        for i in range(40):
            spec = ConvSpec(
                kernel_count=int(rng.integers(2, 5)),
                kernel_size=int(rng.integers(2, 4)),
                fc1_units=int(rng.integers(2, 6)),
                fc2_units=int(rng.integers(2, 5)),
            )
            network, x, y = make_kink_free_cnn_case(seed=100 + i, spec=spec, batch=4)
            pred, cache = network.forward_with_cache(x)
            _, grad_pred = mse_loss(pred, y)
            analytic = network.backward(cache, grad_pred)
            numeric = finite_difference_gradients(
                lambda: mse_loss(network.predict(x), y)[0], network.params
            )
            worst = max(worst, max_relative_error(analytic, numeric, floor=1e-6))
            checked += 1

        for i in range(30):
            spec = LstmSpec(
                units=int(rng.integers(2, 5)), dense_hidden=int(rng.integers(2, 4))
            )
            network, x, y = make_kink_free_lstm_case(seed=500 + i, spec=spec, batch=3)
            pred, cache = network.forward_with_cache(x)
            _, grad_pred = mse_loss(pred, y)
            analytic = network.backward(cache, grad_pred)
            numeric = finite_difference_gradients(
                lambda: mse_loss(network.predict(x), y)[0], network.params
            )
            worst = max(worst, max_relative_error(analytic, numeric, floor=1e-6))
            checked += 1

        # 30 bare LSTM cells (smooth gates, no kink concern)
        for i in range(30):
            cell_rng = np.random.default_rng(900 + i)
            hidden = int(cell_rng.integers(2, 5))
            n_in = int(cell_rng.integers(1, 4))
            params = small_lstm_params(cell_rng, hidden=hidden, n_in=n_in)
            x_t = cell_rng.standard_normal((3, n_in))
            h_prev = cell_rng.standard_normal((3, hidden)) * 0.5
            c_prev = cell_rng.standard_normal((3, hidden)) * 0.5
            target = cell_rng.standard_normal((3, hidden))

            def cell_loss():
                h, _, _ = lstm_cell_forward(x_t, h_prev, c_prev, params)
                return float(np.mean((h - target) ** 2))

            h, _, cache = lstm_cell_forward(x_t, h_prev, c_prev, params)
            grad_h = 2.0 * (h - target) / target.size
            _, _, _, analytic = lstm_cell_backward(
                grad_h, np.zeros_like(grad_h), cache, params
            )
            numeric = finite_difference_gradients(cell_loss, params)
            worst = max(worst, max_relative_error(analytic, numeric, floor=1e-6))
            checked += 1

        assert checked >= 100
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert time.perf_counter() - started < 30.0


def test_horizon_degradation():
    with criterion("horizon degradation: RMSE(6) >= RMSE(3) >= RMSE(1) in >= 18/20 seeds"):
        holds = 0
        for seed in range(20):
            train, test = split(generate_synthetic(100, "mixed", seed=seed), 0.7)
            model = fit_all_horizons(train)
            errors = {h: rmse(*report_pairs(forecast(model, test, h))) for h in (1, 3, 6)}
            if errors[6] >= errors[3] >= errors[1]:
                holds += 1
        assert holds >= 18, f"monotone degradation held in only {holds}/20 seeds"


def test_ensemble_benefit():
    with criterion("ensemble benefit: MAR MAPE <= plain-AR MAPE on cloudy data in >= 16/20 seeds"):
        holds = 0
        for seed in range(20):
            train, test = split(generate_synthetic(100, "cloudy", seed=seed), 0.7)
            mar_model = fit_all_horizons(train, MarConfig(ensemble_enabled=True))
            ar_model = fit_all_horizons(train, MarConfig(ensemble_enabled=False))
            mar_mape = mape(*report_pairs(forecast(mar_model, test, 1)))
            ar_mape = mape(*report_pairs(forecast(ar_model, test, 1)))
            if mar_mape <= ar_mape:
                holds += 1
        assert holds >= 16, f"ensemble benefit held in only {holds}/20 seeds"


def test_metric_identities():
    with criterion("metric identities: RMSE >= MAE, oracle match 1e-12, 15% inflation"):
        rng = np.random.default_rng(3)
        for _ in range(20):
            actual = rng.uniform(25, 900, 300)
            predicted = actual + rng.standard_normal(300) * rng.uniform(5, 80)
            r, m = rmse(actual, predicted), mae(actual, predicted)
            assert r >= m
            # naive loop oracles
            se = sum((float(a) - float(p)) ** 2 for a, p in zip(actual, predicted))
            ae = sum(abs(float(a) - float(p)) for a, p in zip(actual, predicted))
            assert r == pytest.approx((se / 300) ** 0.5, abs=1e-12)
            assert m == pytest.approx(ae / 300, abs=1e-12)
            pe = [abs(float(a) - float(p)) / float(a)
                  for a, p in zip(actual, predicted) if a >= 20.0]
            assert mape(actual, predicted) == pytest.approx(
                100.0 * sum(pe) / len(pe), abs=1e-12
            )
        inflated_actual = rng.uniform(50, 800, 500)
        assert mape(inflated_actual, inflated_actual * 1.15) == pytest.approx(15.0, rel=1e-12)


def test_training_sanity():
    with criterion("training sanity: CNN and LSTM cut training MSE >= 2x, deterministic"):
        started = time.perf_counter()
        # clear regime: the 2x bar measures the optimizer, not the
        # irreducible cloud-innovation noise (see decisions ledger)
        train, _ = split(generate_synthetic(100, "clear", seed=5), 0.7)
        daylight = DaylightWindow()
        scaler = fit_scaler(train)
        z = standardize(train, scaler)

        cnn_spec, lstm_spec = ConvSpec(), LstmSpec()
        assert (cnn_spec.epochs, lstm_spec.epochs) == (30, 100)

        cnn_windows = build_windows(z, cnn_spec.window, 1, daylight, differenced=True)
        cnn_before = mse_loss(
            CnnNetwork(spec=cnn_spec, seed=2).predict(cnn_windows.inputs), cnn_windows.targets
        )[0]
        cnn_model = train_cnn(train, spec=cnn_spec, horizon=1, seed=2, scaler=scaler)
        cnn_after = mse_loss(
            cnn_model.network().predict(cnn_windows.inputs), cnn_windows.targets
        )[0]
        assert cnn_after * 2.0 <= cnn_before, f"CNN only {cnn_before / cnn_after:.2f}x"

        lstm_windows = build_windows(z, lstm_spec.window, 1, daylight, differenced=False)
        lstm_before = mse_loss(
            LstmNetwork(spec=lstm_spec, seed=2).predict(lstm_windows.inputs),
            lstm_windows.targets,
        )[0]
        lstm_model = train_lstm(train, spec=lstm_spec, horizon=1, seed=2, scaler=scaler)
        lstm_after = mse_loss(
            lstm_model.network().predict(lstm_windows.inputs), lstm_windows.targets
        )[0]
        assert lstm_after * 2.0 <= lstm_before, f"LSTM only {lstm_before / lstm_after:.2f}x"

        # determinism: retraining with the same seed reproduces the
        # parameters bit for bit
        cnn_again = train_cnn(train, spec=cnn_spec, horizon=1, seed=2, scaler=scaler)
        assert all(
            np.array_equal(cnn_model.params[k], cnn_again.params[k]) for k in cnn_model.params
        )
        lstm_again = train_lstm(train, spec=lstm_spec, horizon=1, seed=2, scaler=scaler)
        assert all(
            np.array_equal(lstm_model.params[k], lstm_again.params[k])
            for k in lstm_model.params
        )
        assert time.perf_counter() - started < 600.0


def test_end_to_end_cli(tmp_path, capsys):
    with criterion("end-to-end CLI: synth, diagnose, fit, evaluate, compare all exit 0"):
        out = str(tmp_path)
        data = str(tmp_path / "synthetic_mixed_40d.csv")
        assert cli_main(["synth", "--days", "40", "--regime", "mixed", "--seed", "12",
                         "--out", out]) == 0
        assert cli_main(["diagnose", "--data", data, "--out", out]) == 0
        assert cli_main(["fit", "--data", data, "--model", "mar", "--out", out]) == 0
        assert cli_main(["evaluate", "--data", data,
                         "--model-file", str(tmp_path / "mar.model"), "--out", out]) == 0
        assert cli_main(["compare", "--data", data, "--seed", "12", "--out", out]) == 0
        capsys.readouterr()

        summary = [
            line
            for line in (tmp_path / "compare_summary.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert summary[0] == "model,horizon,rmse,mae,mape"
        assert len(summary) == 1 + 4 * 3
        models = {line.split(",")[0] for line in summary[1:]}
        horizons = {line.split(",")[1] for line in summary[1:]}
        assert models == {"mar", "ar", "cnn", "lstm"}
        assert horizons == {"1", "3", "6"}
        for h in (1, 3, 6):
            ET.parse(tmp_path / f"overlay_h{h}.svg")


def test_nn_rows_align_with_mar_rows():
    with criterion("cross-model row alignment: every model forecasts identical target slots"):
        train, test = split(generate_synthetic(30, "mixed", seed=21), 0.7)
        mar_model = fit_all_horizons(train, MarConfig(horizons=(3,)))
        mar_report = forecast(mar_model, test, 3)
        cnn_model = train_cnn(train, spec=ConvSpec(epochs=1), horizon=3, seed=1)
        lstm_model = train_lstm(train, spec=LstmSpec(epochs=1), horizon=3, seed=1)
        for report in (nn_forecast(cnn_model, test), nn_forecast(lstm_model, test)):
            assert (report.start, report.step) == (mar_report.start, mar_report.step)
            assert np.array_equal(report.sample_index, mar_report.sample_index)
            assert np.array_equal(report.actual, mar_report.actual)
