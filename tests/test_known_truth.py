"""Known-truth tests: the MAR pipeline recovers a process whose answer is known.

The residual is an AR(3) process z with unit Gaussian noise. The series is
400 + 40 z plus a per-slot profile, the half sine 300 sin(pi s / S) over the
day's S slots, on 730 days at a 10-minute step. Its values stay far above
the zero clip. Standardizing and deducting the ensemble profile leave
a scaled copy of z, so:

- order selection from the PACF finds 3;
- the 1-step weights are the AR coefficients;
- the direct h-step forecast error is the optimal predictor's,
  40 sqrt(sum_{j<h} psi_j^2), with psi the process's MA(inf) weights
  (Hamilton 1994, *Time Series Analysis*, ch. 4).

Each bound is a number of standard errors computed here from the data, not
a hand-picked tolerance. Byte-identity with an earlier version shows that
nothing changed; these show that the result is right.
"""

import math
from datetime import datetime

import numpy as np
import pytest

from solarcast import DaylightWindow, IrradianceSeries, MarConfig, fit_all_horizons, split
from solarcast import build_design_matrix, standardize
from solarcast.stats import PACF_THRESHOLD, training_residual

# phi_3 sits well above PACF_THRESHOLD, so the order is not a coin flip:
# at phi_3 = 0.10, exactly on the threshold, selection may find 2
PHI = (0.5, 0.2, 0.15)
LEVEL, SCALE, AMPLITUDE = 400.0, 40.0, 300.0
DAYS, STEP = 730, 10
BURN_IN = 500
HORIZONS = (1, 3, 6)
K = 4  # standard errors a recovered value may lie from the truth


def known_series(seed: int) -> IrradianceSeries:
    rng = np.random.default_rng(seed)
    per_day = 24 * 60 // STEP
    lags = [0.0] * len(PHI)  # most recent last
    for noise in rng.standard_normal(BURN_IN + DAYS * per_day).tolist():
        lags.append(PHI[0] * lags[-1] + PHI[1] * lags[-2] + PHI[2] * lags[-3] + noise)
    z = np.array(lags[len(PHI) + BURN_IN :])
    profile = AMPLITUDE * np.sin(np.pi * np.arange(per_day) / per_day)
    return IrradianceSeries(datetime(2024, 1, 1), LEVEL + SCALE * z + np.tile(profile, DAYS), STEP)


def optimal_rmse(horizon: int) -> float:
    """The h-step error of the optimal predictor, in W/m2."""
    psi = [1.0]
    for j in range(1, horizon):
        psi.append(sum(phi * psi[j - 1 - i] for i, phi in enumerate(PHI) if j - 1 - i >= 0))
    return SCALE * math.sqrt(sum(weight**2 for weight in psi))


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda seed: f"seed{seed}")
def fitted(request):
    train, test = split(known_series(request.param), 0.7)
    return train, test, fit_all_horizons(train, MarConfig(order=None))


def test_optimal_rmse_oracle():
    assert [round(optimal_rmse(h), 2) for h in HORIZONS] == [40.0, 48.21, 56.18]


def test_order_selection_finds_the_process_order(fitted):
    _, _, model = fitted
    assert PHI[-1] > 1.4 * PACF_THRESHOLD  # not a case on the threshold
    assert model.order == len(PHI)


def test_one_step_weights_within_standard_errors(fitted):
    train, _, model = fitted
    # the rows the fit regressed, on the residual it fitted
    domain = training_residual(standardize(train, model.scaler), model.profile)
    matrix = build_design_matrix(domain, model.order, 1, DaylightWindow())
    lags, targets = matrix.lags, matrix.targets
    weights = model.weights[1]
    residuals = targets - lags @ weights
    variance = residuals @ residuals / (len(targets) - model.order)
    errors = np.sqrt(variance * np.diag(np.linalg.inv(lags.T @ lags)))
    assert np.all(np.abs(weights - PHI) <= K * errors), (weights, errors)


@pytest.mark.parametrize("recursive", [False, True], ids=["direct", "recursive"])
def test_forecast_rmse_is_the_optimal_predictors(fitted, recursive):
    _, test, model = fitted
    for h in HORIZONS:
        report = model.forecast(test, h, recursive)
        squared = (report.actual - report.predicted) ** 2
        # days are independent blocks: the process's slowest root has modulus
        # 0.904, so the 69 night steps leave 0.1 % of one day in the next
        day = report.sample_index // test.samples_per_day
        daily = np.bincount(day, weights=squared) / np.bincount(day)  # every day has rows
        rmse = math.sqrt(squared.mean())
        error = daily.std(ddof=1) / math.sqrt(len(daily)) / (2 * rmse)  # delta method
        assert abs(rmse - optimal_rmse(h)) <= K * error, (h, rmse, error)
