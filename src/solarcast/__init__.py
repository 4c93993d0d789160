"""Univariate short-term solar irradiance forecasting.

The core model regresses ensemble-deducted, standardized irradiance on
its own recent lags with one least-squares weight vector per forecast
horizon; from-scratch CNN and LSTM baselines and RMSE/MAE/MAPE
comparison tooling round out the package.
"""

from .errors import DataValidationError, NumericalError, SolarcastError, UsageError
from .io import load_csv, write_csv
from .mar import (
    DesignMatrix,
    MarConfig,
    MarModel,
    build_design_matrix,
    fit_all_horizons,
    fit_weights,
    forecast,
)
from .metrics import (
    ForecastReport,
    SummaryCell,
    mae,
    mape,
    rmse,
    summarize,
    summary_csv,
    summary_table,
)
from .model_io import load_mar_model, load_nn_models, save_mar_model, save_nn_models
from .series import (
    DaylightWindow,
    DifferencedSeries,
    IrradianceSeries,
    Scaler,
    destandardize,
    difference_transform,
    fit_scaler,
    inverse_difference,
    split,
    standardize,
)
from .stats import (
    CorrelationSequence,
    EnsembleProfile,
    autocorrelation,
    ensemble_add,
    ensemble_deduct,
    ensemble_profile,
    partial_autocorrelation,
    select_order,
)
from .synthetic import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "CorrelationSequence",
    "DataValidationError",
    "DaylightWindow",
    "DesignMatrix",
    "DifferencedSeries",
    "EnsembleProfile",
    "ForecastReport",
    "IrradianceSeries",
    "MarConfig",
    "MarModel",
    "NumericalError",
    "Scaler",
    "SolarcastError",
    "SummaryCell",
    "UsageError",
    "autocorrelation",
    "build_design_matrix",
    "destandardize",
    "difference_transform",
    "ensemble_add",
    "ensemble_deduct",
    "ensemble_profile",
    "fit_all_horizons",
    "fit_scaler",
    "fit_weights",
    "forecast",
    "generate_synthetic",
    "inverse_difference",
    "load_csv",
    "load_mar_model",
    "load_nn_models",
    "mae",
    "mape",
    "partial_autocorrelation",
    "rmse",
    "save_mar_model",
    "save_nn_models",
    "select_order",
    "split",
    "standardize",
    "summarize",
    "summary_csv",
    "summary_table",
    "write_csv",
]
