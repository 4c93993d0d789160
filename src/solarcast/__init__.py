"""Univariate short-term solar irradiance forecasting.

The core model regresses ensemble-deducted, standardized irradiance on
its own recent lags with one least-squares weight vector per forecast
horizon; from-scratch CNN and LSTM baselines and RMSE/MAE/MAPE
comparison tooling round out the package.

Public names and submodules are imported on first access (PEP 562), so
``import solarcast`` loads no submodule and a process that runs one part
of the package, such as a network-training worker, imports only that part.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by the module that defines it
_PUBLIC = {
    "errors": "DataValidationError NumericalError SolarcastError UsageError",
    "io": "load_csv write_csv",
    "mar": "DesignMatrix MarConfig MarModel build_design_matrix fit_all_horizons fit_weights forecast",
    "metrics": "ForecastReport SummaryCell mae mape rmse summarize summary_csv summary_table",
    "model_io": "load_mar_model load_nn_models save_mar_model save_nn_models",
    "series": "DaylightWindow DifferencedSeries IrradianceSeries Scaler destandardize "
              "difference_transform fit_scaler inverse_difference split standardize",
    "stats": "CorrelationSequence EnsembleProfile autocorrelation ensemble_add ensemble_deduct "
             "ensemble_profile partial_autocorrelation select_order",
    "synthetic": "generate_synthetic",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or a submodule, imported on first access. Either is
    then bound on the package, so later lookups do not come here."""
    if name in _HOME:
        value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
        return value
    if not name.startswith("_"):
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":  # the submodule exists; an import inside it failed
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
