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


def _resolver(package: str, namespace: dict, public: dict[str, str]):
    """``package``'s module ``__getattr__`` and ``__all__``, from its public
    names by the module that defines them. A name or a submodule is imported
    on first access, and a name is then bound in ``namespace``, the
    package's globals, so later lookups do not come here."""
    home = {name: module for module, names in public.items() for name in names.split()}

    def __getattr__(name: str):
        if name in home:
            value = namespace[name] = getattr(import_module(f".{home[name]}", package), name)
            return value
        if not name.startswith("_"):
            try:
                return import_module(f".{name}", package)
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":  # the submodule exists; an import inside it failed
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    return __getattr__, sorted(home)


# every public name, by the module that defines it
__getattr__, __all__ = _resolver(__name__, globals(), {
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
})
