"""The forecast driver every model shares, forecast error metrics and
the model x horizon comparison table."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from datetime import datetime, time

import numpy as np

from .errors import DataValidationError
from .series import (
    MINUTES_PER_DAY,
    IrradianceSeries,
    grid_rows,
    row_blocks,
    row_index,
    slot_extremes,
    standardize,
)

DEFAULT_MAPE_THRESHOLD = 20.0

# Canonical column order for comparison tables.
MODEL_ORDER = ("cnn", "ar", "lstm", "mar")


def _pair_arrays(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise DataValidationError(
            f"actual and predicted must be 1-D and aligned, got {a.shape} vs {p.shape}"
        )
    if a.size == 0:
        raise DataValidationError("metrics need at least one (actual, predicted) pair")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise DataValidationError("metrics need finite inputs")
    return a, p


def rmse(actual, predicted) -> float:
    """Root mean square error, W/m2."""
    a, p = _pair_arrays(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


def mae(actual, predicted) -> float:
    """Mean absolute error, W/m2."""
    a, p = _pair_arrays(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def mape(actual, predicted, min_actual: float = DEFAULT_MAPE_THRESHOLD) -> float:
    """Mean absolute percentage error over pairs whose actual value is
    at least ``min_actual`` W/m2. Near-zero actuals (night, dawn, dusk)
    would otherwise blow the percentage up."""
    a, p = _pair_arrays(actual, predicted)
    keep = a >= min_actual
    if not np.any(keep):
        raise DataValidationError(
            f"no pairs with actual >= {min_actual} W/m2; cannot compute MAPE"
        )
    return float(100.0 * np.mean(np.abs(a[keep] - p[keep]) / a[keep]))


@dataclass
class ForecastReport:
    """Predicted/actual pairs for one model at one horizon. Row ``r``
    is the grid slot ``sample_index[r]``, at ``start`` plus that many
    ``step``-minute steps."""

    model: str
    horizon: int
    start: datetime
    step: int
    sample_index: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray

    def __post_init__(self) -> None:
        self.sample_index = np.asarray(self.sample_index, dtype=np.int64)
        self.actual = np.asarray(self.actual, dtype=np.float64)
        self.predicted = np.asarray(self.predicted, dtype=np.float64)
        if not (self.sample_index.size == self.actual.size == self.predicted.size):
            raise DataValidationError("report rows must align sample indices, actuals, predictions")
        if self.start.time() != time(0) or self.step <= 0 or MINUTES_PER_DAY % self.step:
            raise DataValidationError(
                f"report grid must start at midnight on a step dividing the day, "
                f"got {self.start.isoformat()} and step {self.step}"
            )

    @classmethod
    def forecast(cls, model, name: str, test: IrradianceSeries, lags: int, horizon: int,
                 size: int, predict: Callable) -> "ForecastReport":
        """The report ``name`` of every ``row_index`` row of the test series,
        ``horizon`` steps past its ``lags`` lags, from ``model``'s ``step``,
        ``scaler`` and ``daylight``: the forecast path of every model.

        ``predict(targets, at, lags)`` gets a ``row_blocks`` block of ``size`` rows,
        from the first: their target indices, (day, row of day) and lags, in a fresh
        array, standardized bit for bit as in a standardized copy of the series. Its
        forecasts are destandardized, refused if their squares have no finite sum
        (a model file's values may overflow either way) and clipped at zero."""
        if test.step != model.step:
            raise DataValidationError(
                f"test series step {test.step} does not match model step {model.step}"
            )
        standardize(slot_extremes(test), model.scaler)  # fails where every value would
        targets, windows = row_index(test, model.daylight, lags, horizon)
        if targets.size == 0:
            raise DataValidationError(f"horizon {horizon}: no row to forecast; daylight window "
                                      f"{model.daylight} is too narrow for {lags} lags and this horizon")
        predicted = np.empty(targets.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, at in row_blocks(windows, size):
                block = windows[at]
                block -= model.scaler.mu
                block /= model.scaler.sigma
                predicted[rows] = model.scaler.inverse(predict(targets[rows], at, block))
            # actuals are irradiance, so the squared errors have a finite sum when
            # the forecasts' squares do; the dot product and the clip copy nothing
            finite = np.isfinite(predicted @ predicted)
        if not finite:
            raise DataValidationError(f"horizon {horizon} forecasts overflow float64; "
                                      "check its scaler, profile and weights")
        np.maximum(predicted, 0.0, out=predicted)
        actual = test.values[targets]  # after the blocks, so not held beside their work
        return cls(name, horizon, test.start, test.step, targets, actual, predicted)

    def __len__(self) -> int:
        return self.actual.size

    def summary(self, min_actual: float = DEFAULT_MAPE_THRESHOLD) -> "SummaryCell":
        return SummaryCell(
            model=self.model,
            horizon=self.horizon,
            rmse=rmse(self.actual, self.predicted),
            mae=mae(self.actual, self.predicted),
            mape=mape(self.actual, self.predicted, min_actual=min_actual),
        )


@dataclass(frozen=True)
class SummaryCell:
    model: str
    horizon: int
    rmse: float
    mae: float
    mape: float

    def __lt__(self, other: "SummaryCell") -> bool:
        """Comparison order: by horizon, then by model."""
        return (self.horizon, _model_rank(self.model)) < (other.horizon, _model_rank(other.model))


def _model_rank(model: str) -> tuple[int, str]:
    """Comparison order: the models of ``MODEL_ORDER`` in that order,
    then any other by name."""
    return (MODEL_ORDER.index(model) if model in MODEL_ORDER else len(MODEL_ORDER), model)


def summarize(
    reports: list[ForecastReport], min_actual: float = DEFAULT_MAPE_THRESHOLD
) -> list[SummaryCell]:
    """One summary cell per (model, horizon), in stable comparison order."""
    return sorted(report.summary(min_actual=min_actual) for report in reports)


def horizon_label(horizon: int, step: int) -> str:
    minutes = horizon * step
    if minutes % 60 == 0:
        hours = minutes // 60
        return f"{hours} h"
    return f"{minutes} min"


def summary_csv(cells: list[SummaryCell]) -> str:
    rows = (f"{c.model},{c.horizon},{c.rmse:.6f},{c.mae:.6f},{c.mape:.6f}\n" for c in cells)
    return "model,horizon,rmse,mae,mape\n" + "".join(rows)


def summary_table(cells: list[SummaryCell], step: int = 10) -> str:
    """Aligned text table: one row per metric and horizon, one column
    per model."""
    models = sorted({c.model for c in cells}, key=_model_rank)
    horizons = sorted({c.horizon for c in cells})
    by_key = {(c.model, c.horizon): c for c in cells}

    metric_rows = [
        ("RMSE /W/m2", lambda c: c.rmse),
        ("MAE /W/m2", lambda c: c.mae),
        ("MAPE /%", lambda c: c.mape),
    ]
    header = f"{'Error':<12}{'Horizon':<10}" + "".join(f"{m.upper():>10}" for m in models)
    lines = [header, "-" * len(header)]
    for label, getter in metric_rows:
        for i, h in enumerate(horizons):
            row = f"{label if i == 0 else '':<12}{horizon_label(h, step):<10}"
            for m in models:
                cell = by_key.get((m, h))
                row += f"{getter(cell):>10.2f}" if cell is not None else f"{'-':>10}"
            lines.append(row)
    return "\n".join(lines) + "\n"


def report_rows_csv(reports: list[ForecastReport]) -> Iterator[str]:
    """The forecast rows CSV text: the header, then each report's rows,
    one chunk per day."""
    yield "timestamp,model,horizon,actual_wm2,predicted_wm2\n"
    for report in reports:
        tail = f",{report.model.replace('%', '%%')},{report.horizon},%.17g,%.17g\n"
        yield from grid_rows(
            report.start, report.step, report.sample_index, tail, report.actual, report.predicted
        )
