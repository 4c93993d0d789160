"""The ensemble-deducted autoregressive forecaster.

Pipeline: standardize with a scaler frozen on the training split,
subtract the per-slot ensemble profile, regress each target on its m
most recent lags by least squares (one weight vector per horizon), then
add the profile back, destandardize, and clip at zero. Disabling the
ensemble step yields the conventional AR baseline with an otherwise
identical pipeline.

Rows come from ``series.row_index``, the one daylight row policy every
model shares, so the fit and the forecast gather exactly the target
slots the neural baselines use.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError, NumericalError, UsageError
from .metrics import ForecastReport
from .series import (
    PREDICT_BLOCK_ROWS,
    DaylightWindow,
    IrradianceSeries,
    Scaler,
    fit_scaler,
    row_blocks,
    row_spans,
    standardize,
)
from .stats import (
    EnsembleProfile,
    ensemble_profile,
    partial_autocorrelation,
    select_order,
    training_residual,
)

DEFAULT_HORIZONS = (1, 3, 6)
PACF_MAX_LAG = 12
MIN_ROWS_PER_COLUMN = 10
ORTHOGONALITY_TOL = 1e-8
EPS = np.finfo(np.float64).eps
# rows gathered per QR fold of a fit: a 730-day fit's three horizons make
# 53 `qr` calls, against 209 at 512 rows, and take a third less time
FIT_BLOCK_ROWS = 2048


class DesignMatrix:
    """Lagged training rows for one horizon.

    Row i's lags are the m values before its prediction base slot, most
    recent first, and its target is the value h steps ahead. They are
    held as given: a (rows, m) matrix and (rows,) targets, or a series'
    (days, rows per day, m) ``row_index`` view and (days, rows per day)
    target view, so a fit gathers a block of rows at a time and no lag
    matrix exists. ``lags`` and ``targets`` make the flat copies.
    """

    def __init__(self, lags: np.ndarray, targets: np.ndarray, order: int, horizon: int) -> None:
        lags = np.asarray(lags, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if lags.ndim == 2:  # the rows as one block of the view's shape
            lags, targets = lags[None], targets[None]
        if lags.ndim != 3 or lags.shape[:2] != targets.shape:
            raise DataValidationError("design matrix rows and targets are misaligned")
        if lags.shape[2] != order:
            raise DataValidationError(
                f"design matrix has {lags.shape[2]} columns, expected order {order}"
            )
        self.windows, self.target_rows, self.order, self.horizon = lags, targets, order, horizon

    @property
    def lags(self) -> np.ndarray:
        return np.concatenate(self.windows)

    @property
    def targets(self) -> np.ndarray:
        return self.target_rows.reshape(-1)

    @property
    def n_rows(self) -> int:
        return self.target_rows.size

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Lags and targets of ``FIT_BLOCK_ROWS`` rows at a time, from the first."""
        for _, at in row_blocks(self.windows, FIT_BLOCK_ROWS):
            yield self.windows[at], self.target_rows[at]


@dataclass
class MarConfig:
    """Fit-time configuration. ``order=None`` selects the order from
    the PACF of the (ensemble-deducted) training data."""

    order: int | None = 4
    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    daylight: DaylightWindow = field(default_factory=DaylightWindow)
    ensemble_enabled: bool = True


@dataclass
class MarModel:
    """Fitted forecaster: order, per-horizon weights, and the frozen
    scaler/profile from the training split."""

    order: int
    horizons: tuple[int, ...]
    weights: dict[int, np.ndarray]
    scaler: Scaler
    profile: EnsembleProfile
    daylight: DaylightWindow
    step: int
    ensemble_enabled: bool = True

    def __post_init__(self) -> None:
        if self.order < 1:
            raise DataValidationError(f"order must be >= 1, got {self.order}")
        for h in self.horizons:
            w = np.asarray(self.weights.get(h), dtype=np.float64)
            if w.shape != (self.order,):
                raise DataValidationError(
                    f"horizon {h} weight vector has shape {w.shape}, expected ({self.order},)"
                )
            if not np.all(np.isfinite(w)):
                raise DataValidationError(f"horizon {h} weights contain non-finite values")
            self.weights[h] = w

    @property
    def name(self) -> str:
        """'mar', or 'ar' when the ensemble step is disabled."""
        return "mar" if self.ensemble_enabled else "ar"

    def settings(self) -> dict[str, str]:
        """The run settings the model fixes, as output header keys."""
        return {"model": self.name, "order": str(self.order), "daylight": str(self.daylight)}

    def check(self, horizons: tuple[int, ...], recursive: bool = False) -> MarModel:
        """This model; a ``UsageError`` for a forecast it has no weights for."""
        if recursive:
            if 1 not in self.weights:
                raise UsageError("recursive forecasting needs a fitted 1-step horizon")
            return self
        for h in horizons:
            if h not in self.weights:
                raise UsageError(f"model was not fitted for horizon {h}")
        return self

    def forecast(self, test: IrradianceSeries, horizon: int, recursive: bool = False) -> ForecastReport:
        """The module-level ``forecast`` of this model."""
        return forecast(self, test, horizon, recursive)


def build_design_matrix(
    train: IrradianceSeries,
    order: int,
    horizon: int,
    daylight: DaylightWindow = DaylightWindow(),
) -> DesignMatrix:
    """Emit one row per day and in-window target slot: m lags (most
    recent first) against the value ``horizon`` steps past the base."""
    if order < 1:
        raise DataValidationError(f"order must be >= 1, got {order}")
    if horizon < 1:
        raise DataValidationError(f"horizon must be >= 1, got {horizon}")
    spans = row_spans(train, daylight, order + horizon)  # each row's target, then its lags
    days, per_day, _ = spans.shape
    if days * per_day < MIN_ROWS_PER_COLUMN * order:
        lo, hi = daylight.slot_bounds(train.step)
        raise DataValidationError(
            f"horizon {horizon}: only {days * per_day} design rows for order {order} "
            f"({days} days x {per_day} rows per day); "
            f"a row spans order + horizon = {order + horizon} slots and daylight window "
            f"{daylight} holds {hi - lo + 1} at {train.step}-minute steps; need at least "
            f"{MIN_ROWS_PER_COLUMN * order} for a stable fit"
        )
    return DesignMatrix(spans[:, :, horizon:], spans[:, :, 0], order, horizon)


def fit_weights(matrix: DesignMatrix) -> np.ndarray:
    """Least-squares weights minimizing the squared prediction error,
    back-solved from the triangular factor R of a QR factorization of
    [lags | targets], folded one block of rows at a time (a tall-skinny
    QR), so no lag matrix and no explicit normal-matrix inverse exist."""
    order, n_rows = matrix.order, matrix.n_rows
    if n_rows < order:
        raise DataValidationError(f"underdetermined fit: {n_rows} rows for {order} columns")
    r = np.empty((0, order + 1))
    for lags, targets in matrix.blocks():
        r = np.linalg.qr(np.vstack([r, np.column_stack([lags, targets])]), mode="r")
    singular_values = np.linalg.svd(r[:order, :order], compute_uv=False)  # those of the lags
    # the rank lstsq finds with rcond=None
    rank = np.count_nonzero(singular_values > EPS * max(n_rows, order) * singular_values[0])
    if rank < order:
        cond = float(singular_values[0] / singular_values[-1]) if singular_values[-1] else np.inf
        raise NumericalError(
            f"rank-deficient design matrix: rank {rank} < order {order} "
            f"(condition estimate {cond:.3e})"
        )
    w = np.linalg.solve(r[:order, :order], r[:order, order])
    gradients, scales = np.zeros(order), np.zeros(order)
    for lags, targets in matrix.blocks():  # X'r and X'y, summed a block at a time
        gradients += lags.T @ (lags @ w - targets)
        scales += lags.T @ targets
    gradients = np.abs(gradients)
    gradient, scale = gradients.max(), np.abs(scales).max()
    if scale > 0 and gradient > ORTHOGONALITY_TOL * scale:
        lag = int(gradients.argmax())
        peak = max(np.abs(lags[:, lag]).max() for lags, _ in matrix.blocks())
        raise NumericalError(
            f"horizon {matrix.horizon}: normal-equation optimality violated: "
            f"|X'r| = {gradient:.3e} exceeds {ORTHOGONALITY_TOL} * |X'y| = "
            f"{ORTHOGONALITY_TOL * scale:.3e}; "
            f"lag {lag + 1} column peaks at |x| = {peak:.3e}"
        )
    return w


def fit_all_horizons(train: IrradianceSeries, config: MarConfig | None = None) -> MarModel:
    """Fit scaler, profile and per-horizon weight vectors on a raw
    training series. Deterministic: same data and config, same model."""
    config = config or MarConfig()
    if not config.horizons:
        raise DataValidationError("need at least one horizon")
    if len(set(config.horizons)) < len(config.horizons):  # one weights record per horizon
        raise DataValidationError(f"horizons must not repeat, got {tuple(config.horizons)}")
    scaler = fit_scaler(train)
    domain = standardize(train, scaler)
    profile = ensemble_profile(domain)
    if config.ensemble_enabled:  # deducted in place: z becomes the residual
        domain = training_residual(domain, profile)

    order = config.order
    if order is None:
        order = select_order(
            partial_autocorrelation(daylight_values(domain, config.daylight), PACF_MAX_LAG)
        )

    weights = {
        h: fit_weights(build_design_matrix(domain, order, h, config.daylight))
        for h in config.horizons
    }
    return MarModel(
        order=order,
        horizons=tuple(config.horizons),
        weights=weights,
        scaler=scaler,
        profile=profile,
        daylight=config.daylight,
        step=train.step,
        ensemble_enabled=config.ensemble_enabled,
    )


def daylight_values(series: IrradianceSeries, daylight: DaylightWindow = DaylightWindow()) -> np.ndarray:
    """In-window samples of every day, concatenated in time order."""
    lo, hi = daylight.slot_bounds(series.step)
    return series.day_matrix()[:, lo : hi + 1].reshape(-1)


def forecast(
    model: MarModel,
    test: IrradianceSeries,
    horizon: int,
    recursive: bool = False,
) -> ForecastReport:
    """Forecast every in-window slot of the test series with full lag
    support, one ``ForecastReport.forecast`` block at a time, deducting the
    profile from each block's lags in place. Pure function of (model, test).

    ``recursive`` iterates the 1-step weights instead of using the
    horizon's own direct weights; the emitted row set is identical."""
    model.check((horizon,), recursive)

    def predict(targets: np.ndarray, at: tuple, lags: np.ndarray) -> np.ndarray:
        slots = targets % test.samples_per_day
        if model.ensemble_enabled:  # each lag less its own slot's profile value
            lags -= model.profile.means[slots[:, None] - horizon - np.arange(model.order)]
        if recursive:
            # feed each 1-step prediction back in as the most recent lag
            for _ in range(horizon):
                pred_domain = lags @ model.weights[1]
                lags = np.column_stack([pred_domain, lags[:, :-1]])
        else:
            pred_domain = lags @ model.weights[horizon]
        return model.profile.add(pred_domain, slots) if model.ensemble_enabled else pred_domain

    return ForecastReport.forecast(
        model, model.name, test, model.order, horizon, PREDICT_BLOCK_ROWS, predict
    )
