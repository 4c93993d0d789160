"""Window construction, the one training loop, and forecast
post-processing for the neural baselines.

Both networks consume windows of the 4 most recent samples taken
through ``series.row_index``, the same daylight row policy the
autoregressive design matrix uses, so every model forecasts exactly
the same target slots. Nothing here branches on the kind of network:
its spec (``networks.SPECS``) names the network, its epochs, batch
size and learning rates, and whether its inputs are differenced.

The CNN works on lag-1 differences of the standardized signal (the
difference transform detrends the bell shape); its target is the
cumulative change from the last observed sample to the target slot,
which for a 1-step horizon is exactly the lag-1 difference, and its
predictions are reconstructed by adding back the last observed value.
The LSTM works on the standardized signal directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DataValidationError, NumericalError
from ..metrics import ForecastReport
from ..series import (
    PREDICT_BLOCK_ROWS,
    DaylightWindow,
    IrradianceSeries,
    Scaler,
    fit_scaler,
    inverse_difference,
    row_index,
    standardize,
)
from .adam import Adam
from .flat import FlatParams
from .networks import ConvSpec, LstmSpec

MIN_TRAINING_WINDOWS = 1000


@dataclass
class WindowSet:
    """Training windows plus the bookkeeping that maps predictions back
    onto the series; ``nn_forecast`` builds block inputs instead."""

    lags: np.ndarray          # (days, rows per day, window) read-only view, chronological
    targets: np.ndarray       # (rows,)
    anchors: np.ndarray       # standardized value at the last observed slot
    sample_index: np.ndarray  # flat index of each row's target slot
    differenced: bool

    @property
    def inputs(self) -> np.ndarray:
        """The (rows, window, 1) network inputs of every row, a fresh copy."""
        return self.take(np.arange(self.targets.size))

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The inputs of the given rows, gathered from the view. Training
        takes its batches this way, so no copy of every window exists."""
        return self.lags[np.divmod(rows, self.lags.shape[1])].reshape(len(rows), -1, 1)


def build_windows(
    z: IrradianceSeries,
    window: int,
    horizon: int,
    daylight: DaylightWindow,
    differenced: bool,
) -> WindowSet:
    """One row per day and in-window target slot with full lag support,
    matching the autoregressive row policy exactly. The inputs stay a
    view of the series (or of its differences) until they are used.

    For differenced rows each feature is the lag-1 difference within
    the day's daylight window, so no feature ever reaches outside it;
    the window's first slot, which has no slot before it there, keeps
    its standardized level undifferenced.
    """
    targets, lags = row_index(z, daylight, window, horizon)
    if targets.size == 0:
        raise DataValidationError(f"no usable windows: daylight window too narrow for window "
                                  f"{window} and horizon {horizon}")
    anchors = lags[:, :, 0].reshape(-1)
    lags = lags[:, :, ::-1]
    if differenced:
        lo, hi = daylight.slot_bounds(z.step)
        days = z.day_matrix()[:, lo : hi + 1 - horizon]  # the slots a window reads
        deltas = days.copy()
        np.subtract(days[:, 1:], days[:, :-1], out=deltas[:, 1:])
        lags = sliding_window_view(deltas, window, axis=1)
    target_values = z.values[targets]
    return WindowSet(
        lags=lags,
        targets=target_values - anchors if differenced else target_values,
        anchors=anchors,
        sample_index=targets,
        differenced=differenced,
    )


@dataclass
class NeuralModel:
    """A trained network for one forecast horizon, with the frozen
    scaler and window policy it was trained under."""

    spec: ConvSpec | LstmSpec
    horizon: int
    params: FlatParams
    scaler: Scaler
    daylight: DaylightWindow
    step: int
    loss_curve: list[float] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.spec.kind

    def network(self):
        return self.spec.network(params=self.params)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient with respect to pred."""
    diff = pred - target
    return float(np.mean(diff**2)), 2.0 * diff / diff.size


def _train(network, windows: WindowSet, seed: int) -> list[float]:
    """Fit ``network`` to the windows with Adam for its spec's epochs,
    batch size and learning rate at each epoch; the loss of each epoch."""
    spec = network.spec
    rng = np.random.default_rng(seed)
    optimizer = Adam(learning_rate=spec.learning_rate_at(0))
    n = windows.targets.size
    loss_curve: list[float] = []
    for epoch in range(spec.epochs):
        optimizer.learning_rate = spec.learning_rate_at(epoch)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, spec.batch_size):
            batch = order[start : start + spec.batch_size]
            x = windows.take(batch)
            y = windows.targets[batch]
            pred, cache = network.forward_with_cache(x)
            loss, grad_pred = mse_loss(pred, y)
            grads = network.backward(cache, grad_pred)
            optimizer.step(network.params.flat, grads.flat)
            epoch_loss += loss * batch.size
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"training diverged at epoch {epoch + 1}: loss {epoch_loss}")
        loss_curve.append(epoch_loss)
    return loss_curve


def train_network(
    spec: ConvSpec | LstmSpec,
    train: IrradianceSeries,
    horizon: int,
    daylight: DaylightWindow,
    seed: int,
    scaler: Scaler | None = None,
) -> NeuralModel:
    """Train a network of ``spec`` for one horizon on windows of the
    training series. Deterministic under a fixed seed. It is also the
    CLI's training-pool job: a spawned worker unpickles it, and the
    spec, by reference, so the worker imports this package and not the CLI."""
    network = spec.network(seed=seed)
    scaler = scaler or fit_scaler(train)
    windows = build_windows(standardize(train, scaler), spec.window, horizon, daylight, spec.differenced)
    if windows.targets.size < MIN_TRAINING_WINDOWS:
        raise DataValidationError(
            f"{windows.targets.size} training windows; need at least {MIN_TRAINING_WINDOWS}"
        )
    loss_curve = _train(network, windows, seed)
    return NeuralModel(spec, horizon, network.params, scaler, daylight, train.step, loss_curve)


def train_cnn(
    train: IrradianceSeries,
    spec: ConvSpec | None = None,
    horizon: int = 1,
    daylight: DaylightWindow = DaylightWindow(),
    seed: int = 0,
    scaler: Scaler | None = None,
) -> NeuralModel:
    """Train the convolutional baseline for one horizon."""
    return train_network(spec or ConvSpec(), train, horizon, daylight, seed, scaler)


def train_lstm(
    train: IrradianceSeries,
    spec: LstmSpec | None = None,
    horizon: int = 1,
    daylight: DaylightWindow = DaylightWindow(),
    seed: int = 0,
    scaler: Scaler | None = None,
) -> NeuralModel:
    """Train the recurrent baseline for one horizon."""
    return train_network(spec or LstmSpec(), train, horizon, daylight, seed, scaler)


def nn_forecast(model: NeuralModel, test: IrradianceSeries) -> ForecastReport:
    """Forecast the test series through ``ForecastReport.forecast``. Each
    block's lags (CNN: differenced) go into one reused buffer, so no window
    set or LSTM step state exists for more than one block; the last block
    is padded to the same size, so every call runs the same BLAS kernels
    and a row's bits do not change with the BLAS thread count."""
    window, horizon = model.spec.window, model.horizon
    network = model.network()
    block = np.zeros((PREDICT_BLOCK_ROWS, window, 1))

    def predict(targets: np.ndarray, at: tuple, lags: np.ndarray) -> np.ndarray:
        inputs = lags[:, ::-1]  # chronological
        if model.spec.differenced:
            # lag-1 differences from the slot before each window; a day's
            # first window starts at its first daylight slot, which keeps its level
            before = test.values[targets - horizon - window] - model.scaler.mu
            before /= model.scaler.sigma
            before[at[1] == 0] = 0.0
            inputs = np.diff(inputs, axis=1, prepend=before[:, None])
        block[: len(lags), :, 0] = inputs
        block[len(lags) :] = 0.0
        pred = network.predict(block)[: len(lags)]
        return inverse_difference(pred, lags[:, 0]) if model.spec.differenced else pred

    return ForecastReport.forecast(model, model.kind, test, window, horizon, PREDICT_BLOCK_ROWS, predict)


def loss_curve_csv(model: NeuralModel) -> str:
    rows = (f"{epoch},{loss:.17g}\n" for epoch, loss in enumerate(model.loss_curve, start=1))
    return "epoch,loss\n" + "".join(rows)
