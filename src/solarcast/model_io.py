"""Versioned flat-text persistence for fitted models.

Both formats are line oriented: a magic+version first line, then
``key value...`` records. Floats are written with 17 significant
digits, which round-trips IEEE doubles exactly, so a loaded model
forecasts bit-identically to the one that was saved.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .errors import DataValidationError, UsageError
from .io import read_chunks, read_text, write_text
from .mar import MarModel
from .metrics import ForecastReport
from .series import MINUTES_PER_DAY, DaylightWindow, IrradianceSeries, Scaler
from .stats import EnsembleProfile

MAR_MAGIC = "mar-model v1"
NN_MAGIC = "nn-model v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(values: np.ndarray) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=np.float64))


def _parse_values(
    key: str, text: str, parse, count: int | None = None, sep: str | None = None
) -> list:
    """The ``sep``-separated values of a ``key`` record, each through
    ``parse``; exactly ``count`` of them when given."""
    try:
        values = [parse(tok) for tok in text.split(sep)]
    except (ValueError, OverflowError):
        values = None
    if values is None or (count is not None and len(values) != count):
        raise DataValidationError(f"malformed {key!r} record {text[:40]!r}")
    return values


def _built(where: str, make, *args):
    """``make(*args)``, its ``DataValidationError`` naming ``where``."""
    try:
        return make(*args)
    except DataValidationError as exc:
        raise DataValidationError(f"{where}: {exc}") from None


class _RecordReader:
    """Sequential ``key value`` reader with useful errors."""

    def __init__(self, text: str, magic: str):
        self.lines = [ln for ln in text.splitlines() if ln.strip()]
        if not self.lines:
            raise DataValidationError("empty model file")
        if self.lines[0] != magic:
            raise DataValidationError(f"expected a {magic!r} file, got {self.lines[0]!r}")
        self.pos = 1

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def peek_key(self) -> str | None:
        return None if self.done() else self.lines[self.pos].split(" ", 1)[0]

    def take(self, key: str) -> str:
        if self.done():
            raise DataValidationError(f"missing record {key!r}")
        head, _, rest = self.lines[self.pos].partition(" ")
        if head != key:
            raise DataValidationError(f"expected record {key!r}, found {head!r}")
        self.pos += 1
        return rest

    def take_values(
        self, key: str, parse, count: int | None = None, sep: str | None = None
    ) -> list:
        return _parse_values(key, self.take(key), parse, count, sep)

    def take_daylight_and_scaler(self) -> tuple[DaylightWindow, Scaler]:
        """The ``daylight`` and ``scaler`` records both formats share."""
        daylight = _built("daylight record", DaylightWindow, *self.take_values("daylight", int, 2))
        return daylight, _built("scaler record", Scaler, *self.take_values("scaler", float, 2))


@contextlib.contextmanager
def _records(path: str | os.PathLike, magic: str):
    """A reader of the model file at ``path``; a ``DataValidationError``
    raised in the block names the file."""
    text = read_text(path, "model file")
    try:
        yield _RecordReader(text, magic)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def save_mar_model(model: MarModel, path: str | os.PathLike) -> None:
    lines = [
        MAR_MAGIC,
        f"step {model.step}",
        f"order {model.order}",
        f"horizons {','.join(str(h) for h in model.horizons)}",
        f"ensemble {int(model.ensemble_enabled)}",
        f"daylight {model.daylight.start_minute} {model.daylight.end_minute}",
        f"scaler {_fmt(model.scaler.mu)} {_fmt(model.scaler.sigma)}",
        f"profile_means {_fmt_vec(model.profile.means)}",
        f"profile_support {' '.join(str(int(c)) for c in model.profile.support_counts)}",
        *(f"weights {h} {_fmt_vec(model.weights[h])}" for h in model.horizons),
    ]
    write_text(path, ("\n".join(lines) + "\n",))


def load_mar_model(path: str | os.PathLike) -> MarModel:
    with _records(path, MAR_MAGIC) as reader:
        [step] = reader.take_values("step", int, 1)
        [order] = reader.take_values("order", int, 1)
        horizons = tuple(reader.take_values("horizons", int, sep=","))
        repeated = [h for i, h in enumerate(horizons) if h in horizons[:i]]
        if repeated:
            raise DataValidationError(f"horizons record repeats horizon {repeated[0]}")
        [ensemble] = reader.take_values("ensemble", int, 1)
        if ensemble not in (0, 1):
            raise DataValidationError(f"ensemble record must be 0 or 1, got {ensemble}")
        daylight, scaler = reader.take_daylight_and_scaler()
        means = reader.take_values("profile_means", float)
        support = reader.take_values("profile_support", np.int64)
        profile = _built("profile records", EnsembleProfile, means, support)
        if step > 0 and len(profile) != MINUTES_PER_DAY // step:  # else the forecast refuses the step
            raise DataValidationError(f"profile has {len(profile)} slots but the series has "
                                      f"{MINUTES_PER_DAY // step} samples per day")
        weights: dict[int, np.ndarray] = {}
        while not reader.done():
            h_text, _, vec_text = reader.take("weights").partition(" ")
            [h] = _parse_values("weights", h_text, int, 1)
            if h in weights:
                raise DataValidationError(f"a second weights record for horizon {h}")
            if h not in horizons:
                raise DataValidationError(f"weights record for undeclared horizon {h}")
            weights[h] = np.array(_parse_values("weights", vec_text, float))
        missing = [h for h in horizons if h not in weights]
        if missing:
            raise DataValidationError(f"missing weight vectors for horizons {missing}")
        return MarModel(
            order=order,
            horizons=horizons,
            weights=weights,
            scaler=scaler,
            profile=profile,
            daylight=daylight,
            step=step,
            ensemble_enabled=bool(ensemble),
        )


def save_nn_models(models: list, path: str | os.PathLike) -> None:
    """Persist one or more fitted networks, one per horizon, that share
    one spec, scaler, daylight window and step into a single file."""
    if not models:
        raise DataValidationError("nothing to save")
    first = models[0]
    header = (first.spec, first.scaler, first.daylight, first.step)
    if any((m.spec, m.scaler, m.daylight, m.step) != header for m in models):
        raise DataValidationError("one file cannot mix specs, scalers, daylight windows or steps")
    if len({m.horizon for m in models}) < len(models):
        raise DataValidationError(f"one network per horizon, got {[m.horizon for m in models]}")
    lines = [
        NN_MAGIC,
        f"kind {first.kind}",
        f"step {first.step}",
        f"window {first.spec.window}",
        f"daylight {first.daylight.start_minute} {first.daylight.end_minute}",
        f"scaler {_fmt(first.scaler.mu)} {_fmt(first.scaler.sigma)}",
        f"spec {first.spec.to_text()}",
    ]
    for model in models:
        lines.append(f"horizon {model.horizon}")
        for name in sorted(model.params):
            arr = model.params[name]
            shape = ",".join(str(s) for s in arr.shape)
            lines.append(f"param {name} {shape} {_fmt_vec(arr.reshape(-1))}")
    write_text(path, ("\n".join(lines) + "\n",))


def _parse_param(rest: str) -> tuple[str, np.ndarray]:
    """Split a ``param`` record into its name and its values in the
    declared shape."""
    try:
        name, shape_text, vec_text = rest.split(" ", 2)
        values = np.array([float(tok) for tok in vec_text.split()], dtype=np.float64)
        shape = tuple(int(s) for s in shape_text.split(","))
        if values.size == math.prod(shape):
            return name, values.reshape(shape)
    except ValueError:
        raise DataValidationError(f"malformed param record {rest[:40]!r}") from None
    raise DataValidationError(f"parameter {name} has shape {shape} but {values.size} values")


class NetworkSet(dict):
    """The ``{horizon: NeuralModel}`` networks of one ``nn-model`` file."""

    def settings(self) -> dict[str, str]:
        """The run settings the file fixes, as output header keys."""
        first = next(iter(self.values()))
        return {"model": first.kind, "daylight": str(first.daylight)}

    def check(self, horizons: tuple[int, ...], recursive: bool = False) -> NetworkSet:
        """This set; a ``UsageError`` for a recursive forecast or a horizon with no network."""
        if recursive:
            raise UsageError("recursive mode applies to mar/ar models only")
        for h in horizons:
            if h not in self:
                raise UsageError(f"model file has no network for horizon {h}")
        return self

    def forecast(self, test: IrradianceSeries, horizon: int, recursive: bool = False) -> ForecastReport:
        from .nn.training import nn_forecast

        return nn_forecast(self.check((horizon,), recursive)[horizon], test)


def load_model(
    path: str | os.PathLike, horizons: tuple[int, ...] = (), recursive: bool = False
) -> MarModel | NetworkSet:
    """The ``MarModel`` or ``NetworkSet`` named by the magic line of the file's first
    ``read_chunks`` piece, so the records are decoded once. Either is refused here, before
    any forecast, for forecasts it cannot make (``horizons``, ``recursive``)."""
    with contextlib.closing(read_chunks(path, "model file")) as pieces:
        first = next(pieces, "").partition("\n")[0].strip()
    if first == MAR_MAGIC:
        return load_mar_model(path).check(horizons, recursive)
    if first != NN_MAGIC:
        raise DataValidationError(f"{path}: not a recognized model file (first line {first!r})")
    NetworkSet().check((), recursive)  # an empty set: refuses only recursion, before parsing
    return load_nn_models(path).check(horizons)


def load_nn_models(path: str | os.PathLike) -> NetworkSet:
    """Load every horizon section from an ``nn-model v1`` file; returns
    {horizon: NeuralModel}."""
    from .nn.flat import FlatParams
    from .nn.networks import ConvSpec, LstmSpec
    from .nn.training import NeuralModel

    with _records(path, NN_MAGIC) as reader:
        kind = reader.take("kind")
        [step] = reader.take_values("step", int, 1)
        [window] = reader.take_values("window", int, 1)
        daylight, scaler = reader.take_daylight_and_scaler()
        spec_text = reader.take("spec")
        specs = {"cnn": ConvSpec, "lstm": LstmSpec}
        if kind not in specs:
            raise DataValidationError(f"unknown network kind {kind!r}")
        spec = _built("spec record", specs[kind].from_text, spec_text)
        if window != spec.window:
            raise DataValidationError(
                f"window record {window} does not match the spec's window={spec.window}"
            )

        models = NetworkSet()
        while not reader.done():
            [horizon] = reader.take_values("horizon", int, 1)
            if horizon in models:
                raise DataValidationError(f"a second section for horizon {horizon}")
            params: dict[str, np.ndarray] = {}
            while reader.peek_key() == "param":
                name, values = _built(f"horizon {horizon}", _parse_param, reader.take("param"))
                if name in params:
                    raise DataValidationError(f"horizon {horizon}: repeated parameter {name!r}")
                params[name] = values
            models[horizon] = NeuralModel(
                spec=spec,
                horizon=horizon,
                params=_built(f"horizon {horizon}", FlatParams, spec.param_shapes(), params),
                scaler=scaler,
                daylight=daylight,
                step=step,
            )
        if not models:
            raise DataValidationError("no horizon sections found")
        return models
