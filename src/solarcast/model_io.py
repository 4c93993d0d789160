"""Versioned flat-text persistence for fitted models.

Both formats are line oriented: a magic+version first line, then
``key value...`` records. Floats are written with 17 significant
digits, which round-trips IEEE doubles exactly, so a loaded model
forecasts bit-identically to the one that was saved.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import DataValidationError
from .io import read_text, write_text
from .mar import MarModel
from .series import DaylightWindow, Scaler
from .stats import EnsembleProfile

MAR_MAGIC = "mar-model v1"
NN_MAGIC = "nn-model v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(values: np.ndarray) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=np.float64))


def detect_model_kind(path: str | os.PathLike) -> str:
    """'mar' or 'nn', from the file's magic line."""
    first = read_text(path, DataValidationError, "model file").partition("\n")[0].strip()
    if first == MAR_MAGIC:
        return "mar"
    if first == NN_MAGIC:
        return "nn"
    raise DataValidationError(f"{path}: not a recognized model file (first line {first!r})")


def _parse_values(
    path, key: str, text: str, parse, count: int | None = None, sep: str | None = None
) -> list:
    """The ``sep``-separated values of a ``key`` record, each through
    ``parse``; exactly ``count`` of them when given."""
    try:
        values = [parse(tok) for tok in text.split(sep)]
    except (ValueError, OverflowError):
        values = None
    if values is None or (count is not None and len(values) != count):
        raise DataValidationError(f"{path}: malformed {key!r} record {text[:40]!r}")
    return values


class _RecordReader:
    """Sequential ``key value`` reader with useful errors."""

    def __init__(self, path: str | os.PathLike, magic: str):
        text = read_text(path, DataValidationError, "model file")
        self.lines = [ln for ln in text.splitlines() if ln.strip()]
        self.path = path
        if not self.lines:
            raise DataValidationError(f"{path}: empty model file")
        if self.lines[0] != magic:
            raise DataValidationError(
                f"{path}: expected a {magic!r} file, got {self.lines[0]!r}"
            )
        self.pos = 1

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def peek_key(self) -> str | None:
        if self.done():
            return None
        return self.lines[self.pos].split(" ", 1)[0]

    def take(self, key: str) -> str:
        if self.done():
            raise DataValidationError(f"{self.path}: missing record {key!r}")
        line = self.lines[self.pos]
        head, _, rest = line.partition(" ")
        if head != key:
            raise DataValidationError(
                f"{self.path}: expected record {key!r}, found {head!r}"
            )
        self.pos += 1
        return rest

    def take_values(
        self, key: str, parse, count: int | None = None, sep: str | None = None
    ) -> list:
        return _parse_values(self.path, key, self.take(key), parse, count, sep)


def _take_scaler(reader: _RecordReader) -> Scaler:
    mu, sigma = reader.take_values("scaler", float, 2)
    try:
        return Scaler(mu=mu, sigma=sigma)
    except DataValidationError as exc:
        raise DataValidationError(f"{reader.path}: scaler record: {exc}") from None


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
    ]
    for h in model.horizons:
        lines.append(f"weights {h} {_fmt_vec(model.weights[h])}")
    write_text(path, ("\n".join(lines) + "\n",))


def load_mar_model(path: str | os.PathLike) -> MarModel:
    reader = _RecordReader(path, MAR_MAGIC)
    [step] = reader.take_values("step", int, 1)
    [order] = reader.take_values("order", int, 1)
    horizons = tuple(reader.take_values("horizons", int, sep=","))
    repeated = [h for i, h in enumerate(horizons) if h in horizons[:i]]
    if repeated:
        raise DataValidationError(f"{path}: horizons record repeats horizon {repeated[0]}")
    [ensemble] = reader.take_values("ensemble", int, 1)
    day_lo, day_hi = reader.take_values("daylight", int, 2)
    scaler = _take_scaler(reader)
    means = np.array(reader.take_values("profile_means", float))
    support = np.array(reader.take_values("profile_support", np.int64), dtype=np.int64)
    weights: dict[int, np.ndarray] = {}
    while not reader.done():
        h_text, _, vec_text = reader.take("weights").partition(" ")
        [h] = _parse_values(path, "weights", h_text, int, 1)
        if h in weights:
            raise DataValidationError(f"{path}: a second weights record for horizon {h}")
        if h not in horizons:
            raise DataValidationError(f"{path}: weights record for undeclared horizon {h}")
        weights[h] = np.array(_parse_values(path, "weights", vec_text, float))
    missing = [h for h in horizons if h not in weights]
    if missing:
        raise DataValidationError(f"{path}: missing weight vectors for horizons {missing}")
    return MarModel(
        order=order,
        horizons=horizons,
        weights=weights,
        scaler=scaler,
        profile=EnsembleProfile(means=means, support_counts=support),
        daylight=DaylightWindow(start_minute=day_lo, end_minute=day_hi),
        step=step,
        ensemble_enabled=bool(ensemble),
    )


def save_nn_models(models: list, path: str | os.PathLike) -> None:
    """Persist one or more fitted networks of the same kind (one per
    horizon) into a single file."""
    from .nn.training import NeuralModel  # local import to avoid a cycle

    if not models:
        raise DataValidationError("nothing to save")
    kinds = {m.kind for m in models}
    if len(kinds) != 1:
        raise DataValidationError(f"cannot mix network kinds in one file: {sorted(kinds)}")
    first: NeuralModel = models[0]
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


def _parse_param(rest: str, where: str) -> tuple[str, tuple[int, ...], np.ndarray]:
    """Split a ``param`` record into name, declared shape and values."""
    try:
        name, shape_text, vec_text = rest.split(" ", 2)
        values = np.array([float(tok) for tok in vec_text.split()], dtype=np.float64)
        return name, tuple(int(s) for s in shape_text.split(",")), values
    except ValueError:
        raise DataValidationError(f"{where}: malformed param record {rest[:40]!r}") from None


def load_nn_models(path: str | os.PathLike) -> dict[int, "object"]:
    """Load every horizon section from an ``nn-model v1`` file; returns
    {horizon: NeuralModel}."""
    from .nn.flat import FlatParams
    from .nn.networks import ConvSpec, LstmSpec
    from .nn.training import NeuralModel

    reader = _RecordReader(path, NN_MAGIC)
    kind = reader.take("kind")
    [step] = reader.take_values("step", int, 1)
    [window] = reader.take_values("window", int, 1)
    day_lo, day_hi = reader.take_values("daylight", int, 2)
    scaler = _take_scaler(reader)
    spec_text = reader.take("spec")
    specs = {"cnn": ConvSpec, "lstm": LstmSpec}
    if kind not in specs:
        raise DataValidationError(f"{path}: unknown network kind {kind!r}")
    try:
        spec = specs[kind].from_text(spec_text)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: spec record: {exc}") from None
    if window != spec.window:
        raise DataValidationError(
            f"{path}: window record {window} does not match the spec's window={spec.window}"
        )

    expected = spec.param_shapes()
    models: dict[int, NeuralModel] = {}
    while not reader.done():
        [horizon] = reader.take_values("horizon", int, 1)
        if horizon in models:
            raise DataValidationError(f"{path}: a second section for horizon {horizon}")
        where = f"{path}: horizon {horizon}"
        params: dict[str, np.ndarray] = {}
        while reader.peek_key() == "param":
            name, shape, values = _parse_param(reader.take("param"), where)
            if name not in expected or name in params:
                raise DataValidationError(f"{where}: unknown or repeated {kind} parameter {name!r}")
            if shape != expected[name] or values.size != math.prod(shape):
                raise DataValidationError(
                    f"{where}: parameter {name} has shape {shape} and {values.size} values, "
                    f"expected shape {expected[name]}"
                )
            params[name] = values.reshape(shape)
        missing = sorted(set(expected) - set(params))
        if missing:
            raise DataValidationError(f"{where}: missing parameters {missing}")
        models[horizon] = NeuralModel(
            spec=spec,
            horizon=horizon,
            params=FlatParams(expected, params),
            scaler=scaler,
            daylight=DaylightWindow(start_minute=day_lo, end_minute=day_hi),
            step=step,
        )
    if not models:
        raise DataValidationError(f"{path}: no horizon sections found")
    return models
