"""The two baseline network architectures and their hyper-parameters.

CNN: one valid convolution (16 kernels of size 2, ReLU), average
pooling of size 1, then dense layers 16 -> 8 -> 1 (ReLU hidden,
identity output), trained with Adam at rate 0.005, batch 256, for 30
epochs on windows of the 4 most recent samples.

LSTM: one layer of 32 units unrolled over the 4-sample window, then
dense 8 -> 1, Adam starting at 0.05 with the rate dropped by 10x every
30 epochs, batch 256, 100 epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..errors import DataValidationError
from .layers import (
    avg_pool_backward,
    avg_pool_forward,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
)
from .flat import FlatParams
from .lstm import Workspace, gate_shapes, lstm_sequence_backward, lstm_sequence_forward


class _TextSpec:
    """The ``name=value`` text of a spec's fields, as a model file's
    ``spec`` record holds it; every field must be finite and positive. A subclass is the one
    description of a kind of network: its ``kind``, the ``cost`` of training one, whether its
    inputs are lag-1 ``differenced``, the network it builds and its learning rates."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:  # also false for NaN
                raise DataValidationError(f"{self.kind.upper()} spec field {f.name} must be finite and positive")

    def to_text(self) -> str:
        return " ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))

    @classmethod
    def from_text(cls, text: str):
        kwargs = {}
        types = {f.name: f.type for f in fields(cls)}
        for token in text.split():
            name, _, raw = token.partition("=")
            if name not in types:
                raise DataValidationError(f"unknown {cls.__name__} field {name!r}")
            try:
                kwargs[name] = float(raw) if types[name] == "float" else int(raw)
            except ValueError:
                raise DataValidationError(
                    f"{cls.__name__} field {name}: cannot parse {raw!r}"
                ) from None
        return cls(**kwargs)


@dataclass(frozen=True)
class ConvSpec(_TextSpec):
    kind = "cnn"
    cost = 1  # the time one fit takes, in CNN fits
    differenced = True
    kernel_count: int = 16
    kernel_size: int = 2
    pool_size: int = 1
    fc1_units: int = 16
    fc2_units: int = 8
    window: int = 4
    learning_rate: float = 0.005
    batch_size: int = 256
    epochs: int = 30

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kernel_size > self.window:
            raise DataValidationError(
                f"kernel size {self.kernel_size} exceeds the {self.window}-sample window"
            )
        conv_len = self.window - self.kernel_size + 1
        if conv_len % self.pool_size != 0:
            raise DataValidationError(
                f"conv output length {conv_len} is not divisible by pool size {self.pool_size}"
            )

    def network(self, seed: int = 0, params: FlatParams | None = None) -> CnnNetwork:
        return CnnNetwork(self, seed, params)

    def learning_rate_at(self, epoch: int) -> float:
        return self.learning_rate

    @property
    def flat_units(self) -> int:
        return (self.window - self.kernel_size + 1) // self.pool_size * self.kernel_count

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name and shape of every parameter of a network of this spec."""
        k, f, fc1, fc2 = self.kernel_size, self.kernel_count, self.fc1_units, self.fc2_units
        return {
            "conv_w": (k, 1, f),
            "conv_b": (f,),
            "fc1_w": (self.flat_units, fc1),
            "fc1_b": (fc1,),
            "fc2_w": (fc1, fc2),
            "fc2_b": (fc2,),
            "out_w": (fc2, 1),
            "out_b": (1,),
        }


@dataclass(frozen=True)
class LstmSpec(_TextSpec):
    kind = "lstm"
    cost = 15  # about 15 CNN fits, at the default specs
    differenced = False
    units: int = 32
    layers: int = 1
    dense_hidden: int = 8
    window: int = 4
    initial_lr: float = 0.05
    lr_drop_period: int = 30
    lr_drop_factor: float = 0.1
    batch_size: int = 256
    epochs: int = 100

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.layers != 1:
            raise DataValidationError("only a single LSTM layer is supported")

    def network(self, seed: int = 0, params: FlatParams | None = None) -> LstmNetwork:
        return LstmNetwork(self, seed, params)

    def learning_rate_at(self, epoch: int) -> float:
        return self.initial_lr * self.lr_drop_factor ** (epoch // self.lr_drop_period)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name and shape of every parameter of a network of this spec."""
        h, dense = self.units, self.dense_hidden
        head = {"fc_w": (h, dense), "fc_b": (dense,), "out_w": (dense, 1), "out_b": (1,)}
        return {**gate_shapes(h, 1), **head}


# every kind of network, by the name a model file's ``kind`` record holds
SPECS = {spec.kind: spec for spec in (ConvSpec, LstmSpec)}


def init_params(spec: ConvSpec | LstmSpec, seed: int) -> FlatParams:
    """Glorot-uniform weights, drawn in layout order from one generator,
    and zero biases. A weight of shape (..., a, b) has fan-in plus
    fan-out prod(...) * (a + b): a conv kernel's k + k * f, a dense
    layer's in + out, an LSTM gate's h + (h + 1)."""
    rng = np.random.default_rng(seed)
    params = FlatParams(spec.param_shapes())
    for name, shape in params.shapes.items():
        if len(shape) > 1:
            limit = np.sqrt(6.0 / (math.prod(shape[:-2]) * sum(shape[-2:])))
            params[name] = rng.uniform(-limit, limit, size=shape)
    return params


class CnnNetwork:
    """Convolutional regressor over a fixed-length input window."""

    def __init__(self, spec: ConvSpec | None = None, seed: int = 0, params: FlatParams | None = None):
        self.spec = spec or ConvSpec()
        if params is None:
            params = init_params(self.spec, seed)
        self.params = params

    def forward_with_cache(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        p = self.params
        conv_out, conv_cache = conv1d_forward(x, p["conv_w"], p["conv_b"], activation="relu")
        pool_out, pool_cache = avg_pool_forward(conv_out, self.spec.pool_size)
        flat = pool_out.reshape(pool_out.shape[0], -1)
        fc1_out, fc1_cache = dense_forward(flat, p["fc1_w"], p["fc1_b"], activation="relu")
        fc2_out, fc2_cache = dense_forward(fc1_out, p["fc2_w"], p["fc2_b"], activation="relu")
        out, out_cache = dense_forward(fc2_out, p["out_w"], p["out_b"], activation="identity")
        cache = {
            "conv": conv_cache,
            "pool": pool_cache,
            "pool_shape": pool_out.shape,
            "fc1": fc1_cache,
            "fc2": fc2_cache,
            "out": out_cache,
        }
        return out[:, 0], cache

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward_with_cache(x)[0]

    def backward(self, cache: dict, grad_pred: np.ndarray) -> FlatParams:
        """Parameter gradients, in the layout of ``params``."""
        grads = FlatParams(self.params.shapes)
        grad_out = grad_pred[:, None]
        grad_fc2, grads["out_w"], grads["out_b"] = dense_backward(grad_out, cache["out"])
        grad_fc1, grads["fc2_w"], grads["fc2_b"] = dense_backward(grad_fc2, cache["fc2"])
        grad_flat, grads["fc1_w"], grads["fc1_b"] = dense_backward(grad_fc1, cache["fc1"])
        grad_pool = grad_flat.reshape(cache["pool_shape"])
        grad_conv = avg_pool_backward(grad_pool, cache["pool"])
        _, grads["conv_w"], grads["conv_b"] = conv1d_backward(grad_conv, cache["conv"])
        return grads


class LstmNetwork:
    """Recurrent regressor: the final hidden state of the unrolled
    window feeds the dense head."""

    def __init__(self, spec: LstmSpec | None = None, seed: int = 0, params: FlatParams | None = None):
        self.spec = spec or LstmSpec()
        if params is None:
            params = init_params(self.spec, seed)
        self.params = params
        # step state and backward scratch, reused batch after batch, and
        # the one step of state prediction keeps
        self._forward_space, self._backward_space = Workspace(), Workspace()
        self._predict_space = Workspace()

    def forward_with_cache(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Predictions and the cache ``backward`` takes. The LSTM step
        state lives in this network's workspace, so the next
        ``forward_with_cache`` overwrites the cache."""
        return self._forward(x, self._forward_space, history=True)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions, from buffers of their own that hold one step of
        LSTM state and are reused call after call, so a forecast's
        blocks map no new memory."""
        return self._forward(x, self._predict_space, history=False)[0]

    def _forward(
        self, x: np.ndarray, workspace: Workspace, history: bool
    ) -> tuple[np.ndarray, dict]:
        p = self.params
        h_final, state = lstm_sequence_forward(x, p, self.spec.units, workspace, history)
        fc_out, fc_cache = dense_forward(h_final, p["fc_w"], p["fc_b"], activation="relu")
        out, out_cache = dense_forward(fc_out, p["out_w"], p["out_b"], activation="identity")
        return out[:, 0], {"lstm": state, "fc": fc_cache, "out": out_cache}

    def backward(self, cache: dict, grad_pred: np.ndarray) -> FlatParams:
        """Parameter gradients, in the layout of ``params``."""
        grads = FlatParams(self.params.shapes)
        grad_out = grad_pred[:, None]
        grad_fc, grads["out_w"], grads["out_b"] = dense_backward(grad_out, cache["out"])
        grad_h, grads["fc_w"], grads["fc_b"] = dense_backward(grad_fc, cache["fc"])
        return lstm_sequence_backward(
            grad_h, cache["lstm"], self.params, grads, self._backward_space
        )
