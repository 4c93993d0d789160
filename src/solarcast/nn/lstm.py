"""LSTM cell and backpropagation through time.

Gate parameters act on the concatenation [h_prev, x_t]:

    f = sigmoid(w_f [h, x] + b_f)      forget gate
    i = sigmoid(w_i [h, x] + b_i)      input gate
    o = sigmoid(w_o [h, x] + b_o)      output gate
    cand = tanh(w_c [h, x] + b_c)      candidate cell state
    c = f * c_prev + i * cand
    h = o * tanh(c)

Weight matrices have shape (hidden, hidden + input); the sequence
helpers unroll the cell over a window and accumulate parameter
gradients across all steps.

Every step runs on the four gates stacked in f, i, o, c order into one
``(4 * hidden, hidden + input)`` matrix and one ``4 * hidden`` bias, as
``torch.nn.LSTM`` stacks its gate weights, so a step is a single matmul
in each direction. The per-gate arrays stay the parameters; they are
packed once per forward or backward call, never kept across calls,
because optimizers and gradient checks change them in place.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataValidationError

GATE_PARAMS = ("w_f", "w_i", "w_o", "w_c", "b_f", "b_i", "b_o", "b_c")
_WEIGHTS, _BIASES = GATE_PARAMS[:4], GATE_PARAMS[4:]


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """σ(x) = ½(1 + tanh(x/2)), which cannot overflow. ``out`` may be
    ``x`` itself."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


# The step functions hold activations feature-major, as (features,
# batch) arrays, so each gate is a contiguous block of rows of the
# packed gates; the public functions take and return (batch, features).


def _pack(params: dict, hidden: int, n_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate the per-gate parameters and stack them into the packed
    (4 * hidden, hidden + n_in) weight and (4 * hidden, 1) bias."""
    for name in GATE_PARAMS:
        if name not in params:
            raise DataValidationError(f"missing LSTM parameter {name!r}")
        expected = (hidden, hidden + n_in) if name.startswith("w") else (hidden,)
        if params[name].shape != expected:
            raise DataValidationError(
                f"LSTM parameter {name} has shape {params[name].shape}, expected {expected}"
            )
    return (
        np.concatenate([params[name] for name in _WEIGHTS]),
        np.concatenate([params[name] for name in _BIASES])[:, None],
    )


def _gates(packed: np.ndarray, hidden: int) -> list[np.ndarray]:
    """The f, i, o and c row blocks of a packed (4 * hidden, ...) array."""
    return [packed[k * hidden : (k + 1) * hidden] for k in range(4)]


def _unpack(grad_w: np.ndarray, grad_b: np.ndarray) -> dict:
    """Split packed gradients back into per-gate arrays."""
    hidden = grad_w.shape[0] // 4
    return dict(zip(GATE_PARAMS, [*_gates(grad_w, hidden), *_gates(grad_b[:, 0], hidden)]))


def _step_forward(
    x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict]:
    hidden = h_prev.shape[0]
    concat = np.concatenate([h_prev, x_t])
    gates = w @ concat
    gates += b
    sigmoid(gates[: 3 * hidden], out=gates[: 3 * hidden])
    np.tanh(gates[3 * hidden :], out=gates[3 * hidden :])
    f, i, o, cand = _gates(gates, hidden)
    c_t = f * c_prev + i * cand
    tanh_c = np.tanh(c_t)
    h_t = o * tanh_c
    cache = {
        "concat": concat,
        "gates": gates,
        "f": f,
        "i": i,
        "o": o,
        "cand": cand,
        "c_prev": c_prev,
        "tanh_c": tanh_c,
    }
    return h_t, c_t, cache


def _step_backward(
    grad_h: np.ndarray, grad_c: np.ndarray, cache: dict, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d, grad_concat, grad_c_prev), where d is the (4 * hidden,
    batch) loss gradient at the gate pre-activations."""
    f, i, o, cand, tanh_c = cache["f"], cache["i"], cache["o"], cache["cand"], cache["tanh_c"]
    hidden = f.shape[0]
    grad_c_total = grad_c + grad_h * o * (1.0 - tanh_c**2)

    d = np.empty_like(cache["gates"])
    d_f, d_i, d_o, d_cand = _gates(d, hidden)
    np.multiply(grad_c_total, cache["c_prev"], out=d_f)
    np.multiply(grad_c_total, cand, out=d_i)
    np.multiply(grad_h, tanh_c, out=d_o)
    # through the gate nonlinearities
    sig, d_sig = cache["gates"][: 3 * hidden], d[: 3 * hidden]
    d_sig *= sig
    d_sig *= 1.0 - sig
    np.multiply(grad_c_total * i, 1.0 - cand**2, out=d_cand)
    return d, w.T @ d, grad_c_total * f


def lstm_cell_forward(
    x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, params: dict
) -> tuple[np.ndarray, np.ndarray, dict]:
    """One step. x_t: (batch, n_in); h_prev, c_prev: (batch, hidden).
    Returns (h_t, c_t, cache)."""
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    c_prev = np.asarray(c_prev, dtype=np.float64)
    if x_t.ndim != 2 or h_prev.ndim != 2 or c_prev.shape != h_prev.shape:
        raise DataValidationError("lstm cell expects (batch, n_in) input and matching states")
    w, b = _pack(params, h_prev.shape[1], x_t.shape[1])
    h_t, c_t, cache = _step_forward(x_t.T, h_prev.T, c_prev.T, w, b)
    return h_t.T, c_t.T, cache


def lstm_cell_backward(
    grad_h: np.ndarray, grad_c: np.ndarray, cache: dict, params: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Backward through one step.

    grad_h / grad_c are the loss gradients flowing into h_t and c_t.
    Returns (grad_x, grad_h_prev, grad_c_prev, param_grads).
    """
    hidden = cache["f"].shape[0]
    w, _ = _pack(params, hidden, cache["concat"].shape[0] - hidden)
    d, grad_concat, grad_c_prev = _step_backward(grad_h.T, grad_c.T, cache, w)
    grads = _unpack(d @ cache["concat"].T, d.sum(axis=1, keepdims=True))
    return grad_concat[hidden:].T, grad_concat[:hidden].T, grad_c_prev.T, grads


def lstm_sequence_forward(
    x_seq: np.ndarray, params: dict, hidden: int
) -> tuple[np.ndarray, list[dict]]:
    """Unroll over x_seq of shape (batch, steps, n_in) from zero
    initial states; returns the final hidden state and per-step caches."""
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3:
        raise DataValidationError("lstm sequence expects (batch, steps, n_in)")
    w, b = _pack(params, hidden, x_seq.shape[2])
    batch = x_seq.shape[0]
    h = np.zeros((hidden, batch))
    c = np.zeros((hidden, batch))
    caches: list[dict] = []
    for x_t in x_seq.transpose(1, 2, 0):
        h, c, cache = _step_forward(x_t, h, c, w, b)
        caches.append(cache)
    return h.T, caches


def lstm_sequence_backward(
    grad_h_final: np.ndarray, caches: list[dict], params: dict
) -> dict:
    """Backpropagate through time from the final hidden state,
    accumulating parameter gradients over all steps."""
    if not caches:
        raise DataValidationError("no forward caches to backpropagate through")
    hidden = caches[0]["f"].shape[0]
    w, b = _pack(params, hidden, caches[0]["concat"].shape[0] - hidden)
    grad_w = np.zeros_like(w)
    grad_b = np.zeros_like(b)
    grad_h = np.ascontiguousarray(grad_h_final.T)
    grad_c = np.zeros_like(grad_h)
    for cache in reversed(caches):
        d, grad_concat, grad_c = _step_backward(grad_h, grad_c, cache, w)
        grad_w += d @ cache["concat"].T
        grad_b += d.sum(axis=1, keepdims=True)
        grad_h = grad_concat[:hidden]
    return _unpack(grad_w, grad_b)
