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
in each direction. A network keeps its parameters in a ``FlatParams``
laid out in ``GATE_PARAMS`` order, so the stacked matrix and bias are
views of its buffer: an optimizer's in-place update or a gradient
check's perturbation reaches them with no copy, and the gate gradients
accumulate straight into the same blocks of a ``FlatParams`` of
gradients. Parameters held any other way are rejected.

A call keeps the step state of the whole window in a few buffers,
indexed by step and held feature-major, as (steps, features, batch):
``concat[t]`` is [h_{t-1}; x_t] and step t writes h_t straight into
``concat[t + 1]``; ``c[t]`` is c_{t-1}; ``gates[t]`` holds the
activated gates and ``tanh_c[t]`` is tanh(c_t). Every intermediate of
a step has a buffer too, so no step allocates an array. The buffers
are new on each call, or carved from a ``Workspace`` that a network
reuses batch after batch. Inference, which never backpropagates, can
keep one step instead of the window: each step overwrites the last.
The public functions take and return (batch, features).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataValidationError
from .flat import FlatParams

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


def gate_shapes(hidden: int, n_in: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of each gate parameter, in ``GATE_PARAMS`` order."""
    return {name: (hidden, hidden + n_in) if name[0] == "w" else (hidden,) for name in GATE_PARAMS}


def _stacked(params: FlatParams, hidden: int, n_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate the gate parameters and return the stacked
    (4 * hidden, hidden + n_in) weight and 4 * hidden bias, views of
    the buffer of ``params``."""
    if not isinstance(params, FlatParams) or params.span(GATE_PARAMS) is None:
        raise DataValidationError("LSTM gates need a FlatParams laid out in GATE_PARAMS order")
    for name, expected in gate_shapes(hidden, n_in).items():
        if params[name].shape != expected:
            raise DataValidationError(
                f"LSTM parameter {name} has shape {params[name].shape}, expected {expected}"
            )
    return params.span(_WEIGHTS).reshape(4 * hidden, hidden + n_in), params.span(_BIASES)


class Workspace:
    """Memory that the sequence functions carve their buffers from,
    reused from call to call: each call overwrites the buffers of the
    previous call given the same workspace. A network keeps one per
    direction, so training allocates its buffers once, not once per
    batch: freed after every batch, glibc hands them back to the OS and
    the next batch faults them in again. On ``fit --model lstm`` over
    100 days (2 vCPUs), buffers new per batch and temporaries new per
    step cost 565k page faults and 1.4 s of system time; with both
    reused, 31k and 0.15 s."""

    def __init__(self):
        self._memory: list[np.ndarray] = []
        self.calls = 0

    def take(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        """One C-contiguous float64 array per shape, the k-th carved
        from the start of memory that every call's k-th array reuses."""
        self.calls += 1
        arrays = []
        for k, shape in enumerate(shapes):
            size = math.prod(shape)
            if k == len(self._memory):
                self._memory.append(np.empty(size))
            elif self._memory[k].size < size:
                self._memory[k] = np.empty(size)
            arrays.append(self._memory[k][:size].reshape(shape))
        return arrays


def _gates(packed: np.ndarray, hidden: int) -> list[np.ndarray]:
    """The f, i, o and c row blocks of a packed (4 * hidden, ...) array."""
    return [packed[k * hidden : (k + 1) * hidden] for k in range(4)]


def _forward(
    x: np.ndarray,
    h0,
    c0,
    w: np.ndarray,
    b: np.ndarray,
    workspace: Workspace | None = None,
    history: bool = True,
) -> dict:
    """Run the cell over x, (steps, n_in, batch), from states h0 and c0
    (arrays of (hidden, batch) or scalars); returns the step state, in
    buffers taken from ``workspace`` (a new one when None). Without
    ``history`` the buffers hold one step, each step overwriting the
    last, so the state has the final h and c but cannot be
    backpropagated."""
    steps, n_in, batch = x.shape
    hidden = b.shape[0] // 4
    workspace = workspace or Workspace()
    kept = steps if history else 1
    concat, c, gates, tanh_c = workspace.take(
        (kept + 1, hidden + n_in, batch),
        (kept + 1, hidden, batch),
        (kept, 4 * hidden, batch),
        (kept, hidden, batch),
    )
    concat[0, :hidden] = h0
    c[0] = c0
    b = b[:, None]
    for t in range(steps):
        s = t % kept  # the buffer slot of step t
        if t and not s:  # one slot: the last step's h and c start this one
            concat[0, :hidden] = concat[1, :hidden]
            c[0] = c[1]
        concat[s, hidden:] = x[t]
        g = gates[s]
        np.matmul(w, concat[s], out=g)
        g += b
        sigmoid(g[: 3 * hidden], out=g[: 3 * hidden])
        np.tanh(g[3 * hidden :], out=g[3 * hidden :])
        f, i, o, cand = _gates(g, hidden)
        np.multiply(f, c[s], out=c[s + 1])
        c[s + 1] += np.multiply(i, cand, out=tanh_c[s])  # scratch until the next line
        np.tanh(c[s + 1], out=tanh_c[s])
        np.multiply(o, tanh_c[s], out=concat[s + 1, :hidden])
    return {
        "concat": concat, "c": c, "gates": gates, "tanh_c": tanh_c,
        "taken": (workspace, workspace.calls if history else None),
    }


def _backward(
    grad_h: np.ndarray,
    grad_c: np.ndarray,
    state: dict,
    params: FlatParams,
    grads: FlatParams,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate (hidden, batch) gradients at the last step's h and
    c to the first step, adding the gate gradients into ``grads``.
    Returns the gradients at the first step's concat and c_prev."""
    space, call = state["taken"]
    if call is None:
        raise DataValidationError("this step state kept only the last step")
    if space.calls != call:
        raise DataValidationError("a later forward call has overwritten this step state")
    concat, c, gates, tanh_c = state["concat"], state["c"], state["gates"], state["tanh_c"]
    hidden = c.shape[1]
    n_in = concat.shape[1] - hidden
    w, _ = _stacked(params, hidden, n_in)
    grad_w, grad_b = _stacked(grads, hidden, n_in)
    # d is the loss gradient at the gate pre-activations; every other
    # intermediate has a buffer too, so no step allocates an array
    batch = gates.shape[2]
    d, grad_concat, grad_w_t, grad_c_total, grad_c_prev, scratch, sig_scratch = (
        workspace or Workspace()
    ).take(
        gates.shape[1:], concat.shape[1:], grad_w.shape,
        (hidden, batch), (hidden, batch), (hidden, batch), (3 * hidden, batch),
    )
    d_f, d_i, d_o, d_cand = _gates(d, hidden)
    for t in reversed(range(gates.shape[0])):
        f, i, o, cand = _gates(gates[t], hidden)
        # grad_c + grad_h * o * (1 - tanh_c²)
        np.multiply(grad_h, o, out=grad_c_total)
        np.subtract(1.0, np.square(tanh_c[t], out=scratch), out=scratch)
        grad_c_total *= scratch
        grad_c_total += grad_c
        np.multiply(grad_c_total, c[t], out=d_f)
        np.multiply(grad_c_total, cand, out=d_i)
        np.multiply(grad_h, tanh_c[t], out=d_o)
        # through the gate nonlinearities
        sig, d_sig = gates[t][: 3 * hidden], d[: 3 * hidden]
        d_sig *= sig
        d_sig *= np.subtract(1.0, sig, out=sig_scratch)
        np.multiply(grad_c_total, i, out=d_cand)
        d_cand *= np.subtract(1.0, np.square(cand, out=scratch), out=scratch)
        grad_w += np.matmul(d, concat[t].T, out=grad_w_t)
        grad_b += d.sum(axis=1)
        np.matmul(w.T, d, out=grad_concat)
        grad_h = grad_concat[:hidden]
        grad_c = np.multiply(grad_c_total, f, out=grad_c_prev)
    return grad_concat, grad_c


def lstm_cell_forward(
    x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, params: FlatParams
) -> tuple[np.ndarray, np.ndarray, dict]:
    """One step. x_t: (batch, n_in); h_prev, c_prev: (batch, hidden).
    Returns (h_t, c_t, cache); the cache also holds the gates by name."""
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    c_prev = np.asarray(c_prev, dtype=np.float64)
    if x_t.ndim != 2 or h_prev.ndim != 2 or c_prev.shape != h_prev.shape:
        raise DataValidationError("lstm cell expects (batch, n_in) input and matching states")
    hidden = h_prev.shape[1]
    w, b = _stacked(params, hidden, x_t.shape[1])
    state = _forward(x_t.T[None], h_prev.T, c_prev.T, w, b)
    cache = dict(zip(("f", "i", "o", "cand"), _gates(state["gates"][0], hidden)), **state)
    return state["concat"][1, :hidden].T, state["c"][1].T, cache


def lstm_cell_backward(
    grad_h: np.ndarray, grad_c: np.ndarray, cache: dict, params: FlatParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, FlatParams]:
    """Backward through one step.

    grad_h / grad_c are the loss gradients flowing into h_t and c_t.
    Returns (grad_x, grad_h_prev, grad_c_prev, param_grads).
    """
    hidden = cache["c"].shape[1]
    grads = FlatParams(gate_shapes(hidden, cache["concat"].shape[1] - hidden))
    grad_concat, grad_c_prev = _backward(grad_h.T, grad_c.T, cache, params, grads)
    return grad_concat[hidden:].T, grad_concat[:hidden].T, grad_c_prev.T, grads


def lstm_sequence_forward(
    x_seq: np.ndarray,
    params: FlatParams,
    hidden: int,
    workspace: Workspace | None = None,
    history: bool = True,
) -> tuple[np.ndarray, dict]:
    """Unroll over x_seq of shape (batch, steps, n_in) from zero
    initial states; returns the final hidden state and the step state.
    Given a ``workspace``, the step state lives in it until the next
    call given the same workspace. Without ``history`` the state keeps
    only the last step, for inference: it cannot be backpropagated."""
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3:
        raise DataValidationError("lstm sequence expects (batch, steps, n_in)")
    w, b = _stacked(params, hidden, x_seq.shape[2])
    state = _forward(x_seq.transpose(1, 2, 0), 0.0, 0.0, w, b, workspace, history)
    return state["concat"][-1, :hidden].T, state


def lstm_sequence_backward(
    grad_h_final: np.ndarray,
    state: dict,
    params: FlatParams,
    grads: FlatParams | None = None,
    workspace: Workspace | None = None,
) -> FlatParams:
    """Backpropagate through time from the final hidden state. The gate
    gradients, summed over all steps, are added into ``grads`` (a
    ``FlatParams`` that holds the gates in ``GATE_PARAMS`` order, such
    as a network's gradients) or into a new one, which is returned.
    Scratch buffers come from ``workspace`` when given."""
    if state["gates"].shape[0] == 0:
        raise DataValidationError("no forward steps to backpropagate through")
    if grads is None:
        hidden = state["c"].shape[1]
        grads = FlatParams(gate_shapes(hidden, state["concat"].shape[1] - hidden))
    grad_h = np.ascontiguousarray(grad_h_final.T)
    _backward(grad_h, np.zeros_like(grad_h), state, params, grads, workspace)
    return grads
