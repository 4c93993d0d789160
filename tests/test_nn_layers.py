"""Layer forward passes against naive oracles; every backward pass
against central finite differences."""

import math

import numpy as np
import pytest

from solarcast import DataValidationError
from solarcast.nn import (
    CnnNetwork,
    ConvSpec,
    LstmNetwork,
    LstmSpec,
    avg_pool_backward,
    avg_pool_forward,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    finite_difference_gradients,
    lstm_cell_backward,
    lstm_cell_forward,
    lstm_sequence_backward,
    lstm_sequence_forward,
    max_relative_error,
    relu,
)
from solarcast.nn.flat import FlatParams
from solarcast.nn.lstm import GATE_PARAMS, Workspace, gate_shapes, sigmoid
from solarcast.nn.training import mse_loss

GRAD_TOL = 1e-4
GRAD_FLOOR = 1e-6


def loop_conv1d(x, w, b):
    batch, length, in_ch = x.shape
    kernel, _, out_ch = w.shape
    out = np.zeros((batch, length - kernel + 1, out_ch))
    for bi in range(batch):
        for i in range(length - kernel + 1):
            for o in range(out_ch):
                acc = b[o]
                for j in range(kernel):
                    for c in range(in_ch):
                        acc += x[bi, i + j, c] * w[j, c, o]
                out[bi, i, o] = acc
    return out


def loop_dense(x, w, b):
    batch, n_in = x.shape
    n_out = w.shape[1]
    out = np.zeros((batch, n_out))
    for bi in range(batch):
        for o in range(n_out):
            acc = b[o]
            for i in range(n_in):
                acc += x[bi, i] * w[i, o]
            out[bi, o] = acc
    return out


def loop_avg_pool(x, size):
    batch, length, ch = x.shape
    out = np.zeros((batch, length // size, ch))
    for bi in range(batch):
        for i in range(length // size):
            for c in range(ch):
                out[bi, i, c] = sum(x[bi, i * size + j, c] for j in range(size)) / size
    return out


class TestRelu:
    def test_values(self):
        assert relu(np.array(-3.0)) == 0.0
        assert relu(np.array(5.0)) == 5.0
        assert relu(np.array(0.0)) == 0.0


class TestConv1d:
    def test_hand_cross_correlation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        w = np.array([1.0, 0.0]).reshape(2, 1, 1)
        out, _ = conv1d_forward(x, w, np.zeros(1), activation="identity")
        assert np.array_equal(out[0, :, 0], [1.0, 2.0, 3.0])

    def test_zero_kernel_gives_bias(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        w = np.zeros((2, 1, 1))
        out, _ = conv1d_forward(x, w, np.array([2.5]), activation="identity")
        assert np.all(out == 2.5)
        out_neg, _ = conv1d_forward(x, w, np.array([-2.5]), activation="relu")
        assert np.all(out_neg == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 7, 2))
        w = rng.standard_normal((2, 2, 4))
        b = rng.standard_normal(4)
        out, _ = conv1d_forward(x, w, b, activation="identity")
        assert np.abs(out - loop_conv1d(x, w, b)).max() < 1e-12

    def test_kernel_longer_than_input(self):
        with pytest.raises(DataValidationError, match="kernel"):
            conv1d_forward(np.zeros((1, 2, 1)), np.zeros((3, 1, 1)), np.zeros(1))

    @pytest.mark.parametrize("x, w, b, activation, message", [
        (np.zeros((1, 4)), np.zeros((2, 1, 1)), np.zeros(1), "relu",
         "^conv1d expects rank-3 input and weights$"),
        (np.zeros((1, 4, 2)), np.zeros((2, 1, 1)), np.zeros(1), "relu",
         r"^conv1d shape mismatch: input channels 2, weights \(2, 1, 1\), bias \(1,\)$"),
        (np.zeros((1, 4, 1)), np.zeros((2, 1, 3)), np.zeros(2), "relu",
         r"^conv1d shape mismatch: input channels 1, weights \(2, 1, 3\), bias \(2,\)$"),
        (np.zeros((1, 4, 1)), np.zeros((2, 1, 1)), np.zeros(1), "tanh",
         r"^unknown activation 'tanh', expected one of \('identity', 'relu'\)$"),
    ], ids=["rank", "channels", "bias", "activation"])
    def test_refusals(self, x, w, b, activation, message):
        with pytest.raises(DataValidationError, match=message):
            conv1d_forward(x, w, b, activation=activation)

    def test_output_length_arithmetic(self):
        # 4-sample window, kernel 2: conv output length 3
        out, _ = conv1d_forward(np.zeros((5, 4, 1)), np.zeros((2, 1, 16)), np.zeros(16))
        assert out.shape == (5, 3, 16)


class TestAvgPool:
    def test_size_one_is_identity(self):
        x = np.random.default_rng(2).standard_normal((2, 3, 4))
        out, _ = avg_pool_forward(x, 1)
        assert np.array_equal(out, x)

    def test_hand_windows(self):
        x = np.array([2.0, 4.0, 6.0, 8.0]).reshape(1, 4, 1)
        out, _ = avg_pool_forward(x, 2)
        assert np.array_equal(out[0, :, 0], [3.0, 7.0])

    def test_matches_loop_oracle(self):
        x = np.random.default_rng(3).standard_normal((2, 6, 3))
        out, _ = avg_pool_forward(x, 2)
        assert np.abs(out - loop_avg_pool(x, 2)).max() < 1e-12

    def test_indivisible_length(self):
        with pytest.raises(DataValidationError, match="divisible"):
            avg_pool_forward(np.zeros((1, 5, 1)), 2)

    @pytest.mark.parametrize("shape, size, message", [
        ((1, 4), 2, "^avg_pool expects a rank-3 input$"),
        ((1, 4, 1), 0, "^pool size must be >= 1, got 0$"),
    ], ids=["rank", "size"])
    def test_refusals(self, shape, size, message):
        with pytest.raises(DataValidationError, match=message):
            avg_pool_forward(np.zeros(shape), size)


class TestDense:
    def test_identity_weights(self):
        x = np.random.default_rng(4).standard_normal((3, 5))
        out, _ = dense_forward(x, np.eye(5), np.zeros(5))
        assert np.array_equal(out, x)

    def test_zero_weights_gives_bias(self):
        x = np.ones((2, 3))
        out, _ = dense_forward(x, np.zeros((3, 4)), np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(out, np.tile([1.0, 2.0, 3.0, 4.0], (2, 1)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 3))
        b = rng.standard_normal(3)
        out, _ = dense_forward(x, w, b)
        assert np.abs(out - loop_dense(x, w, b)).max() < 1e-12

    @pytest.mark.parametrize("x, w, b, message", [
        ((2, 3), (4, 1), (1,), r"^dense shape mismatch: input \(2, 3\) vs weights \(4, 1\)$"),
        ((3,), (3, 1), (1,), r"^dense shape mismatch: input \(3,\) vs weights \(3, 1\)$"),
        ((2, 3), (3,), (1,), r"^dense shape mismatch: input \(2, 3\) vs weights \(3,\)$"),
        ((2, 3), (3, 2), (3,), r"^dense bias shape \(3,\) mismatches \(3, 2\)$"),
    ], ids=["features", "input-rank", "weight-rank", "bias"])
    def test_refusals(self, x, w, b, message):
        with pytest.raises(DataValidationError, match=message):
            dense_forward(np.zeros(x), np.zeros(w), np.zeros(b))


def split_exp_sigmoid(x):
    """The sign-split exp form of the logistic function, overflow-free
    on either side of zero."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    GRID = np.linspace(-40.0, 40.0, 80_001)

    def test_no_floating_point_error_at_extremes(self):
        x = np.array([-np.inf, -800.0, 800.0, np.inf])
        with np.errstate(all="raise"):
            assert sigmoid(x).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_exactly_half_at_zero(self):
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_symmetry(self):
        # the two sides may differ by one float spacing of [0.5, 1):
        # 2**-53 (1.1e-16)
        gap = np.abs(sigmoid(-self.GRID) - (1.0 - sigmoid(self.GRID)))
        assert gap.max() <= 2.0**-53

    def test_matches_split_exp_form(self):
        # two float spacings of [0.5, 1): 2**-52 (2.2e-16)
        assert np.abs(sigmoid(self.GRID) - split_exp_sigmoid(self.GRID)).max() <= 2.0**-52

    def test_in_place_on_a_view(self):
        x = np.random.default_rng(3).standard_normal((5, 8)) * 10
        expected = sigmoid(x[:, :6])
        block = x[:, :6]
        assert sigmoid(block, out=block) is block
        assert np.array_equal(x[:, :6], expected)


def scalar_lstm_oracle(x, h_prev, c_prev, params):
    """Element-by-element recomputation with math.* scalar ops."""
    hidden = h_prev.shape[1]
    batch = x.shape[0]
    concat = [[*h_prev[b], *x[b]] for b in range(batch)]

    def gate(w, bias, b, u, squash):
        acc = bias[u]
        for j, v in enumerate(concat[b]):
            acc += w[u, j] * v
        return squash(acc)

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h_out = np.zeros_like(h_prev)
    c_out = np.zeros_like(c_prev)
    for b in range(batch):
        for u in range(hidden):
            f = gate(params["w_f"], params["b_f"], b, u, sig)
            i = gate(params["w_i"], params["b_i"], b, u, sig)
            o = gate(params["w_o"], params["b_o"], b, u, sig)
            cand = gate(params["w_c"], params["b_c"], b, u, math.tanh)
            c = f * c_prev[b, u] + i * cand
            c_out[b, u] = c
            h_out[b, u] = o * math.tanh(c)
    return h_out, c_out


def small_lstm_params(rng, hidden=3, n_in=2, scale=0.5):
    params = FlatParams(gate_shapes(hidden, n_in))
    for name, arr in params.items():
        params[name] = rng.uniform(-scale, scale, size=arr.shape)
    return params


class TestLstmCell:
    def test_all_zero_parameters(self):
        hidden, batch = 4, 2
        params = FlatParams(gate_shapes(hidden, 1))
        x = np.ones((batch, 1))
        h_prev = np.full((batch, hidden), 0.3)
        c_prev = np.full((batch, hidden), 0.8)
        h, c, cache = lstm_cell_forward(x, h_prev, c_prev, params)
        assert np.allclose(cache["f"], 0.5) and np.allclose(cache["i"], 0.5)
        assert np.allclose(cache["o"], 0.5) and np.allclose(cache["cand"], 0.0)
        assert np.allclose(c, 0.5 * 0.8)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * 0.8))

    def test_saturated_forget_gate_keeps_cell(self):
        hidden = 3
        params = FlatParams(gate_shapes(hidden, 1))
        params["b_f"] = np.full(hidden, 50.0)
        c_prev = np.array([[0.7, -0.4, 1.2]])
        _, c, _ = lstm_cell_forward(np.zeros((1, 1)), np.zeros((1, hidden)), c_prev, params)
        assert np.abs(c - c_prev).max() < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        params = small_lstm_params(rng)
        x = rng.standard_normal((2, 2))
        h_prev = rng.standard_normal((2, 3))
        c_prev = rng.standard_normal((2, 3))
        h, c, _ = lstm_cell_forward(x, h_prev, c_prev, params)
        h_ref, c_ref = scalar_lstm_oracle(x, h_prev, c_prev, params)
        assert np.abs(h - h_ref).max() < 1e-12
        assert np.abs(c - c_ref).max() < 1e-12

    def test_gates_in_unit_interval_and_states_finite(self):
        rng = np.random.default_rng(7)
        params = small_lstm_params(rng, hidden=4, n_in=1, scale=1.0)
        h = np.zeros((1, 4))
        c = np.zeros((1, 4))
        for _ in range(10_000):
            x = rng.uniform(-1, 1, size=(1, 1))
            h, c, cache = lstm_cell_forward(x, h, c, params)
            for gate_name in ("f", "i", "o"):
                gate = cache[gate_name]
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(c))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        params = small_lstm_params(rng)
        with pytest.raises(DataValidationError):
            lstm_cell_forward(np.zeros((2, 5)), np.zeros((2, 3)), np.zeros((2, 3)), params)
        states = "^lstm cell expects \\(batch, n_in\\) input and matching states$"
        for x, h, c in [((2,), (2, 3), (2, 3)), ((2, 2), (3,), (3,)), ((2, 2), (2, 3), (2, 4))]:
            with pytest.raises(DataValidationError, match=states):
                lstm_cell_forward(np.zeros(x), np.zeros(h), np.zeros(c), params)
        with pytest.raises(DataValidationError, match="^lstm sequence expects"):
            lstm_sequence_forward(np.zeros((2, 4)), params, 3)

    def test_backward_needs_a_step(self):
        params = small_lstm_params(np.random.default_rng(8), n_in=1)
        h_final, state = lstm_sequence_forward(np.zeros((2, 0, 1)), params, 3)
        assert np.array_equal(h_final, np.zeros((2, 3)))
        with pytest.raises(DataValidationError, match="^no forward steps to backpropagate"):
            lstm_sequence_backward(np.ones((2, 3)), state, params)

    def test_workspace_grows_a_buffer_for_a_larger_shape(self):
        workspace = Workspace()
        small, = workspace.take((2, 3))
        large, = workspace.take((4, 3))
        assert large.shape == (4, 3) and not np.shares_memory(small, large)
        again, = workspace.take((2, 3))  # a smaller shape reuses the larger buffer
        assert np.shares_memory(again, large) and workspace.calls == 3

    def test_sequence_helpers_equal_a_loop_over_the_cell(self):
        rng = np.random.default_rng(9)
        hidden = 3
        params = small_lstm_params(rng, hidden=hidden, n_in=1)
        x_seq = rng.standard_normal((5, 4, 1))
        grad_h_final = rng.standard_normal((5, hidden))

        h = c = np.zeros((5, hidden))
        caches = []
        for t in range(4):
            h, c, cache = lstm_cell_forward(x_seq[:, t, :], h, c, params)
            caches.append(cache)
        grads = {name: np.zeros_like(params[name]) for name in GATE_PARAMS}
        grad_h, grad_c = grad_h_final, np.zeros_like(grad_h_final)
        for cache in reversed(caches):
            _, grad_h, grad_c, step = lstm_cell_backward(grad_h, grad_c, cache, params)
            for name in GATE_PARAMS:
                grads[name] += step[name]

        h_seq, seq_caches = lstm_sequence_forward(x_seq, params, hidden)
        assert np.array_equal(h_seq, h)
        seq_grads = lstm_sequence_backward(grad_h_final, seq_caches, params)
        for name in GATE_PARAMS:
            assert np.array_equal(seq_grads[name], grads[name]), name

    def test_last_step_only_unroll_matches_the_full_one(self):
        """Inference keeps one slot of each state buffer, updated in
        place; its final h and c are the full unroll's, bit for bit, and
        it cannot be backpropagated."""
        rng = np.random.default_rng(11)
        params = small_lstm_params(rng, hidden=3, n_in=1)
        space = Workspace()
        for batch in (6, 2):  # the second call reuses the first one's memory
            x_seq = rng.standard_normal((batch, 5, 1))
            h_full, full = lstm_sequence_forward(x_seq, params, 3)
            h_last, last = lstm_sequence_forward(x_seq, params, 3, space, history=False)
            assert last["gates"].shape[0] == last["concat"].shape[0] == last["c"].shape[0] == 1
            assert np.array_equal(h_last, h_full)
            assert np.array_equal(last["c"][-1], full["c"][-1])
        with pytest.raises(DataValidationError, match="only the last step"):
            lstm_sequence_backward(np.ones((2, 3)), last, params)

    def test_sequence_sees_in_place_parameter_updates(self):
        rng = np.random.default_rng(10)
        params = small_lstm_params(rng, hidden=3, n_in=1)
        x_seq = rng.standard_normal((2, 4, 1))
        before, _ = lstm_sequence_forward(x_seq, params, 3)
        params["w_o"] *= 0.5  # as an optimizer step does
        after, _ = lstm_sequence_forward(x_seq, params, 3)
        assert not np.array_equal(before, after)


def reference_backward(grad_h, grad_c, state, params):
    """BPTT over a copy of a forward state, one new array per
    intermediate, in the order of the operations of a backward with a
    buffer of its own for each: returns the parameter gradients by
    name, each step's gate gradients, and the gradients at the first
    step's concat and c_prev, all (features, batch)."""
    concat, c, gates, tanh_c = (state[key].copy() for key in ("concat", "c", "gates", "tanh_c"))
    hidden = c.shape[1]
    w = np.concatenate([params[name] for name in GATE_PARAMS[:4]])
    grad_w, grad_b = np.zeros(w.shape), np.zeros(4 * hidden)
    steps = [None] * gates.shape[0]
    for t in reversed(range(gates.shape[0])):
        f, i, o, cand = (gates[t][k * hidden : (k + 1) * hidden] for k in range(4))
        grad_c_total = grad_h * o * (1.0 - np.square(tanh_c[t])) + grad_c
        d_f = grad_c_total * c[t] * f * (1.0 - f)
        d_i = grad_c_total * cand * i * (1.0 - i)
        d_o = grad_h * tanh_c[t] * o * (1.0 - o)
        d_cand = grad_c_total * i * (1.0 - np.square(cand))
        steps[t] = d = np.concatenate([d_f, d_i, d_o, d_cand])
        grad_w += d @ concat[t].T
        grad_b += d.sum(axis=1)
        grad_concat = w.T @ d
        grad_h, grad_c = grad_concat[:hidden], grad_c_total * f
    grads = dict(zip(GATE_PARAMS, [*np.split(grad_w, 4), *np.split(grad_b, 4)]))
    return grads, steps, grad_concat, grad_c


class TestBackpropagationInPlace:
    """Backpropagation writes each step's gradients into that step's
    forward buffers and consumes the state."""

    @pytest.mark.parametrize(
        "hidden, n_in, batch, steps",
        [(3, 1, 5, 4), (4, 3, 1, 2), (2, 2, 7, 1), (5, 2, 3, 6), (32, 1, 256, 4)],
    )
    def test_bit_for_bit_a_plain_reference(self, hidden, n_in, batch, steps):
        """Every gradient equals, bit for bit, the reference's, which
        keeps each intermediate in an array of its own."""
        rng = np.random.default_rng(hidden * 100 + batch)
        params = small_lstm_params(rng, hidden=hidden, n_in=n_in)
        grad_h_final = rng.standard_normal((batch, hidden))
        _, state = lstm_sequence_forward(rng.standard_normal((batch, steps, n_in)), params, hidden)
        grad_h = np.ascontiguousarray(grad_h_final.T)
        expected, gates, grad_concat, grad_c = reference_backward(
            grad_h, np.zeros_like(grad_h), state, params
        )
        grads = lstm_sequence_backward(grad_h_final, state, params)
        for name in GATE_PARAMS:
            assert np.array_equal(grads[name], expected[name]), name
        for t in range(steps):
            assert np.array_equal(state["gates"][t], gates[t]), t
        assert np.array_equal(state["concat"][0], grad_concat)
        assert np.array_equal(state["c"][0], grad_c)

    def test_cell_bit_for_bit_a_plain_reference(self):
        """From nonzero states and a nonzero gradient at c_t; the
        returned input gradients are views of the cache's buffers."""
        rng = np.random.default_rng(12)
        hidden, n_in, batch = 4, 2, 3
        params = small_lstm_params(rng, hidden=hidden, n_in=n_in)
        x, h_prev, c_prev = (rng.standard_normal((batch, n)) for n in (n_in, hidden, hidden))
        grad_h, grad_c = rng.standard_normal((2, batch, hidden))
        _, _, cache = lstm_cell_forward(x, h_prev, c_prev, params)
        expected, _, grad_concat, grad_c_prev = reference_backward(
            grad_h.T, grad_c.T, cache, params
        )
        grad_x, grad_h_prev, grad_c_out, grads = lstm_cell_backward(grad_h, grad_c, cache, params)
        for name in GATE_PARAMS:
            assert np.array_equal(grads[name], expected[name]), name
        assert np.array_equal(grad_x, grad_concat[hidden:].T)
        assert np.array_equal(grad_h_prev, grad_concat[:hidden].T)
        assert np.array_equal(grad_c_out, grad_c_prev.T)
        for returned in (grad_x, grad_h_prev):
            assert np.shares_memory(returned, cache["concat"])
        assert np.shares_memory(grad_c_out, cache["c"])

    def test_a_consumed_state_is_refused(self):
        """A second backward over the same state would read gradients as
        activations; each entry point refuses it instead."""
        consumed = "^this step state was consumed by a backward pass$"
        rng = np.random.default_rng(13)
        params = small_lstm_params(rng, hidden=3, n_in=1)
        grad_h = rng.standard_normal((2, 3))
        _, state = lstm_sequence_forward(rng.standard_normal((2, 4, 1)), params, 3)
        lstm_sequence_backward(grad_h, state, params)
        with pytest.raises(DataValidationError, match=consumed):
            lstm_sequence_backward(grad_h, state, params)

        h_prev, c_prev = rng.standard_normal((2, 2, 3))
        _, _, cache = lstm_cell_forward(rng.standard_normal((2, 1)), h_prev, c_prev, params)
        lstm_cell_backward(grad_h, grad_h, cache, params)
        with pytest.raises(DataValidationError, match=consumed):
            lstm_cell_backward(grad_h, grad_h, cache, params)

        network = LstmNetwork(LstmSpec(units=3, dense_hidden=2), seed=1)
        _, cache = network.forward_with_cache(rng.standard_normal((2, 4, 1)))
        network.backward(cache, np.ones(2))
        with pytest.raises(DataValidationError, match=consumed):
            network.backward(cache, np.ones(2))


def check_gradients(loss_fn, params, analytic, tol=GRAD_TOL):
    numeric = finite_difference_gradients(loss_fn, params)
    err = max_relative_error(analytic, numeric, floor=GRAD_FLOOR)
    assert err < tol, f"gradient mismatch: max relative error {err:.3e}"


# ReLU is non-differentiable at 0; central differences straddle the
# kink when a pre-activation sits within the step, so gradient-check
# cases must keep a safety margin from it.
KINK_MARGIN = 5e-4


def cnn_kink_margin(cache) -> float:
    return min(float(np.abs(cache[layer]["pre"]).min()) for layer in ("conv", "fc1", "fc2"))


def make_kink_free_cnn_case(seed: int, spec: ConvSpec, batch: int = 6):
    """A CNN, input and target whose ReLU pre-activations all stay
    clear of zero: random biases, resampled seed if needed."""
    for attempt in range(50):
        s = seed + 1000 * attempt
        rng = np.random.default_rng(s)
        network = CnnNetwork(spec=spec, seed=s)
        for name in ("conv_b", "fc1_b", "fc2_b", "out_b"):
            network.params[name] = rng.standard_normal(network.params[name].shape) * 0.3
        x = rng.standard_normal((batch, spec.window, 1))
        y = rng.standard_normal(batch)
        _, cache = network.forward_with_cache(x)
        if cnn_kink_margin(cache) > KINK_MARGIN:
            return network, x, y
    raise AssertionError("no kink-free CNN configuration found")


def make_kink_free_lstm_case(seed: int, spec: LstmSpec, batch: int = 5):
    """LSTM gates are smooth; only the dense head's ReLU needs the
    kink margin."""
    for attempt in range(50):
        s = seed + 1000 * attempt
        rng = np.random.default_rng(s)
        network = LstmNetwork(spec=spec, seed=s)
        for name in ("fc_b", "out_b"):
            network.params[name] = rng.standard_normal(network.params[name].shape) * 0.3
        x = rng.standard_normal((batch, spec.window, 1))
        y = rng.standard_normal(batch)
        _, cache = network.forward_with_cache(x)
        if float(np.abs(cache["fc"]["pre"]).min()) > KINK_MARGIN:
            return network, x, y
    raise AssertionError("no kink-free LSTM configuration found")


class TestLayerGradients:
    def test_conv1d_gradients(self):
        rng = np.random.default_rng(10)
        for activation in ("identity", "relu"):
            x = rng.standard_normal((4, 6, 2))
            params = {"w": rng.standard_normal((3, 2, 3)), "b": rng.standard_normal(3)}
            target = rng.standard_normal((4, 4, 3))

            def loss():
                out, _ = conv1d_forward(x, params["w"], params["b"], activation)
                return float(np.mean((out - target) ** 2))

            out, cache = conv1d_forward(x, params["w"], params["b"], activation)
            grad_out = 2.0 * (out - target) / target.size
            _, grad_w, grad_b = conv1d_backward(grad_out, cache)
            check_gradients(loss, params, {"w": grad_w, "b": grad_b})

    def test_conv1d_input_gradient(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((2, 1, 3))
        b = rng.standard_normal(3)
        params = {"x": rng.standard_normal((2, 5, 1))}
        target = rng.standard_normal((2, 4, 3))

        def loss():
            out, _ = conv1d_forward(params["x"], w, b, "relu")
            return float(np.mean((out - target) ** 2))

        out, cache = conv1d_forward(params["x"], w, b, "relu")
        grad_out = 2.0 * (out - target) / target.size
        grad_x, _, _ = conv1d_backward(grad_out, cache)
        check_gradients(loss, params, {"x": grad_x})

    def test_dense_gradients(self):
        rng = np.random.default_rng(12)
        for activation in ("identity", "relu"):
            x = rng.standard_normal((5, 4))
            params = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)}
            target = rng.standard_normal((5, 3))

            def loss():
                out, _ = dense_forward(x, params["w"], params["b"], activation)
                return float(np.mean((out - target) ** 2))

            out, cache = dense_forward(x, params["w"], params["b"], activation)
            grad_out = 2.0 * (out - target) / target.size
            _, grad_w, grad_b = dense_backward(grad_out, cache)
            check_gradients(loss, params, {"w": grad_w, "b": grad_b})

    def test_avg_pool_gradient(self):
        rng = np.random.default_rng(13)
        params = {"x": rng.standard_normal((2, 6, 2))}
        target = rng.standard_normal((2, 3, 2))

        def loss():
            out, _ = avg_pool_forward(params["x"], 2)
            return float(np.mean((out - target) ** 2))

        out, cache = avg_pool_forward(params["x"], 2)
        grad_out = 2.0 * (out - target) / target.size
        grad_x = avg_pool_backward(grad_out, cache)
        check_gradients(loss, params, {"x": grad_x})

    def test_lstm_cell_gradients(self):
        rng = np.random.default_rng(14)
        params = small_lstm_params(rng)
        x = rng.standard_normal((3, 2))
        h_prev = rng.standard_normal((3, 3)) * 0.5
        c_prev = rng.standard_normal((3, 3)) * 0.5
        target = rng.standard_normal((3, 3))

        def loss():
            h, _, _ = lstm_cell_forward(x, h_prev, c_prev, params)
            return float(np.mean((h - target) ** 2))

        h, _, cache = lstm_cell_forward(x, h_prev, c_prev, params)
        grad_h = 2.0 * (h - target) / target.size
        _, _, _, grads = lstm_cell_backward(grad_h, np.zeros_like(grad_h), cache, params)
        check_gradients(loss, params, grads)

    def test_lstm_bptt_gradients_over_window(self):
        rng = np.random.default_rng(15)
        hidden = 3
        params = small_lstm_params(rng, hidden=hidden, n_in=1)
        x_seq = rng.standard_normal((4, 4, 1))  # BPTT over the 4-sample window
        target = rng.standard_normal((4, hidden))

        def loss():
            h, _ = lstm_sequence_forward(x_seq, params, hidden)
            return float(np.mean((h - target) ** 2))

        h, caches = lstm_sequence_forward(x_seq, params, hidden)
        grad_h = 2.0 * (h - target) / target.size
        grads = lstm_sequence_backward(grad_h, caches, params)
        check_gradients(loss, params, grads)

    def test_full_cnn_gradients(self):
        spec = ConvSpec(kernel_count=3, fc1_units=4, fc2_units=3)
        network, x, y = make_kink_free_cnn_case(16, spec)

        def loss():
            return mse_loss(network.predict(x), y)[0]

        pred, cache = network.forward_with_cache(x)
        _, grad_pred = mse_loss(pred, y)
        grads = network.backward(cache, grad_pred)
        check_gradients(loss, network.params, grads)

    def test_full_lstm_gradients(self):
        spec = LstmSpec(units=3, dense_hidden=2)
        network, x, y = make_kink_free_lstm_case(18, spec)

        def loss():
            return mse_loss(network.predict(x), y)[0]

        pred, cache = network.forward_with_cache(x)
        _, grad_pred = mse_loss(pred, y)
        grads = network.backward(cache, grad_pred)
        check_gradients(loss, network.params, grads)

    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(20)
        network = CnnNetwork(spec=ConvSpec(kernel_count=2, fc1_units=3, fc2_units=2), seed=21)
        x = rng.standard_normal((3, 4, 1))
        _, cache = network.forward_with_cache(x)
        grads = network.backward(cache, np.zeros(3))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_relu_blocks_gradient_at_negative_preactivation(self):
        x = np.array([[-5.0]])
        params = {"w": np.array([[1.0]]), "b": np.array([0.0])}
        out, cache = dense_forward(x, params["w"], params["b"], activation="relu")
        assert out[0, 0] == 0.0
        _, grad_w, grad_b = dense_backward(np.array([[1.0]]), cache)
        assert grad_w[0, 0] == 0.0 and grad_b[0] == 0.0
