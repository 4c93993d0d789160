"""One parameter buffer per network: its views, the one-array Adam step,
training that stays bit-exact, and model files written before the
buffer existed."""

import hashlib
import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from solarcast import DataValidationError, generate_synthetic, load_nn_models, save_nn_models, split
from solarcast.nn import (
    Adam,
    CnnNetwork,
    ConvSpec,
    FlatParams,
    LstmNetwork,
    LstmSpec,
    dense_backward,
    dense_forward,
    lstm_sequence_backward,
    lstm_sequence_forward,
    train_cnn,
    train_lstm,
)
from solarcast.nn.lstm import GATE_PARAMS, _stacked
from solarcast.nn.training import build_windows, mse_loss
from solarcast.series import DaylightWindow, fit_scaler, standardize

DATA = Path(__file__).parent / "data"


def digest(*arrays) -> str:
    """First 16 hex digits of the SHA-256 of every value's ``float.hex``."""
    text = " ".join(float(v).hex() for a in arrays for v in np.asarray(a).reshape(-1))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def train_30d():
    return split(generate_synthetic(30, "mixed", seed=7), 0.70)[0]


# Loss curves and parameter digests of 2-epoch, h=1, seed-7 fits on
# ``synth --days 30 --regime mixed --seed 7``, recorded with per-name
# parameter arrays and a per-name Adam step (commit ccc9028).
RECORDED = {
    "cnn": (
        ["0x1.b046520e2f3cep-6", "0x1.7d331c0126e10p-6"],
        {
            "conv_b": "9dc685c92ab5558b", "conv_w": "d2f43820b6a6f8cd",
            "fc1_b": "cae423f8767748f8", "fc1_w": "d39cfe5c70daa820",
            "fc2_b": "ef019d9f32370df6", "fc2_w": "f766c44ad65e95ac",
            "out_b": "5a091b5e6fb6400f", "out_w": "b068c5010f8c8a7a",
        },
    ),
    "lstm": (
        ["0x1.e37a1ad978c8ep-1", "0x1.b616c74d7a4fdp-3"],
        {
            "b_c": "19f405127eea8a28", "b_f": "e64e8ddce463b33e",
            "b_i": "a7845bdc46466ef6", "b_o": "6cd5868eda1d8598",
            "fc_b": "bd7d47d92355f7a0", "fc_w": "8d8d3040210ce219",
            "out_b": "9229a3e2f034f26e", "out_w": "869181bddd072ffb",
            "w_c": "ac6a04a154dacd8d", "w_f": "c53f7a8d0641f2a3",
            "w_i": "2374ada51ebf08c8", "w_o": "ecae8eacc301ffb0",
        },
    ),
}

# The same digest over the kernels training runs (tanh, the step and
# dense products, the convolution's einsum, a row sum) on the machine
# that recorded the values above. numpy and BLAS round some of these
# differently on other CPUs; there the recorded values do not apply and
# TestPerNameReference still checks the arithmetic.
RECORDING_KERNELS = "52ba67ac6aedfc05"


def kernel_digest() -> str:
    rng = np.random.default_rng(0)
    w, concat = rng.standard_normal((128, 33)), rng.standard_normal((33, 256))
    d = rng.standard_normal((128, 256))
    x, y = rng.standard_normal((256, 3, 1)), rng.standard_normal((256, 3, 16))
    return digest(np.tanh(d), w @ concat, d @ concat.T, w.T @ d, concat.T @ w.T[:, :8],
                  np.einsum("blc,blo->co", x, y), d.sum(axis=1))


class TestRecordedTraining:
    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_two_epochs_match_recorded_values(self, train_30d, kind):
        if kernel_digest() != RECORDING_KERNELS:
            pytest.skip("this machine's tanh or BLAS rounds unlike the recording machine's")
        trainer, spec = (train_cnn, ConvSpec()) if kind == "cnn" else (train_lstm, LstmSpec())
        model = trainer(train_30d, spec=replace(spec, epochs=2), horizon=1, seed=7)
        losses, params = RECORDED[kind]
        assert [loss.hex() for loss in model.loss_curve] == losses
        assert {name: digest(arr) for name, arr in model.params.items()} == params


def per_name_lstm_training(train, spec: LstmSpec, seed: int):
    """train_lstm's loop with parameters in a buffer of its own and one
    Adam optimizer per name. Returns (loss curve, params)."""
    z = standardize(train, fit_scaler(train))
    windows = build_windows(z, spec.window, 1, DaylightWindow(), differenced=False)
    initial = LstmNetwork(spec, seed=seed).params
    params = FlatParams(initial.shapes, initial)
    rng = np.random.default_rng(seed)
    optimizers = {name: Adam() for name in params}
    curve = []
    for epoch in range(spec.epochs):
        drops = epoch // spec.lr_drop_period
        for optimizer in optimizers.values():
            optimizer.learning_rate = spec.initial_lr * spec.lr_drop_factor**drops
        order = rng.permutation(windows.targets.size)
        total = 0.0
        for start in range(0, order.size, spec.batch_size):
            batch = order[start : start + spec.batch_size]
            h, state = lstm_sequence_forward(windows.inputs[batch], params, spec.units)
            fc, fc_cache = dense_forward(h, params["fc_w"], params["fc_b"], activation="relu")
            out, out_cache = dense_forward(fc, params["out_w"], params["out_b"])
            loss, grad_pred = mse_loss(out[:, 0], windows.targets[batch])
            grad_fc, out_w, out_b = dense_backward(grad_pred[:, None], out_cache)
            grad_h, fc_w, fc_b = dense_backward(grad_fc, fc_cache)
            grads = dict(lstm_sequence_backward(grad_h, state, params))
            grads.update(fc_w=fc_w, fc_b=fc_b, out_w=out_w, out_b=out_b)
            for name, optimizer in optimizers.items():
                optimizer.step(params[name], grads[name])
            total += loss * batch.size
        curve.append(total / order.size)
    return curve, params


class TestPerNameReference:
    def test_lstm_training_equals_the_per_name_loop(self, train_30d):
        spec = LstmSpec(units=8, dense_hidden=4, epochs=2)
        model = train_lstm(train_30d, spec=spec, horizon=1, seed=3)
        curve, params = per_name_lstm_training(train_30d, spec, seed=3)
        assert model.loss_curve == curve
        for name in params:
            assert np.array_equal(model.params[name], params[name]), name


class TestAdamOneArray:
    def test_one_flat_array_equals_the_per_name_update(self):
        rng = np.random.default_rng(5)
        shapes = {"w": (3, 4), "b": (4,), "k": (2, 1, 3)}
        per_name = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        flat = FlatParams(shapes, per_name)
        by_name = {name: Adam(learning_rate=0.05) for name in shapes}
        one_array = Adam(learning_rate=0.05)
        for step in range(6):
            if step == 3:
                for optimizer in (*by_name.values(), one_array):
                    optimizer.learning_rate = 0.005
            grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            for name, optimizer in by_name.items():
                optimizer.step(per_name[name], grads[name])
            one_array.step(flat.flat, FlatParams(shapes, grads).flat)
        for name in shapes:
            assert np.array_equal(flat[name], per_name[name]), name


@pytest.fixture(params=["cnn", "lstm"])
def network(request):
    """A small network whose ReLU units all pass gradient."""
    if request.param == "cnn":
        network = CnnNetwork(ConvSpec(kernel_count=3, fc1_units=4, fc2_units=3), seed=1)
    else:
        network = LstmNetwork(LstmSpec(units=3, dense_hidden=2), seed=1)
    for name in ("conv_b", "fc1_b", "fc2_b", "fc_b"):
        if name in network.params:
            network.params[name] = np.full(network.params[name].shape, 5.0)
    return network


class TestViews:
    def test_params_are_views_of_one_buffer_in_spec_order(self, network):
        params = network.params
        assert list(params) == list(network.spec.param_shapes())
        assert all(arr.base is params.flat for arr in params.values())
        assert np.array_equal(np.concatenate([a.reshape(-1) for a in params.values()]), params.flat)

    def test_gradients_share_the_layout(self, network):
        x = np.random.default_rng(2).standard_normal((5, network.spec.window, 1))
        pred, cache = network.forward_with_cache(x)
        grads = network.backward(cache, np.ones_like(pred))
        assert grads.shapes == network.params.shapes
        assert all(arr.base is grads.flat for arr in grads.values())

    def test_in_place_perturbation_reaches_the_forward_pass(self, network):
        x = np.random.default_rng(3).standard_normal((5, network.spec.window, 1))
        before = network.predict(x)
        for name in network.params:
            flat = network.params[name].reshape(-1)  # as the gradient check perturbs
            original = flat[0]
            flat[0] = original + 0.25
            assert not np.array_equal(network.predict(x), before), name
            flat[0] = original
        assert np.array_equal(network.predict(x), before)

    def test_assignment_copies_into_the_buffer(self, network):
        name = next(iter(network.params))
        view = network.params[name]
        network.params[name] = np.full(view.shape, 0.5)
        assert network.params[name] is view and np.all(view == 0.5)
        with pytest.raises(DataValidationError, match="shape"):
            network.params[name] = np.zeros(view.size + 1)
        with pytest.raises(DataValidationError, match="unknown"):
            network.params["bogus"] = np.zeros(1)
        with pytest.raises(TypeError):
            del network.params[name]

    def test_lstm_gate_blocks_are_views(self):
        params = LstmNetwork(LstmSpec(units=3, dense_hidden=2), seed=1).params
        w, b = _stacked(params, 3, 1)
        assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
        with pytest.raises(DataValidationError, match="FlatParams"):
            _stacked({name: params[name].copy() for name in GATE_PARAMS}, 3, 1)

    def test_span_is_none_unless_the_names_lie_back_to_back(self):
        params = FlatParams({"a": (2,), "b": (3,), "c": (1,)})
        assert params.span(("a", "b")).size == 5 and params.span(("a", "b")).base is params.flat
        for names in [("a", "c"), ("b", "a"), ("a", "z")]:
            assert params.span(names) is None

    def test_pickle_rebuilds_one_buffer(self, network):
        restored = pickle.loads(pickle.dumps(network.params))
        assert isinstance(restored, FlatParams)
        assert np.array_equal(restored.flat, network.params.flat)
        assert all(arr.base is restored.flat for arr in restored.values())

    def test_training_reuses_one_workspace(self):
        network = LstmNetwork(LstmSpec(units=3, dense_hidden=2), seed=1)
        rng = np.random.default_rng(4)
        full, ragged = rng.standard_normal((6, 4, 1)), rng.standard_normal((2, 4, 1))
        _, first = network.forward_with_cache(full)
        network.predict(ragged)  # buffers of its own: the cache stays valid
        network.backward(first, np.ones(6))
        _, second = network.forward_with_cache(ragged)
        assert np.shares_memory(first["lstm"]["gates"], second["lstm"]["gates"])
        with pytest.raises(DataValidationError, match="overwritten"):
            network.backward(first, np.ones(6))
        network.backward(second, np.ones(2))

    def test_missing_values_rejected(self):
        with pytest.raises(DataValidationError, match=r"missing parameters \['b'\]"):
            FlatParams({"w": (2,), "b": (1,)}, {"w": np.zeros(2)})

    def test_values_checked_before_the_buffer_is_allocated(self, tmp_path):
        """A model file's spec may declare far more parameters than the
        file holds: ``dense_hidden=10**40`` raised numpy's "Maximum
        allowed dimension exceeded" ValueError, and a size numpy can
        represent would have been allocated before the shapes were
        compared."""
        with pytest.raises(DataValidationError, match=r"parameter w has shape \(2,\), expected"):
            FlatParams({"w": (10**40,)}, {"w": np.zeros(2)})
        text = (DATA / "lstm.model").read_text(encoding="utf-8")
        path = tmp_path / "lstm.model"
        path.write_text(re.sub(r"dense_hidden=\d+", f"dense_hidden={10**40}", text), encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(path))}: horizon 1: "):
            load_nn_models(path)


class TestModelFilesWrittenBeforeTheBuffer:
    """``cnn.model`` and ``lstm.model`` in tests/data were written with
    per-name parameter arrays (commit ccc9028): small specs, two epochs,
    horizons 1 and 3."""

    @pytest.mark.parametrize("name", ["cnn.model", "lstm.model"])
    def test_load_and_save_back_byte_identical(self, tmp_path, name):
        models = load_nn_models(DATA / name)
        assert sorted(models) == [1, 3]
        for model in models.values():
            assert isinstance(model.params, FlatParams)
            assert model.network().params is model.params  # adopted, not copied
        save_nn_models([models[h] for h in sorted(models)], tmp_path / name)
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()
