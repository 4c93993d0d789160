"""Adam, the training loops, persistence, and forecast post-processing."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from solarcast import (
    DataValidationError,
    NumericalError,
    UsageError,
    fit_all_horizons,
    forecast,
    generate_synthetic,
    load_nn_models,
    save_nn_models,
    split,
)
from solarcast.model_io import load_model
from solarcast.nn import Adam, ConvSpec, LstmSpec, nn_forecast, train_cnn, train_lstm
from solarcast.nn import training
from solarcast.nn.adam import EPSILON
from solarcast.nn.flat import FlatParams
from solarcast.nn.networks import SPECS, CnnNetwork, LstmNetwork
from solarcast.nn.training import NeuralModel, build_windows, loss_curve_csv, mse_loss, _train
from solarcast.series import (
    DaylightWindow,
    IrradianceSeries,
    Scaler,
    fit_scaler,
    inverse_difference,
    standardize,
)


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # closed form at t=1: update = lr * g / (|g| + eps) for scalar g
        lr = 0.05
        for g in (1.0, 250.0, -3.7):
            opt = Adam(learning_rate=lr)
            params = np.array([10.0])
            opt.step(params, np.array([g]))
            update = 10.0 - params[0]
            expected = lr * g / (abs(g) + EPSILON)
            assert update == pytest.approx(expected, rel=1e-12)
            assert abs(update) == pytest.approx(lr, rel=1e-6)

    def test_zero_gradient_leaves_params(self):
        opt = Adam(learning_rate=0.1)
        params = np.array([1.0, -2.0])
        opt.step(params, np.zeros(2))
        assert np.array_equal(params, [1.0, -2.0])

    def test_first_step_scale_invariance(self):
        # gradients g and 2g produce near-equal first-step magnitudes
        opt = Adam(learning_rate=0.01)
        params = np.array([0.0, 0.0])
        opt.step(params, np.array([0.4, 0.8]))
        assert abs(params[0]) == pytest.approx(abs(params[1]), rel=1e-7)

    def test_moment_shapes_track_params(self):
        opt = Adam()
        params = np.zeros((3, 4))
        opt.step(params, np.ones((3, 4)))
        assert opt.m.shape == (3, 4)
        assert opt.v.shape == (3, 4)
        assert opt.t == 1

    def test_deterministic_sequence(self):
        def run():
            opt = Adam(learning_rate=0.02)
            params = np.array([1.0, 2.0])
            for i in range(10):
                opt.step(params, np.array([0.1 * i, -0.05]))
            return params

        assert np.array_equal(run(), run())


@pytest.fixture(scope="module")
def mixed_40d_split():
    series = generate_synthetic(40, "mixed", seed=404)
    return split(series, 0.7)


class TestTrainCnn:
    def test_loss_decreases(self, mixed_40d_split):
        train, _ = mixed_40d_split
        model = train_cnn(train, horizon=1, seed=1)
        assert model.loss_curve[-1] < model.loss_curve[0]
        assert len(model.loss_curve) == ConvSpec().epochs

    def test_deterministic_under_seed(self, mixed_40d_split):
        train, _ = mixed_40d_split
        spec = ConvSpec(epochs=3)
        a = train_cnn(train, spec=spec, horizon=1, seed=7)
        b = train_cnn(train, spec=spec, horizon=1, seed=7)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        c = train_cnn(train, spec=spec, horizon=1, seed=8)
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)

    def test_training_beats_untrained_by_2x(self):
        # clear-regime data: the differenced targets are predictable
        # from recent deltas, so the 2x bar measures the optimizer
        # rather than the irreducible noise of cloud innovations
        train, _ = split(generate_synthetic(40, "clear", seed=11), 0.7)
        spec = ConvSpec()
        daylight = DaylightWindow()
        scaler = fit_scaler(train)
        windows = build_windows(standardize(train, scaler), spec.window, 1, daylight, True)
        untrained = CnnNetwork(spec=spec, seed=11)
        before = mse_loss(untrained.predict(windows.inputs), windows.targets)[0]
        model = train_cnn(train, spec=spec, horizon=1, seed=11, scaler=scaler)
        after = mse_loss(model.network().predict(windows.inputs), windows.targets)[0]
        assert after * 2.0 <= before

    def test_too_few_windows(self):
        short = generate_synthetic(5, "mixed", seed=2)
        with pytest.raises(DataValidationError, match="windows"):
            train_cnn(short, horizon=1)


class TestTrainLstm:
    def test_loss_decreases_and_lr_drops(self, mixed_40d_split):
        train, _ = mixed_40d_split
        spec = LstmSpec(epochs=35)  # crosses one drop period
        model = train_lstm(train, spec=spec, horizon=1, seed=3)
        assert model.loss_curve[-1] < model.loss_curve[0]

    def test_deterministic_under_seed(self, mixed_40d_split):
        train, _ = mixed_40d_split
        spec = LstmSpec(epochs=2)
        a = train_lstm(train, spec=spec, horizon=1, seed=5)
        b = train_lstm(train, spec=spec, horizon=1, seed=5)
        assert a.loss_curve == b.loss_curve
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_training_beats_untrained_by_2x(self, mixed_40d_split):
        train, _ = mixed_40d_split
        spec = LstmSpec(epochs=20)
        daylight = DaylightWindow()
        scaler = fit_scaler(train)
        windows = build_windows(standardize(train, scaler), spec.window, 1, daylight, False)
        from solarcast.nn.networks import LstmNetwork

        untrained = LstmNetwork(spec=spec, seed=13)
        before = mse_loss(untrained.predict(windows.inputs), windows.targets)[0]
        model = train_lstm(train, spec=spec, horizon=1, seed=13, scaler=scaler)
        after = mse_loss(model.network().predict(windows.inputs), windows.targets)[0]
        assert after * 2.0 <= before


class _ExplodingNetwork:
    """Stub whose loss goes non-finite on the second epoch."""

    spec = ConvSpec(learning_rate=0.01, batch_size=4096, epochs=5)

    def __init__(self):
        self.params = FlatParams({"w": (1,)}, {"w": np.array([1.0])})
        self.calls = 0

    def forward_with_cache(self, x):
        self.calls += 1
        value = np.inf if self.calls > 1 else 0.0
        return np.full(x.shape[0], value), None

    def backward(self, cache, grad_pred):
        return FlatParams(self.params.shapes)


class TestDivergenceGuard:
    def test_reports_epoch_index(self):
        windows = build_windows(
            standardize(
                generate_synthetic(3, "mixed", seed=1),
                Scaler(mu=300.0, sigma=200.0),
            ),
            4,
            1,
            DaylightWindow(),
            False,
        )
        network = _ExplodingNetwork()
        with pytest.raises(NumericalError, match="epoch 2"):
            _train(network, windows, seed=0)


class TestWindows:
    def test_cnn_rows_match_mar_policy(self, mixed_40d_split):
        train, test = mixed_40d_split
        mar_model = fit_all_horizons(train)
        mar_report = forecast(mar_model, test, 1)
        nn_model = train_cnn(train, spec=ConvSpec(epochs=1), horizon=1, seed=1)
        nn_report = nn_forecast(nn_model, test)
        assert len(nn_report) == len(mar_report)
        assert (nn_report.start, nn_report.step) == (mar_report.start, mar_report.step)
        assert np.array_equal(nn_report.sample_index, mar_report.sample_index)

    def test_differenced_targets_are_cumulative_changes(self):
        z = standardize(generate_synthetic(2, "cloudy", seed=9), Scaler(mu=300.0, sigma=250.0))
        windows = build_windows(z, 4, 3, DaylightWindow(), differenced=True)
        days = z.day_matrix()
        for row in range(0, len(windows.targets), 17):
            flat = int(windows.sample_index[row])
            d, t = divmod(flat, z.samples_per_day)
            base = t - 3 + 1
            assert windows.targets[row] == days[d, t] - days[d, base - 1]
            assert windows.anchors[row] == days[d, base - 1]

    def test_lstm_windows_are_plain_lags(self):
        z = standardize(generate_synthetic(2, "cloudy", seed=9), Scaler(mu=300.0, sigma=250.0))
        windows = build_windows(z, 4, 1, DaylightWindow(), differenced=False)
        days = z.day_matrix()
        flat = int(windows.sample_index[0])
        d, t = divmod(flat, z.samples_per_day)
        assert np.array_equal(windows.inputs[0, :, 0], days[d, t - 4 : t])


class TestNnForecast:
    def test_cnn_zero_delta_predicts_persistence(self, mixed_40d_split):
        train, test = mixed_40d_split
        model = train_cnn(train, spec=ConvSpec(epochs=1), horizon=1, seed=1)
        # zero the output layer: the network predicts zero change
        model.params["out_w"] = np.zeros_like(model.params["out_w"])
        model.params["out_b"] = np.zeros_like(model.params["out_b"])
        report = nn_forecast(model, test)
        z = standardize(test, model.scaler)
        windows = build_windows(z, model.spec.window, 1, model.daylight, differenced=True)
        persisted = np.clip(
            windows.anchors * model.scaler.sigma + model.scaler.mu, 0.0, None
        )
        assert np.abs(report.predicted - persisted).max() < 1e-9

    def test_purity(self, mixed_40d_split):
        train, test = mixed_40d_split
        model = train_cnn(train, spec=ConvSpec(epochs=2), horizon=1, seed=1)
        a = nn_forecast(model, test)
        b = nn_forecast(model, test)
        assert np.array_equal(a.predicted, b.predicted)

    def test_never_negative(self, mixed_40d_split):
        train, test = mixed_40d_split
        model = train_lstm(train, spec=LstmSpec(epochs=2), horizon=1, seed=1)
        assert nn_forecast(model, test).predicted.min() >= 0.0

    def test_horizon_mismatch(self, mixed_40d_split, tmp_path):
        """A file of horizon-3 networks has none for horizon 1; loading it
        for that horizon is a usage error, before any forecast."""
        train, _ = mixed_40d_split
        model = train_cnn(train, spec=ConvSpec(epochs=1), horizon=3, seed=1)
        path = tmp_path / "cnn.model"
        save_nn_models([model], path)
        with pytest.raises(UsageError, match="no network for horizon 1"):
            load_model(path, (1,))


def untrained_model(kind: str, train: IrradianceSeries) -> NeuralModel:
    """A freshly initialised one-step network; forecasting needs no training."""
    spec, network = (ConvSpec(), CnnNetwork) if kind == "cnn" else (LstmSpec(), LstmNetwork)
    return NeuralModel(spec=spec, horizon=1, params=network(spec, seed=3).params,
                       scaler=fit_scaler(train), daylight=DaylightWindow(), step=train.step)


def glorot_oracle(spec: ConvSpec | LstmSpec, seed: int) -> FlatParams:
    """Each family's initial parameters, with every weight's fan-in and
    fan-out written out by hand: Glorot-uniform weights drawn in layout
    order from one seeded generator, zero biases."""
    rng = np.random.default_rng(seed)
    params = FlatParams(spec.param_shapes())
    if isinstance(spec, ConvSpec):
        k, f, fc1, fc2 = spec.kernel_size, spec.kernel_count, spec.fc1_units, spec.fc2_units
        fans = {"conv_w": (k, k * f), "fc1_w": (spec.flat_units, fc1), "fc2_w": (fc1, fc2),
                "out_w": (fc2, 1)}
    else:
        h, dense = spec.units, spec.dense_hidden
        gates = {name: (h + 1, h) for name in ("w_f", "w_i", "w_o", "w_c")}
        fans = {**gates, "fc_w": (h, dense), "out_w": (dense, 1)}
    for name, (fan_in, fan_out) in fans.items():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-limit, limit, size=params.shapes[name])
    return params


class TestForecastRefusals:
    """MAR and the networks forecast through one driver, so they refuse a
    test series alike."""

    @pytest.mark.parametrize("horizon, step, message", [
        (80, 10, "horizon 80: no row to forecast; daylight window 06:00-18:30 is too narrow "
                 "for 4 lags and this horizon"),
        (1, 20, "test series step 20 does not match model step 10"),
    ], ids=["no-row", "step"])
    def test_mar_and_networks_alike(self, mixed_40d_split, horizon, step, message):
        train, test = mixed_40d_split
        test = IrradianceSeries(test.start, test.values[:: step // test.step], step)
        mar = fit_all_horizons(train)
        network = replace(untrained_model("cnn", train), horizon=horizon)
        for call in (lambda: forecast(mar, test, horizon, recursive=True),
                     lambda: nn_forecast(network, test)):
            with pytest.raises(DataValidationError) as refusal:
                call()
            assert str(refusal.value) == message


class TestBlockwiseForecast:
    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_blocks_match_one_batch(self, mixed_40d_split, monkeypatch, kind):
        train, test = mixed_40d_split
        model = untrained_model(kind, train)
        windows = build_windows(standardize(test, model.scaler), model.spec.window, 1,
                                model.daylight, differenced=(kind == "cnn"))
        pred = model.network().predict(windows.inputs)
        if windows.differenced:
            pred = inverse_difference(pred, windows.anchors)
        whole = np.clip(pred * model.scaler.sigma + model.scaler.mu, 0.0, None)

        monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", 7)
        rows = windows.sample_index.size
        assert rows > 100 * 7 and rows % 7  # many blocks, the last one ragged
        report = nn_forecast(model, test)
        assert np.array_equal(report.sample_index, windows.sample_index)
        assert np.array_equal(report.actual, test.values[windows.sample_index])
        np.testing.assert_allclose(report.predicted, whole, rtol=1e-12, atol=0.0)

    def test_lstm_memory_is_one_block_deep(self, mixed_40d_split, monkeypatch):
        train, test = mixed_40d_split
        model = untrained_model("lstm", train)
        one_day = IrradianceSeries(test.start, test.values[: test.samples_per_day], test.step)
        block = build_windows(one_day, model.spec.window, 1, model.daylight, False).targets.size
        monkeypatch.setattr(training, "PREDICT_BLOCK_ROWS", block)
        assert test.n_days >= 8  # the whole test split spans at least 8 blocks

        def traced_peak(series: IrradianceSeries) -> int:
            tracemalloc.start()
            try:
                nn_forecast(model, series)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(test) < 3 * traced_peak(one_day)

    def test_lstm_peak_does_not_grow_with_blocks(self, mixed_40d_split):
        """Past the windows and the forecast, about 85 bytes a row, an
        LSTM forecast holds one step of state for one 512-row block,
        reused block after block: 2 and 16 blocks (14 and 112 days) peak
        at 1.37 and 1.97 MB. Every step of every block would add 7.7 KB
        a row, and each block's whole window of state, 4 MB at once."""
        model = untrained_model("lstm", mixed_40d_split[0])
        rows, peaks = [], []
        for days in (14, 112):
            test = generate_synthetic(days, "mixed", seed=2)
            nn_forecast(model, test)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                rows.append(len(nn_forecast(model, test)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert rows[0] > training.PREDICT_BLOCK_ROWS and rows[1] > 15 * training.PREDICT_BLOCK_ROWS
        assert peaks[1] - peaks[0] < 200 * (rows[1] - rows[0])
        assert peaks[0] < 2_000_000


class TestPersistence:
    def test_round_trip_bit_exact(self, mixed_40d_split, tmp_path):
        train, test = mixed_40d_split
        models = [
            train_cnn(train, spec=ConvSpec(epochs=2), horizon=h, seed=2) for h in (1, 3)
        ]
        path = tmp_path / "cnn.model"
        save_nn_models(models, path)
        loaded = load_nn_models(path)
        assert sorted(loaded) == [1, 3]
        for model in models:
            original = nn_forecast(model, test)
            restored = nn_forecast(loaded[model.horizon], test)
            assert np.array_equal(original.predicted, restored.predicted)

    def test_lstm_round_trip(self, mixed_40d_split, tmp_path):
        train, test = mixed_40d_split
        model = train_lstm(train, spec=LstmSpec(epochs=2), horizon=1, seed=4)
        path = tmp_path / "lstm.model"
        save_nn_models([model], path)
        loaded = load_nn_models(path)[1]
        assert np.array_equal(
            nn_forecast(model, test).predicted, nn_forecast(loaded, test).predicted
        )

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_every_kind_round_trips_to_its_spec_class(self, mixed_40d_split, tmp_path, kind):
        """The ``kind`` record a file is saved with loads back through
        ``SPECS`` to the spec class, and the network, it was saved from."""
        spec = SPECS[kind]()
        model = NeuralModel(spec=spec, horizon=1, params=spec.network(seed=3).params,
                            scaler=fit_scaler(mixed_40d_split[0]), daylight=DaylightWindow(), step=10)
        path = tmp_path / f"{kind}.model"
        save_nn_models([model], path)
        [loaded] = load_nn_models(path).values()
        assert (loaded.kind, type(loaded.spec), loaded.spec) == (kind, SPECS[kind], spec)
        assert type(loaded.network()) is type(model.network())

    @pytest.mark.parametrize("network, spec", [
        (CnnNetwork, ConvSpec()),
        (CnnNetwork, ConvSpec(kernel_count=5, kernel_size=3, window=5, fc1_units=7, fc2_units=2)),
        (LstmNetwork, LstmSpec()),
        (LstmNetwork, LstmSpec(units=3, dense_hidden=2)),
    ])
    def test_spec_param_shapes_match_initial_params(self, network, spec):
        params = network(spec=spec, seed=0).params
        assert {name: arr.shape for name, arr in params.items()} == spec.param_shapes()

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("network, spec", [
        (CnnNetwork, ConvSpec()),
        (CnnNetwork, ConvSpec(kernel_size=3, kernel_count=5, pool_size=2)),
        (LstmNetwork, LstmSpec()),
        (LstmNetwork, LstmSpec(units=7, dense_hidden=3, window=6)),
    ])
    def test_initial_params_are_the_per_family_glorot_draws(self, network, spec, seed):
        assert network(spec=spec, seed=seed).params.flat.tobytes() == \
            glorot_oracle(spec, seed).flat.tobytes()

    @pytest.mark.parametrize("spec, text, message", [
        (ConvSpec, "pool_size=0", "pool_size must be positive"),
        (ConvSpec, "learning_rate=fast", "learning_rate: cannot parse 'fast'"),
        (LstmSpec, "epochs=two", "epochs: cannot parse 'two'"),
        (LstmSpec, "units", "units: cannot parse ''"),
        (ConvSpec, "epochs=-1", "^CNN spec field epochs must be positive$"),
        (LstmSpec, "units=0", "^LSTM spec field units must be positive$"),
        # not finite: NaN compares false with 0, inf is not a usable value
        (ConvSpec, "learning_rate=nan", "^CNN spec field learning_rate must be positive$"),
        (LstmSpec, "lr_drop_factor=inf", "^LSTM spec field lr_drop_factor must be positive$"),
        (LstmSpec, "layers=2", "^only a single LSTM layer is supported$"),
        (ConvSpec, "kernel_size=5", "^kernel size 5 exceeds the 4-sample window$"),
        (ConvSpec, "pool_size=2", "^conv output length 3 is not divisible by pool size 2$"),
    ])
    def test_bad_spec_text_is_a_data_error(self, spec, text, message):
        with pytest.raises(DataValidationError, match=message):
            spec.from_text(text)

    def test_nothing_to_save(self, tmp_path):
        with pytest.raises(DataValidationError, match="^nothing to save$"):
            save_nn_models([], tmp_path / "empty.model")
        assert not (tmp_path / "empty.model").exists()

    def test_mixed_kinds_rejected(self, mixed_40d_split, tmp_path):
        train, _ = mixed_40d_split
        cnn = train_cnn(train, spec=ConvSpec(epochs=1), horizon=1, seed=1)
        lstm = train_lstm(train, spec=LstmSpec(epochs=1), horizon=1, seed=1)
        with pytest.raises(DataValidationError, match="mix"):
            save_nn_models([cnn, lstm], tmp_path / "bad.model")

    @pytest.mark.parametrize("change, message", [
        ({"scaler": Scaler(0.0, 1000.0)}, "cannot mix"),
        ({"spec": ConvSpec(fc1_units=5), "params": CnnNetwork(ConvSpec(fc1_units=5)).params},
         "cannot mix"),
        ({"daylight": DaylightWindow(420, 1080)}, "cannot mix"),
        ({"step": 5}, "cannot mix"),
        ({"horizon": 1}, r"one network per horizon, got \[1, 1\]"),
    ], ids=["scaler", "spec", "daylight", "step", "horizon"])
    def test_networks_without_one_header_rejected(self, mixed_40d_split, tmp_path, change,
                                                  message):
        # the file has one spec, scaler, daylight and step record and one
        # section per horizon, so a second network must match the first
        first = untrained_model("cnn", mixed_40d_split[0])
        second = replace(first, **{"horizon": 3, **change})
        path = tmp_path / "bad.model"
        with pytest.raises(DataValidationError, match=message):
            save_nn_models([first, second], path)
        assert not path.exists()

    def test_loss_curve_csv(self, mixed_40d_split):
        train, _ = mixed_40d_split
        model = train_cnn(train, spec=ConvSpec(epochs=3), horizon=1, seed=1)
        lines = loss_curve_csv(model).strip().split("\n")
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4
