"""Flat-text model persistence: exact round trips, useful failures."""

from pathlib import Path

import numpy as np
import pytest

from solarcast import (
    DataValidationError,
    MarConfig,
    MarModel,
    UsageError,
    fit_all_horizons,
    forecast,
    load_mar_model,
    load_nn_models,
    save_mar_model,
    split,
)
from solarcast.model_io import NetworkSet, load_model
from solarcast.nn import nn_forecast

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def fitted(mixed_30d):
    train, test = split(mixed_30d, 0.7)
    return fit_all_horizons(train), test


class TestMarModelFile:
    def test_round_trip_fields(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.model"
        save_mar_model(model, path)
        loaded = load_mar_model(path)
        assert loaded.order == model.order
        assert loaded.horizons == model.horizons
        assert loaded.ensemble_enabled == model.ensemble_enabled
        assert loaded.scaler == model.scaler
        assert loaded.daylight == model.daylight
        assert loaded.step == model.step
        assert np.array_equal(loaded.profile.means, model.profile.means)
        assert np.array_equal(loaded.profile.support_counts, model.profile.support_counts)
        for h in model.horizons:
            assert np.array_equal(loaded.weights[h], model.weights[h])

    def test_forecasts_bit_exact_after_round_trip(self, fitted, tmp_path):
        model, test = fitted
        path = tmp_path / "m.model"
        save_mar_model(model, path)
        loaded = load_mar_model(path)
        for h in model.horizons:
            original = forecast(model, test, h)
            restored = forecast(loaded, test, h)
            assert np.array_equal(original.predicted, restored.predicted)
            assert np.array_equal(original.actual, restored.actual)

    def test_magic_line(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.model"
        save_mar_model(model, path)
        assert path.read_text().splitlines()[0] == "mar-model v1"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("something-else v9\norder 4\n")
        with pytest.raises(DataValidationError, match="mar-model v1"):
            load_mar_model(path)

    def test_missing_record_rejected(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.model"
        save_mar_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(ln for ln in lines if not ln.startswith("scaler")) + "\n")
        with pytest.raises(DataValidationError, match="scaler"):
            load_mar_model(path)

    def test_missing_horizon_weights_rejected(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.model"
        save_mar_model(model, path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("weights 6")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match="horizons \\[6\\]"):
            load_mar_model(path)

    def test_support_count_beyond_int64_rejected(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.model"
        save_mar_model(model, path)
        lines = [ln.replace("profile_support ", "profile_support 99999999999999999999 ", 1)
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match="malformed 'profile_support' record"):
            load_mar_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError, match="not found"):
            load_mar_model(tmp_path / "absent.model")

    def test_plain_ar_round_trip(self, mixed_30d, tmp_path):
        train, _ = split(mixed_30d, 0.7)
        model = fit_all_horizons(train, MarConfig(ensemble_enabled=False, horizons=(1,)))
        path = tmp_path / "ar.model"
        save_mar_model(model, path)
        assert load_mar_model(path).ensemble_enabled is False


class TestLoadModel:
    """``load_model`` reads either format by its first line, and both
    families forecast through one ``forecast(test, horizon, recursive)``."""

    def test_mar_file(self, fitted, tmp_path):
        model, test = fitted
        path = tmp_path / "m.model"
        save_mar_model(model, path)
        loaded = load_model(path, horizons=(1, 3), recursive=False)
        with pytest.raises(UsageError, match="model was not fitted for horizon 2"):
            load_model(path, horizons=(1, 2, 3))  # refused when it loads, as a network file is
        assert type(loaded) is MarModel
        assert loaded.settings() == {"model": "mar", "order": "4", "daylight": "06:00-18:30"}
        for h in model.horizons:
            for recursive in (False, True):
                ours = loaded.forecast(test, h, recursive)
                assert np.array_equal(ours.predicted, forecast(model, test, h, recursive).predicted)
        with pytest.raises(UsageError, match="model was not fitted for horizon 2"):
            loaded.forecast(test, 2)

    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_network_file(self, mixed_30d, kind):
        networks = load_model(DATA / f"{kind}.model", horizons=(3, 1))
        assert type(networks) is NetworkSet and type(load_nn_models(DATA / f"{kind}.model")) is NetworkSet
        assert sorted(networks) == [1, 3]
        assert networks.settings() == {"model": kind, "daylight": "06:00-18:30"}
        _, test = split(mixed_30d, 0.7)
        for h in (1, 3):
            ours = networks.forecast(test, h)
            assert np.array_equal(ours.predicted, nn_forecast(networks[h], test).predicted)

    def test_network_refusals(self, mixed_30d):
        _, test = split(mixed_30d, 0.7)
        networks = load_model(DATA / "cnn.model")
        with pytest.raises(UsageError, match="^recursive mode applies to mar/ar models only$"):
            networks.forecast(test, 1, recursive=True)
        for refused in (lambda: networks.forecast(test, 2),
                        lambda: load_model(DATA / "cnn.model", horizons=(1, 2))):
            with pytest.raises(UsageError, match="^model file has no network for horizon 2$"):
                refused()
        with pytest.raises(UsageError, match="^recursive mode applies"):
            load_model(DATA / "cnn.model", recursive=True)

    @pytest.mark.parametrize("text, shown", [
        ("", "''"),
        ("mar-model v2\nstep 10\n", "'mar-model v2'"),
        ("  nn-model v1 \r\nkind cnn\n", None),  # the magic line, stripped
    ])
    def test_first_line(self, tmp_path, text, shown):
        path = tmp_path / "x.model"
        path.write_bytes(text.encode())
        message = f"not a recognized model file \\(first line {shown}\\)" if shown else "expected a 'nn-model v1'"
        with pytest.raises(DataValidationError, match=message):
            load_model(path)

    @pytest.mark.parametrize("name", ["cnn.model", "lstm.model"])
    def test_network_file_without_a_horizon_section(self, tmp_path, name):
        lines = (DATA / name).read_text().splitlines(keepends=True)
        path = tmp_path / name
        path.write_text("".join(lines[: lines.index("horizon 1\n")]))
        with pytest.raises(DataValidationError, match="no horizon sections found"):
            load_nn_models(path)
