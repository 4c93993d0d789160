"""Flat-text model persistence: exact round trips, useful failures."""

import numpy as np
import pytest

from solarcast import (
    DataValidationError,
    MarConfig,
    fit_all_horizons,
    forecast,
    load_mar_model,
    save_mar_model,
    split,
)


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
