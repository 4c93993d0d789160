"""Metamorphic properties of the MAR and AR pipeline, run end to end
through ``main()`` on a 30-day file: how the outputs must move when the
input moves in a known way."""

import numpy as np
import pytest

from solarcast import IrradianceSeries, load_csv, split, write_csv
from solarcast.cli import main

MODELS = ("mar", "ar")


def run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == 0


def fit_and_evaluate(data, out, *extra) -> dict[str, tuple[str, np.ndarray, list[str]]]:
    """Per model: the model file's text, the forecasts' (actual,
    predicted) columns and the summary's data rows."""
    results = {}
    for model in MODELS:
        run("fit", "--model", model, "--data", data, "--out", out)
        run("evaluate", "--model-file", out / f"{model}.model", "--data", data,
            "--out", out / model, *extra)
        rows = [line.split(",") for line in (out / model / "forecasts.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        summary = [line for line in (out / model / "summary.csv").read_text().splitlines()
                   if not line.startswith("#")][1:]
        forecasts = np.array([[float(actual), float(predicted)] for *_, actual, predicted in rows])
        results[model] = ((out / f"{model}.model").read_text(), forecasts, summary)
    return results


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    run("synth", "--days", 30, "--regime", "mixed", "--seed", 7, "--out", root)
    data = root / "synthetic_mixed_30d.csv"
    return load_csv(data), fit_and_evaluate(data, root / "base")


def test_doubling_the_values_doubles_the_forecasts(fixture, tmp_path):
    """Standardization cancels a power-of-two scale exactly: only the
    scaler record moves, every forecast doubles bit for bit, and with the
    MAPE threshold doubled too every MAPE is the same."""
    series, base = fixture
    doubled = tmp_path / "doubled.csv"
    write_csv(IrradianceSeries(series.start, series.values * 2, series.step), doubled)
    scaled = fit_and_evaluate(doubled, tmp_path, "--mape-threshold", 40)
    for model in MODELS:
        (text, forecasts, summary), (text2, forecasts2, summary2) = base[model], scaled[model]
        lines, lines2 = text.splitlines(), text2.splitlines()
        changed = [i for i, (a, b) in enumerate(zip(lines, lines2)) if a != b]
        assert len(lines) == len(lines2) and [lines[i].split()[0] for i in changed] == ["scaler"]
        scaler, scaler2 = (np.array(line.split()[1:], dtype=float)
                           for line in (lines[changed[0]], lines2[changed[0]]))
        assert np.array_equal(scaler2, 2 * scaler)
        assert forecasts.shape == (1881, 2)
        assert np.array_equal(forecasts2, 2 * forecasts)
        assert [row.split(",")[4] for row in summary2] == [row.split(",")[4] for row in summary]


def test_editing_the_test_half_leaves_the_models_alone(fixture, tmp_path):
    """Fitting reads the training half only: any change to the days
    after the split leaves every model file byte-identical."""
    series, base = fixture
    train, test = split(series)
    factors = np.random.default_rng(0).uniform(0.5, 1.5, test.values.size)
    values = np.concatenate([train.values, test.values * factors])
    edited = tmp_path / "edited.csv"
    write_csv(IrradianceSeries(series.start, values, series.step), edited)
    for model in MODELS:
        run("fit", "--model", model, "--data", edited, "--out", tmp_path)
        assert (tmp_path / f"{model}.model").read_text() == base[model][0]
