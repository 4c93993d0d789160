"""Metamorphic properties of the MAR, AR and CNN pipeline, run end to
end through ``main()`` on a 30-day file, and of the LSTM through the
library: how the outputs must move when the input moves in a known way."""

from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from solarcast import IrradianceSeries, generate_synthetic, load_csv, split, write_csv
from solarcast.cli import main
from solarcast.nn import LstmSpec, nn_forecast, train_lstm

from conftest import data_lines

MODELS = ("mar", "ar", "cnn")
DATA = Path(__file__).parent / "data"


def run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == 0


def evaluate(model_file, data, out, *extra) -> list[str]:
    """The forecast rows of evaluating ``model_file`` on ``data``."""
    run("evaluate", "--model-file", model_file, "--data", data, "--out", out, *extra)
    return data_lines(out / "forecasts.csv")[1:]


def fit_and_evaluate(data, out, *extra) -> dict[str, tuple[str, np.ndarray, list[str]]]:
    """Per model: the model file's text, the forecasts' (actual,
    predicted) columns and the summary's data rows."""
    results = {}
    for model in MODELS:
        run("fit", "--model", model, "--data", data, "--out", out)
        rows = [row.split(",") for row in evaluate(out / f"{model}.model", data, out / model, *extra)]
        summary = data_lines(out / model / "summary.csv")[1:]
        forecasts = np.array([[float(actual), float(predicted)] for *_, actual, predicted in rows])
        results[model] = ((out / f"{model}.model").read_text(), forecasts, summary)
    return results


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    run("synth", "--days", 30, "--regime", "mixed", "--seed", 7, "--out", root)
    data = root / "synthetic_mixed_30d.csv"
    return data, load_csv(data), fit_and_evaluate(data, root / "base")


def test_doubling_the_values_doubles_the_forecasts(fixture, tmp_path):
    """Standardization cancels a power-of-two scale exactly: only the
    scaler record moves, every forecast doubles bit for bit, and with the
    MAPE threshold doubled too every MAPE is the same."""
    _, series, base = fixture
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


def test_doubling_the_values_doubles_the_lstm_forecasts(fixture):
    """As above for a small LSTM at horizon 3, trained and run through
    the library: its scaler doubles and every forecast doubles bit for bit."""
    _, series, _ = fixture
    spec = LstmSpec(units=4, dense_hidden=2, epochs=2)
    reports = []
    for values in (series.values, series.values * 2):
        train, test = split(IrradianceSeries(series.start, values, series.step))
        model = train_lstm(train, spec=spec, horizon=3, seed=0)
        reports.append((model.scaler, nn_forecast(model, test)))
    (scaler, report), (scaler2, report2) = reports
    assert (scaler2.mu, scaler2.sigma) == (2 * scaler.mu, 2 * scaler.sigma)
    assert report.predicted.size > 0
    assert np.array_equal(report2.actual, 2 * report.actual)
    assert np.array_equal(report2.predicted, 2 * report.predicted)


def test_editing_the_test_half_leaves_the_models_alone(fixture, tmp_path):
    """Fitting reads the training half only: any change to the days
    after the split leaves every model file byte-identical."""
    _, series, base = fixture
    train, test = split(series)
    factors = np.random.default_rng(0).uniform(0.5, 1.5, test.values.size)
    values = np.concatenate([train.values, test.values * factors])
    edited = tmp_path / "edited.csv"
    write_csv(IrradianceSeries(series.start, values, series.step), edited)
    for model in MODELS:
        run("fit", "--model", model, "--data", edited, "--out", tmp_path)
        assert (tmp_path / f"{model}.model").read_text() == base[model][0]


@pytest.mark.parametrize("mode", ((), ("--recursive",)), ids=("direct", "recursive"))
@pytest.mark.parametrize("model", ("mar", "ar"))
def test_forecasts_do_not_see_the_future(fixture, tmp_path, model, mode):
    """Changing every value after a time t of the test half leaves each
    forecast whose target is at or before t as it was, and moves later
    ones."""
    data, series, _ = fixture
    model_file = data.parent / "base" / f"{model}.model"
    t = split(series)[1].start + timedelta(days=4, hours=12)
    cut = (t - series.start) // timedelta(minutes=series.step) + 1  # the first slot after t
    factors = np.random.default_rng(1).uniform(0.5, 1.5, series.values.size - cut)
    values = np.concatenate([series.values[:cut], series.values[cut:] * factors])
    edited = tmp_path / "edited.csv"
    write_csv(IrradianceSeries(series.start, values, series.step), edited)
    rows = evaluate(model_file, data, tmp_path / "base", *mode)
    rows2 = evaluate(model_file, edited, tmp_path / "edited", *mode)
    assert len(rows) == len(rows2)
    before = [row.split(",")[0] <= t.isoformat() for row in rows]
    assert 0 < sum(before) < len(rows)
    assert all(a == b for a, b, early in zip(rows, rows2, before) if early)
    assert any(a != b for a, b, early in zip(rows, rows2, before) if not early)


@pytest.mark.parametrize("model, mode", (
    ("mar", ()), ("mar", ("--recursive",)), ("ar", ()), ("ar", ("--recursive",)),
    ("cnn", ()), ("lstm", ()),
), ids=("mar-direct", "mar-recursive", "ar-direct", "ar-recursive", "cnn", "lstm"))
def test_appending_days_leaves_earlier_forecasts_alone(fixture, tmp_path, model, mode):
    """Thirty days appended to the file leave every forecast row of the
    earlier test days byte-identical, so the boundaries of the forecast
    blocks never reach the bits. Both splits keep the same 21 training
    days: 0.72 of 30 and 0.36 of 60. The nine test days hold more than
    one 512-row block per horizon, the last one partial."""
    data, series, _ = fixture
    model_file = DATA / "lstm.model" if model == "lstm" else data.parent / "base" / f"{model}.model"
    extra = ("--horizons", "1,3") if model == "lstm" else ()
    appended = generate_synthetic(30, "mixed", seed=8).values
    longer = tmp_path / "longer.csv"
    write_csv(IrradianceSeries(series.start, np.concatenate([series.values, appended]), series.step),
              longer)
    rows = evaluate(model_file, data, tmp_path / "base", "--split", 0.72, *mode, *extra)
    rows2 = evaluate(model_file, longer, tmp_path / "longer", "--split", 0.36, *mode, *extra)
    for horizon in {row.split(",")[2] for row in rows}:
        early = [row for row in rows if row.split(",")[2] == horizon]
        late = [row for row in rows2 if row.split(",")[2] == horizon]
        assert 512 < len(early) < len(late) - 512
        assert late[: len(early)] == early


def test_shifting_the_start_by_whole_days_moves_only_the_timestamps(fixture, tmp_path):
    """No model reads the calendar: moving the file's start by 76 days
    (2024-01-01 to 2024-03-17, across a leap day) leaves every model
    file, every summary row and every forecast value bit-identical and
    moves each forecast's timestamp by exactly those days."""
    data, series, _ = fixture
    shift = timedelta(days=76)
    shifted = tmp_path / "shifted.csv"
    write_csv(IrradianceSeries(series.start + shift, series.values, series.step), shifted)
    base_dir = data.parent / "base"
    for model, mode in (("mar", ()), ("mar", ("--recursive",)), ("ar", ()), ("ar", ("--recursive",)),
                        ("cnn", ())):
        run("fit", "--model", model, "--data", shifted, "--out", tmp_path)
        assert (tmp_path / f"{model}.model").read_text() == (base_dir / f"{model}.model").read_text()
        out, out2 = tmp_path / "base" / model, tmp_path / "shifted" / model
        rows = [row.split(",") for row in evaluate(base_dir / f"{model}.model", data, out, *mode)]
        rows2 = [row.split(",") for row in evaluate(tmp_path / f"{model}.model", shifted, out2, *mode)]
        assert len(rows) == len(rows2) > 0
        for (stamp, *values), (stamp2, *values2) in zip(rows, rows2):
            assert values2 == values
            assert datetime.fromisoformat(stamp2) - datetime.fromisoformat(stamp) == shift
        assert data_lines(out2 / "summary.csv") == data_lines(out / "summary.csv")
