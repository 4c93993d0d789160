"""Peak memory of the generator, fit and forecast paths, as ``tracemalloc`` counts
it, grows by a bounded number of bytes per added series row (10-minute
samples) from a 30-day to a 300-day series. The lags are read through
strided views of the values, and no index array per lag exists; a
series keeps read-only values without copying them. A fit deducts the
profile in place on the standardized series and folds 2,048 rows of lags
and targets at a time from those views into a QR factor, so it holds
no lag matrix. A forecast gathers, standardizes and predicts 512 rows
at a time from the raw values, so past the values it holds only the
target indices, the forecasts and the actuals.

Measured (Python 3.11, numpy 2.4), bytes per added row: a 1-step MAR
``forecast`` 10.5 (recursive 10.5), ``nn_forecast`` of
``tests/data/lstm.model`` 10.8 and of ``tests/data/cnn.model`` 8.0,
``fit_all_horizons`` 8.0, ``generate_synthetic`` 8.1. A standardized
copy of the series, with a deducted copy and a lag matrix (MAR) or the
windows' targets and anchors (networks) beside it, took the forecasts
to 44 (48), 32 and 32; gathering through an int64 lag-index array, with
every series result copied, to 68 (72), 51 and 54; differencing a copy
of the whole day matrix took the CNN's to 36; a tiled bell and a
repeated cloudy-day mask held beside the latent took the generator's
to 24; a lag matrix copied for ``lstsq``, with a deducted copy beside
the standardized series, took the fit's to 36.

``evaluate`` forecasts, scores and writes one horizon at a time, so
its peak does not grow with the number of horizons, and each horizon's
outputs are those of evaluating that horizon alone.

An LSTM backpropagates each step into that step's forward buffers, so
its first backward at the default spec and batch 256, which takes its
workspace, peaked at 422 KB (measured); a backward with a buffer of its
own for every intermediate (the gate gradients, the gradient at the
concat, four (hidden, batch) arrays and a (3 * hidden, batch) one: 592
KB more) peaked at 1,017 KB. Past the workspace, both hold ~257 KB of
per-batch temporaries, such as the dense head's gradients and the
(hidden, batch) gradients at the final h and c."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from solarcast import fit_all_horizons, forecast, generate_synthetic, load_nn_models, write_csv
from solarcast.cli import main
from solarcast.nn import LstmNetwork, LstmSpec, nn_forecast

from conftest import data_lines

DATA = Path(__file__).parent / "data"
SLOTS_PER_DAY = 144


def growth_per_row(call) -> float:
    """Bytes the traced peak of ``call(series)`` gains per added row
    from 30 to 300 days; each series is made outside the measurement."""
    peaks = []
    for days in (30, 300):
        series = generate_synthetic(days, "mixed", seed=8)
        call(series)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            call(series)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / ((300 - 30) * SLOTS_PER_DAY)


@pytest.fixture(scope="module")
def mar_model():
    return fit_all_horizons(generate_synthetic(30, "mixed", seed=7))


@pytest.mark.parametrize("recursive", (False, True))
def test_mar_forecast_peak_per_row(mar_model, recursive):
    assert growth_per_row(lambda s: forecast(mar_model, s, 1, recursive=recursive)) < 12.5


def test_lstm_forecast_peak_per_row():
    model = load_nn_models(DATA / "lstm.model")[1]
    assert growth_per_row(lambda s: nn_forecast(model, s)) < 14


def test_cnn_forecast_peak_per_row():
    model = load_nn_models(DATA / "cnn.model")[1]
    assert growth_per_row(lambda s: nn_forecast(model, s)) < 8.5


def test_lstm_backward_peak():
    spec = LstmSpec()
    network = LstmNetwork(spec, seed=0)
    rng = np.random.default_rng(0)
    _, cache = network.forward_with_cache(rng.standard_normal((spec.batch_size, spec.window, 1)))
    tracemalloc.start()
    try:
        network.backward(cache, rng.standard_normal(spec.batch_size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000


def test_fit_all_horizons_peak_per_row():
    assert growth_per_row(fit_all_horizons) < 10


def test_synthetic_peak_per_row():
    """The generator's one array of the series is the values: 8 bytes a
    row."""
    assert growth_per_row(lambda s: generate_synthetic(s.n_days, "mixed", seed=8)) < 10


def test_synth_peak_does_not_grow_with_days(tmp_path):
    """``synth`` writes each block of days as it is made, so its peak
    holds no array of the series: from 70 to 340 days, each more than two
    blocks, it moved by -0.3 KB (measured), where generating the whole
    series first grew it by 310 KB, 8 bytes a row."""
    peaks = []
    for days in (70, 340):
        argv = ["synth", "--days", str(days), "--regime", "mixed", "--seed", "8",
                "--out", str(tmp_path)]
        assert main(argv) == 0  # warm caches outside the measurement
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16384


@pytest.fixture(scope="module")
def evaluate_inputs(tmp_path_factory):
    """A 300-day series, whose 90 test days dominate an evaluate's
    memory, and the model files evaluated on it: (data, {name: (model
    file, horizons)})."""
    root = tmp_path_factory.mktemp("evaluate")
    data = root / "mixed_300d.csv"
    write_csv(generate_synthetic(300, "mixed", seed=8), data)
    files = {}
    for model in ("mar", "ar"):
        assert main(["fit", "--model", model, "--data", str(data), "--out", str(root)]) == 0
        files[model] = (root / f"{model}.model", (1, 3, 6))
    for kind in ("cnn", "lstm"):  # networks for horizons 1 and 3
        files[kind] = (DATA / f"{kind}.model", (1, 3))
    return data, files


def evaluate(data, model_file, horizons, out) -> None:
    assert main(["evaluate", "--data", str(data), "--model-file", str(model_file),
                 "--horizons", ",".join(map(str, horizons)), "--out", str(out)]) == 0


@pytest.mark.parametrize("model", ["mar", "cnn", "lstm"])
def test_evaluate_peak_does_not_grow_with_horizons(evaluate_inputs, tmp_path, model):
    """Every horizon of a file peaks within 10% of its first alone: a
    horizon's report is written and let go before the next horizon is
    forecast. Measured: 1.002 times for MAR's three horizons, 1.003 and
    1.005 for the networks' two. Holding every report until all were
    scored, with a 1 MiB write buffer, took them to 1.18 and 1.09."""
    data, files = evaluate_inputs
    model_file, horizons = files[model]
    peaks = []
    for chosen in (horizons[:1], horizons):
        evaluate(data, model_file, chosen, tmp_path)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            evaluate(data, model_file, chosen, tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


@pytest.mark.parametrize("model", ["mar", "ar", "cnn", "lstm"])
def test_each_horizon_as_if_evaluated_alone(evaluate_inputs, tmp_path, model):
    """Each horizon's forecast rows and summary row, evaluated with the
    others, are byte for byte those of evaluating that horizon alone."""
    data, files = evaluate_inputs
    model_file, horizons = files[model]
    evaluate(data, model_file, horizons, tmp_path / "all")
    forecasts = data_lines(tmp_path / "all" / "forecasts.csv")
    summary = data_lines(tmp_path / "all" / "summary.csv")
    assert forecasts[0] == "timestamp,model,horizon,actual_wm2,predicted_wm2"
    assert len(summary) == 1 + len(horizons)
    seen = 0
    for h in horizons:
        evaluate(data, model_file, (h,), tmp_path / f"h{h}")
        alone = data_lines(tmp_path / f"h{h}" / "forecasts.csv")
        assert [row for row in forecasts[1:] if row.split(",")[2] == str(h)] == alone[1:]
        assert [row for row in summary[1:] if row.split(",")[1] == str(h)] == data_lines(
            tmp_path / f"h{h}" / "summary.csv")[1:]
        seen += len(alone) - 1
    assert seen == len(forecasts) - 1
