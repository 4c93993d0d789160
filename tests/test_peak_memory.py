"""Peak memory of the fit and forecast paths, as ``tracemalloc`` counts
it, grows by a bounded number of bytes per added series row (10-minute
samples) from a 30-day to a 300-day series. The lags are read through
strided views of the values, copied once into the matrix a model reads,
and no index array per lag exists; a series keeps read-only values
without copying them.

Measured (Python 3.11, numpy 2.4), bytes per added row: a 1-step MAR
``forecast`` 44 (recursive 48), ``nn_forecast`` of
``tests/data/lstm.model`` 32, ``fit_all_horizons`` 36. Gathering
through an int64 lag-index array, with every series result copied,
took them to 68 (72), 51 and 54."""

import tracemalloc
from pathlib import Path

import pytest

from solarcast import fit_all_horizons, forecast, generate_synthetic, load_nn_models
from solarcast.nn import nn_forecast

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
    assert growth_per_row(lambda s: forecast(mar_model, s, 1, recursive=recursive)) < 56


def test_lstm_forecast_peak_per_row():
    model = load_nn_models(DATA / "lstm.model")[1]
    assert growth_per_row(lambda s: nn_forecast(model, s)) < 42


def test_fit_all_horizons_peak_per_row():
    assert growth_per_row(fit_all_horizons) < 46
