"""Fit the ensemble-deducted autoregression and forecast three horizons.

The pipeline per target slot: standardize with the frozen training
scaler, subtract the per-slot ensemble profile, take the dot product of
the horizon's least-squares weights with the m most recent residuals,
add the profile back, destandardize, clip at zero.

Run:  python3 demos/03_mar_forecast.py
"""

import os
import tempfile

import numpy as np

from solarcast import (
    MarConfig,
    fit_all_horizons,
    forecast,
    generate_synthetic,
    load_mar_model,
    save_mar_model,
    split,
    summarize,
    summary_table,
)
from solarcast.io import write_text
from solarcast.svgplot import render_line_chart

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

series = generate_synthetic(days=100, regime="mixed", seed=4)
train, test = split(series, 0.70)
print(f"{train.n_days} training days, {test.n_days} test days")

model = fit_all_horizons(train, MarConfig(order=4, horizons=(1, 3, 6)))
for h in model.horizons:
    print(f"h={h}: weights {np.round(model.weights[h], 4)}")

reports = [forecast(model, test, h) for h in model.horizons]
print("\n" + summary_table(summarize(reports), step=test.step))

# direct per-horizon weights vs iterating the 1-step model
recursive = [forecast(model, test, h, recursive=True) for h in (3, 6)]
print("recursive iteration of the 1-step weights, for comparison:")
print(summary_table(summarize(recursive), step=test.step))

# persistence round trip is bit-exact
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "mar.model")
    save_mar_model(model, path)
    reloaded = load_mar_model(path)
    same = np.array_equal(
        forecast(model, test, 1).predicted, forecast(reloaded, test, 1).predicted
    )
print("save/load forecasts bit-identical:", bool(same))

# one test day, observed vs predicted at each horizon: rows whose
# sample index falls in the test series' first day
spd = test.samples_per_day
first_day = test.start.date()
day_report = reports[0]
mask = day_report.sample_index < spd
hours = day_report.sample_index[mask] * test.step / 60
curves = [("observed", hours, day_report.actual[mask])]
for report in reports:
    m = report.sample_index < spd
    label = f"{report.horizon * test.step} min ahead"
    curves.append((label, report.sample_index[m] * test.step / 60, report.predicted[m]))
chart = os.path.join(OUT, "mar_day.svg")
svg = render_line_chart(curves, title=f"Observed vs predicted, {first_day}",
                        x_label="hour of day", y_label="irradiance W/m2")
write_text(chart, (svg,))
print(f"wrote {chart}")
