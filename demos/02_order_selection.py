"""How many lags should the autoregression use?

The partial autocorrelation of an order-p autoregression cuts off after
lag p, so we pick the largest lag whose |PACF| clears a threshold. On a
reference AR(4) simulation the rule recovers 4; on the synthetic solar
data it responds to however much short-range memory the attenuation
process actually has.

Run:  python3 demos/02_order_selection.py
"""

import os

import numpy as np

from solarcast import (
    autocorrelation,
    ensemble_deduct,
    ensemble_profile,
    fit_scaler,
    generate_synthetic,
    partial_autocorrelation,
    select_order,
    split,
    standardize,
)
from solarcast.mar import daylight_values
from solarcast.io import write_text
from solarcast.svgplot import render_line_chart

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)
MAX_LAG = 12


def simulate_ar4(n, seed):
    coeffs = np.array([0.5, -0.35, 0.25, 0.3])
    rng = np.random.default_rng(seed)
    x = np.zeros(n + 500)
    eps = rng.standard_normal(n + 500)
    for t in range(4, n + 500):
        x[t] = np.dot(coeffs, x[t - 4 : t][::-1]) + eps[t]
    return x[500:]


def show(name, values):
    acf = autocorrelation(values, MAX_LAG)
    pacf = partial_autocorrelation(values, MAX_LAG)
    order = select_order(pacf)
    print(f"\n{name}  (n = {len(values)})")
    print("lag   " + "".join(f"{lag:>8d}" for lag in range(1, MAX_LAG + 1)))
    print("acf   " + "".join(f"{v:>8.3f}" for v in acf.values[1:]))
    print("pacf  " + "".join(f"{v:>8.3f}" for v in pacf.values[1:]))
    print(f"selected order: {order}")
    return pacf


# reference process with known order
pacf_ar4 = show("reference AR(4), coefficients [0.5, -0.35, 0.25, 0.3]",
                simulate_ar4(10_000, seed=3))

# synthetic solar data: standardize on the training split, subtract the
# per-slot ensemble profile, correlate the in-window residuals
series = generate_synthetic(days=100, regime="mixed", seed=9)
train, _ = split(series, 0.70)
scaler = fit_scaler(train)
z = standardize(train, scaler)
residuals = ensemble_deduct(z, ensemble_profile(z))
pacf_solar = show("mixed-regime synthetic, ensemble-deducted daylight residuals",
                  daylight_values(residuals))

lags = np.arange(MAX_LAG + 1, dtype=float)
chart = os.path.join(OUT, "pacf.svg")
svg = render_line_chart(
    [("AR(4) reference", lags, pacf_ar4.values),
     ("solar residuals", lags, pacf_solar.values)],
    title="Partial autocorrelation by lag",
    x_label="lag", y_label="PACF",
)
write_text(chart, (svg,))
print(f"\nwrote {chart}")
