"""Generate synthetic irradiance and look at what the regimes produce.

Every day is a clear-sky bell over the 06:00-18:30 daylight window;
cloudy days multiply it by a correlated attenuation process. The
generator is deterministic in (days, regime, seed), which is what makes
every experiment in this repository reproducible.

Run:  python3 demos/01_synthetic_data.py
"""

import os

import numpy as np

from solarcast import DaylightWindow, generate_synthetic, write_csv
from solarcast.io import write_text
from solarcast.svgplot import render_line_chart

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

for regime in ("clear", "cloudy", "mixed"):
    series = generate_synthetic(days=7, regime=regime, seed=42)
    path = os.path.join(OUT, f"week_{regime}.csv")
    write_csv(series, path, header_comments={"regime": regime, "seed": 42})
    days = series.day_matrix()
    print(f"{regime:6s}: peak {days.max():7.1f} W/m2   "
          f"daily energy mean {days.sum(axis=1).mean() * series.step / 60 / 1000:.2f} kWh/m2   "
          f"midday std over days {days[:, 75].std():6.1f}")

# overlay one day of each regime on a single chart
hours = np.arange(144) * 10 / 60.0
curves = []
for regime in ("clear", "cloudy", "mixed"):
    day = generate_synthetic(days=3, regime=regime, seed=7).day_matrix()[2]
    curves.append((regime, hours, day))
chart = os.path.join(OUT, "regimes.svg")
svg = render_line_chart(curves, title="One synthetic day per regime",
                        x_label="hour of day", y_label="irradiance W/m2")
write_text(chart, (svg,))
print(f"\nwrote {chart}")

# determinism: the same seed always yields the same series
a = generate_synthetic(days=30, regime="mixed", seed=1).values
b = generate_synthetic(days=30, regime="mixed", seed=1).values
print("same seed, bit-identical:", bool(np.array_equal(a, b)))

window = DaylightWindow()
lo, hi = window.slot_bounds(10)
print(f"daylight window {window} covers slots {lo}..{hi} ({hi - lo + 1} per day)")
