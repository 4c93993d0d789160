"""Seeded synthetic irradiance, used in place of a private PV dataset.

Each day is a clear-sky bell over the daylight window:

    I(t) = I_max * sin(pi * (t - t_rise) / (t_set - t_rise)) ** k

clipped at zero and zero outside the window. Cloudy days multiply the
bell by a temporally correlated attenuation in [0.2, 1.0]: an order-1
autoregressive latent with coefficient 0.9, mapped through
``0.6 + 0.4 * tanh``. The generator is a pure function of
(days, regime, seed, step, daylight).
"""

from __future__ import annotations

from datetime import datetime

import numpy as np

from .errors import DataValidationError
from .series import MINUTES_PER_DAY, DaylightWindow, IrradianceSeries

REGIMES = ("clear", "cloudy", "mixed")

PEAK_IRRADIANCE = 1000.0
BELL_EXPONENT = 1.2
AR_COEFF = 0.9
ATTENUATION_MID = 0.6
ATTENUATION_HALFWIDTH = 0.4


def clear_sky_day(step: int = 10, daylight: DaylightWindow = DaylightWindow()) -> np.ndarray:
    """One day of the deterministic clear-sky bell over ``daylight``."""
    spd = MINUTES_PER_DAY // step
    minutes = np.arange(spd) * step
    rise, set_ = daylight.start_minute, daylight.end_minute
    phase = (minutes - rise) / (set_ - rise)
    day = np.zeros(spd)
    inside = (phase >= 0.0) & (phase <= 1.0)
    day[inside] = PEAK_IRRADIANCE * np.sin(np.pi * phase[inside]) ** BELL_EXPONENT
    return np.clip(day, 0.0, None)


def generate_synthetic(
    days: int,
    regime: str = "mixed",
    seed: int = 0,
    step: int = 10,
    start: datetime | None = None,
    daylight: DaylightWindow = DaylightWindow(),
) -> IrradianceSeries:
    """Deterministic synthetic series of ``days`` whole days, with the
    clear-sky bell over ``daylight``.

    ``clear``: every day is the bare bell. ``cloudy``: every day is
    attenuated. ``mixed``: each day is independently clear or cloudy
    with equal probability.
    """
    if days < 1:
        raise DataValidationError(f"days must be >= 1, got {days}")
    if regime not in REGIMES:
        raise DataValidationError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    rng = np.random.default_rng(seed)
    spd = MINUTES_PER_DAY // step

    if regime == "clear":
        cloudy_days = np.zeros(days, dtype=bool)
    elif regime == "cloudy":
        cloudy_days = np.ones(days, dtype=bool)
    else:
        cloudy_days = rng.random(days) < 0.5

    # Latent AR(1) runs over every slot of the series so attenuation is
    # correlated within and across cloudy days; innovations scaled for
    # unit stationary variance. The values' own array holds the
    # innovations, then the latent, then the attenuation, then the
    # values, each overwriting the last, so no other array of the
    # series exists.
    values = rng.standard_normal(days * spd)
    values *= np.sqrt(1.0 - AR_COEFF**2)
    u = rng.standard_normal()
    day_rows = values.reshape(days, spd)
    for day in day_rows:
        # a day at a time as Python floats, which round each multiply
        # and add as numpy scalars do, with no list of the whole series
        for i, eps in enumerate(day.tolist()):
            u = AR_COEFF * u + eps
            day[i] = u
    attenuation = np.tanh(values, out=values)
    attenuation *= ATTENUATION_HALFWIDTH
    attenuation += ATTENUATION_MID
    bell = clear_sky_day(step, daylight)
    day_rows *= bell
    np.copyto(day_rows, bell, where=~cloudy_days[:, None])
    values.setflags(write=False)  # fresh, so the series need not copy it

    return IrradianceSeries(
        start=start or datetime(2024, 1, 1), values=values, step=step
    )
