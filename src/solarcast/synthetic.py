"""Seeded synthetic irradiance, used in place of a private PV dataset.

Each day is a clear-sky bell over the daylight window:

    I(t) = I_max * sin(pi * (t - t_rise) / (t_set - t_rise)) ** k

clipped at zero and zero outside the window. Cloudy days multiply the
bell by a temporally correlated attenuation in [0.2, 1.0]: an order-1
autoregressive latent with coefficient 0.9, mapped through
``0.6 + 0.4 * tanh``. The generator is a pure function of
(days, regime, seed, step, daylight), made ``SYNTH_BLOCK_DAYS`` days
at a time (``synthetic_days``), so ``synth`` writes a series that never
exists as one array.
"""

from __future__ import annotations

from collections.abc import Iterator
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
SYNTH_START = datetime(2024, 1, 1)
SYNTH_STEP = 10
# Days generated at once; the values do not depend on it. Each block's
# text starts from its own date, so 8-day blocks took a 730-day synth
# 10 ms longer than these.
SYNTH_BLOCK_DAYS = 32


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
    step: int = SYNTH_STEP,
    start: datetime | None = None,
    daylight: DaylightWindow = DaylightWindow(),
) -> IrradianceSeries:
    """Deterministic synthetic series of ``days`` whole days, with the
    clear-sky bell over ``daylight``: the ``synthetic_days`` blocks in
    one array.

    ``clear``: every day is the bare bell. ``cloudy``: every day is
    attenuated. ``mixed``: each day is independently clear or cloudy
    with equal probability.
    """
    blocks = synthetic_days(days, regime, seed, step, daylight)
    spd = MINUTES_PER_DAY // step
    values = np.empty(days * spd)
    for first, block in blocks:
        values[first * spd : first * spd + block.size] = block
        del block  # so one block at a time exists
    values.setflags(write=False)  # fresh, so the series need not copy it
    return IrradianceSeries(start=start or SYNTH_START, values=values, step=step)


def synthetic_days(
    days: int,
    regime: str = "mixed",
    seed: int = 0,
    step: int = SYNTH_STEP,
    daylight: DaylightWindow = DaylightWindow(),
) -> Iterator[tuple[int, np.ndarray]]:
    """``generate_synthetic``'s values, bit for bit, ``SYNTH_BLOCK_DAYS``
    whole days at a time: (first day, fresh array of the block's values)
    pairs, in order. The arguments are checked before the first block."""
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
    # unit stationary variance. Its start value is drawn after every
    # innovation, so the innovations are drawn and discarded a block at
    # a time to reach it, then drawn again from the saved state.
    firsts = range(0, days, SYNTH_BLOCK_DAYS)
    state = rng.bit_generator.state
    for first in firsts:
        rng.standard_normal(min(SYNTH_BLOCK_DAYS, days - first) * spd)
    u = rng.standard_normal()
    rng.bit_generator.state = state
    bell = clear_sky_day(step, daylight)

    def blocks(u: float) -> Iterator[tuple[int, np.ndarray]]:
        for first in firsts:
            # the block's array holds the innovations, then the latent,
            # the attenuation and the values, each overwriting the last
            day_rows = rng.standard_normal((min(SYNTH_BLOCK_DAYS, days - first), spd))
            day_rows *= np.sqrt(1.0 - AR_COEFF**2)
            for day in day_rows:
                # a day at a time as Python floats, which round each
                # multiply and add as numpy scalars do
                for i, eps in enumerate(day.tolist()):
                    u = AR_COEFF * u + eps
                    day[i] = u
            np.tanh(day_rows, out=day_rows)
            day_rows *= ATTENUATION_HALFWIDTH
            day_rows += ATTENUATION_MID
            day_rows *= bell
            np.copyto(day_rows, bell, where=~cloudy_days[first : first + len(day_rows), None])
            yield first, day_rows.reshape(-1)
            del day, day_rows  # not held while the next block is made

    return blocks(u)
