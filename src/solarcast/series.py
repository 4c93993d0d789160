"""Irradiance time series on a fixed sampling grid, plus the scaling,
splitting and differencing transforms every model in this package
shares.

A series is a flat vector of values sampled every ``step`` minutes,
starting at midnight, covering a whole number of days. Keeping the grid
implicit (start + index * step) makes irregular spacing unrepresentable;
the CSV loader is where raw files get validated against this contract.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from datetime import datetime, time, timedelta, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataValidationError

MINUTES_PER_DAY = 1440
DEFAULT_SPLIT = 0.70
# Rows a forecast gathers, standardizes and predicts at once, from the
# first: their lags and the model's working arrays. Another size runs
# other BLAS kernels, so blocks are fixed and a network pads the last.
PREDICT_BLOCK_ROWS = 512


@dataclass(frozen=True)
class IrradianceSeries:
    """Fixed-step series of irradiance samples spanning whole days.

    ``values`` are W/m2 for raw data; the same container carries
    standardized (z) and ensemble-deducted values, which may be
    negative, so non-negativity is enforced by the loaders rather
    than here.

    The values are read-only. A read-only array whose owner is too, as
    a view of another series' values is, is kept; any other is copied.
    """

    start: datetime
    values: np.ndarray
    step: int = 10

    def __post_init__(self) -> None:
        if self.step <= 0 or MINUTES_PER_DAY % self.step != 0:
            raise DataValidationError(
                f"step must be a positive divisor of {MINUTES_PER_DAY} minutes, got {self.step}"
            )
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DataValidationError("series values must be one-dimensional")
        if values.size == 0:
            raise DataValidationError("series must contain at least one sample")
        if not np.all(np.isfinite(values)):
            raise DataValidationError("series contains non-finite values")
        spd = MINUTES_PER_DAY // self.step
        if values.size % spd != 0:
            raise DataValidationError(
                f"series length {values.size} is not a whole number of days "
                f"({spd} samples per day at step {self.step})"
            )
        if self.start.time() != time(0, 0) or self.start.second or self.start.microsecond:
            raise DataValidationError(
                f"series must start at midnight for day alignment, got {self.start.isoformat()}"
            )
        if not (self.start.tzinfo is None or isinstance(self.start.tzinfo, timezone)):
            # a zone with daylight saving would put an hour's gap or
            # overlap on the wall-clock grid
            raise DataValidationError(
                f"series start must be naive or carry a fixed UTC offset, got {self.start.tzinfo!r}"
            )
        owner = values
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        if values.flags.writeable or owner.flags.writeable or owner.base is not None:
            values = values.copy()  # so a caller's writable array is never frozen
            values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def samples_per_day(self) -> int:
        return MINUTES_PER_DAY // self.step

    @property
    def n_days(self) -> int:
        return self.values.size // self.samples_per_day

    def __len__(self) -> int:
        return self.values.size

    def timestamp(self, index: int) -> datetime:
        return self.start + timedelta(minutes=index * self.step)

    def day_matrix(self) -> np.ndarray:
        """Values as an (n_days, samples_per_day) array."""
        return self.values.reshape(self.n_days, self.samples_per_day)

    def with_values(self, values: np.ndarray) -> "IrradianceSeries":
        """Same grid, new values."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise DataValidationError(
                f"replacement values have shape {values.shape}, expected {self.values.shape}"
            )
        return IrradianceSeries(start=self.start, values=values, step=self.step)


@dataclass(frozen=True)
class Scaler:
    """Mean/standard-deviation pair fitted on training values only."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu) or not np.isfinite(self.sigma):
            raise DataValidationError("scaler parameters must be finite")
        if self.sigma <= 0:
            raise DataValidationError(f"scaler sigma must be positive, got {self.sigma}")
        if np.isinf(1.0 / float(self.sigma)):  # standardizing would overflow
            raise DataValidationError(f"scaler sigma {self.sigma} has no finite reciprocal")

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Standardized values back on the original scale."""
        return z * self.sigma + self.mu


@dataclass(frozen=True)
class DaylightWindow:
    """Inclusive time-of-day interval, in minutes since midnight,
    over which forecasts and percentage errors are defined."""

    start_minute: int = 360
    end_minute: int = 1110

    def __post_init__(self) -> None:
        if not 0 <= self.start_minute < self.end_minute < MINUTES_PER_DAY:
            raise DataValidationError(
                f"daylight window {self.start_minute}..{self.end_minute} is not a "
                "valid intra-day interval"
            )

    @classmethod
    def parse(cls, text: str) -> "DaylightWindow":
        """Parse 'HH:MM-HH:MM', each minute part 0-59 (an hour past 23
        leaves the day, which the window itself refuses)."""
        try:
            (h0, m0), (h1, m1) = ([int(p) for p in part.split(":")] for part in text.split("-"))
            if not (0 <= m0 < 60 and 0 <= m1 < 60):
                raise ValueError("minute out of range")
        except ValueError as exc:
            raise DataValidationError(f"cannot parse daylight window {text!r}") from exc
        return cls(start_minute=h0 * 60 + m0, end_minute=h1 * 60 + m1)

    def __str__(self) -> str:
        return (
            f"{self.start_minute // 60:02d}:{self.start_minute % 60:02d}-"
            f"{self.end_minute // 60:02d}:{self.end_minute % 60:02d}"
        )

    def slot_bounds(self, step: int) -> tuple[int, int]:
        """First and last in-window slot indices (inclusive) on a grid
        of ``step`` minutes."""
        if self.start_minute % step or self.end_minute % step:
            raise DataValidationError(
                f"daylight window {self} does not fall on the {step}-minute grid"
            )
        return self.start_minute // step, self.end_minute // step


def grid_text(
    start: datetime, step: int, form: str | None = None
) -> tuple[Callable[[int], str], list[str]]:
    """The two parts of each grid slot's timestamp text, in the form of
    ``form``, the text of slot 0, or of ``start.isoformat()`` when it is
    None: a function from a day number to that day's date prefix
    ``YYYY-MM-DD`` and the form's separator, and the time and the form's
    offset text of each slot of a day. ``start`` is a midnight with a
    fixed UTC offset or none, as an ``IrradianceSeries`` start is."""
    form = form or start.isoformat()
    separator = form[len("YYYY-MM-DD") : len("YYYY-MM-DDT")]
    offset = form[len("YYYY-MM-DDTHH:MM:SS") :]
    first_day = start.date()
    suffixes = [
        f"{minute // 60:02d}:{minute % 60:02d}:00{offset}"
        for minute in range(0, MINUTES_PER_DAY, step)
    ]

    def day_prefix(day: int) -> str:
        return (first_day + timedelta(days=day)).isoformat() + separator

    return day_prefix, suffixes


def grid_rows(
    start: datetime, step: int, index: np.ndarray | None, row_tail: str, *columns: np.ndarray
) -> Iterator[str]:
    """Text lines, one per grid slot in ``index``, or per row of the
    columns when ``index`` is None: the slot's timestamp as
    ``(start + slot * step minutes).isoformat()`` writes it, then
    ``row_tail`` %-formatted with the row's value from each column.
    Yields one string per run of rows on one day, so a caller that
    streams them to a file never holds more than a day of text.

    No ``datetime`` is made per row. Each run is one template, the
    day's date prefix before each slot's time-and-offset suffix, filled
    in by one ``%`` operation. ``start`` is a midnight with a fixed UTC
    offset or none, as an ``IrradianceSeries`` start is; ``row_tail``
    has its literal ``%`` signs doubled. Without an ``index`` the
    columns are whole days, walked with no per-row index."""
    day_prefix, suffixes = grid_text(start, step)
    slots_per_day = len(suffixes)
    if index is None:
        runs = ((day, day * slots_per_day, (day + 1) * slots_per_day, suffixes)
                for day in range(len(columns[0]) // slots_per_day))
    else:
        index = np.asarray(index, dtype=np.int64)
        days = index // slots_per_day
        cuts = (np.flatnonzero(days[1:] != days[:-1]) + 1).tolist()
        runs = (
            (int(days[lo]), lo, hi, map(suffixes.__getitem__, (index[lo:hi] % slots_per_day).tolist()))
            for lo, hi in zip([0, *cuts], [*cuts, index.size]) if lo < hi
        )
    for day, lo, hi, day_suffixes in runs:
        prefix = day_prefix(day)
        template = prefix + (row_tail + prefix).join(day_suffixes) + row_tail
        values = [None] * (len(columns) * (hi - lo))
        for k, column in enumerate(columns):
            values[k :: len(columns)] = column[lo:hi].tolist()
        yield template % tuple(values)


def row_index(
    series: IrradianceSeries, daylight: DaylightWindow, lags: int, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """The daylight row policy every model shares: one row per day and
    target slot t whose lag slots t-horizon-lags+1 .. t-horizon and t
    itself all lie inside the daylight window of that day.

    Returns the flat indices of the target samples, day-major and
    slot-ascending, and each row's lag samples, most recent first, as a
    read-only (days, rows per day, lags) strided view of the series'
    values: ``row_spans(...)[:, :, horizon:]``. Both are empty when the
    window is too narrow for the lags and horizon.
    """
    spans = row_spans(series, daylight, lags + horizon)
    first = daylight.slot_bounds(series.step)[0] + lags + horizon - 1
    slots = np.arange(first, first + spans.shape[1], dtype=np.int64)
    day_starts = np.arange(series.n_days, dtype=np.int64) * series.samples_per_day
    return (day_starts[:, None] + slots).reshape(-1), spans[:, :, horizon:]


def row_spans(series: IrradianceSeries, daylight: DaylightWindow, width: int) -> np.ndarray:
    """Each ``row_index`` row's ``width`` = lags + horizon slots, most
    recent first, so the target first and its lags last, as a read-only
    (days, rows per day, width) strided view of the series' values."""
    lo, hi = daylight.slot_bounds(series.step)
    if hi - lo + 1 < width:
        windows = np.empty((series.n_days, 0, width))
        windows.setflags(write=False)
        return windows
    return sliding_window_view(series.day_matrix()[:, lo : hi + 1], width, axis=1)[:, :, ::-1]


def row_blocks(windows: np.ndarray, size: int) -> Iterator[tuple[np.ndarray, tuple]]:
    """``size`` rows at a time from the first, of a (days, rows per day,
    ...) view such as ``row_index``'s: the block's row numbers, and their
    (day, row of the day) index, which gathers the block's values from
    that view, or a view of the same rows, into a fresh array."""
    per_day = windows.shape[1]
    n_rows = windows.shape[0] * per_day
    for start in range(0, n_rows, size):
        rows = np.arange(start, min(start + size, n_rows))
        yield rows, np.divmod(rows, per_day)


def slot_extremes(series: IrradianceSeries) -> IrradianceSeries:
    """Each slot's least, then greatest, value as a two-day series.
    Standardizing rounds monotonically, so it overflows on ``series``
    exactly when it overflows on this."""
    days = series.day_matrix()
    extremes = np.concatenate([days.min(axis=0), days.max(axis=0)])
    return IrradianceSeries(series.start, extremes, series.step)


@dataclass(frozen=True)
class DifferencedSeries:
    """Lag-1 differences plus the anchor subtracted from the first
    element, so the original signal is recoverable by cumulative sum."""

    deltas: np.ndarray
    anchor: float = 0.0

    def __post_init__(self) -> None:
        deltas = np.asarray(self.deltas, dtype=np.float64)
        deltas.setflags(write=False)
        object.__setattr__(self, "deltas", deltas)

    def reconstruct(self) -> np.ndarray:
        return np.cumsum(self.deltas) + self.anchor


def split(
    series: IrradianceSeries, fraction: float = DEFAULT_SPLIT
) -> tuple[IrradianceSeries, IrradianceSeries]:
    """Chronological train/test split on a day boundary, rounding the
    boundary down. Train strictly precedes test; the halves never
    overlap."""
    if not 0.0 < fraction < 1.0:
        raise DataValidationError(f"split fraction must lie in (0, 1), got {fraction}")
    if series.n_days < 2:
        raise DataValidationError("series must span at least two whole days to split")
    train_days = int(fraction * series.n_days)
    if train_days < 1 or train_days >= series.n_days:
        raise DataValidationError(
            f"fraction {fraction} on {series.n_days} days leaves an empty train or test half"
        )
    cut = train_days * series.samples_per_day
    train = IrradianceSeries(series.start, series.values[:cut], series.step)
    test = IrradianceSeries(
        series.start + timedelta(days=train_days), series.values[cut:], series.step
    )
    return train, test


def fit_scaler(train: IrradianceSeries) -> Scaler:
    """Mean and population standard deviation of the training values."""
    mu = float(np.mean(train.values))
    sigma = float(np.std(train.values))
    if sigma == 0.0:
        raise DataValidationError("cannot fit a scaler on a constant-valued series")
    return Scaler(mu=mu, sigma=sigma)


def standardize(series: IrradianceSeries, scaler: Scaler) -> IrradianceSeries:
    # a scaler read from a file may take the data past float64
    with np.errstate(over="ignore"):
        z = series.values - scaler.mu
        z /= scaler.sigma  # in place: no second copy
    if not np.isfinite(z).all():
        raise DataValidationError(
            f"standardizing with scaler mu {scaler.mu:.17g}, sigma {scaler.sigma:.17g} "
            "overflows float64"
        )
    z.setflags(write=False)  # fresh, so the series need not copy it
    return series.with_values(z)


def destandardize(series: IrradianceSeries, scaler: Scaler) -> IrradianceSeries:
    return series.with_values(scaler.inverse(series.values))


def difference_transform(series: IrradianceSeries | np.ndarray) -> DifferencedSeries:
    """Lag-1 difference with the first element anchored at zero:
    [x0 - 0, x1 - x0, ..., xn - x(n-1)]."""
    values = series.values if isinstance(series, IrradianceSeries) else series
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise DataValidationError("difference transform needs at least two samples")
    deltas = np.empty_like(values)
    deltas[0] = values[0]
    deltas[1:] = np.diff(values)
    return DifferencedSeries(deltas=deltas, anchor=0.0)


def inverse_difference(pred_deltas: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Reconstruct predicted values from predicted changes: each output
    is the predicted delta plus the most recent past value (zero for a
    signal's first element)."""
    deltas = np.asarray(pred_deltas, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    if deltas.shape != anchors.shape:
        raise DataValidationError(
            f"need one anchor per predicted delta, got {anchors.shape} anchors "
            f"for {deltas.shape} deltas"
        )
    return deltas + anchors
