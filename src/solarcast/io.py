"""Reading and writing the canonical irradiance CSV.

Schema: UTF-8, LF line endings, header ``timestamp,irradiance_wm2``,
one row per sampling slot with an ISO-8601 timestamp. Lines starting
with ``#`` are metadata comments (tools in this package write their
resolved configuration there) and are skipped on load. ``read_text``
is the one place that opens a text input (CSV, model or config file).
"""

from __future__ import annotations

import os
from datetime import datetime, timedelta

import numpy as np

from .errors import DataValidationError, SolarcastError
from .series import IrradianceSeries

CSV_HEADER = "timestamp,irradiance_wm2"


def read_text(path: str | os.PathLike, error: type[SolarcastError], what: str) -> str:
    """The file's UTF-8 text, line endings untouched. A file that is
    missing, unreadable or not UTF-8 raises ``error``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None


def load_csv(path: str | os.PathLike) -> IrradianceSeries:
    """Load and validate a series from the canonical CSV schema.

    Rejects unreadable or non-UTF-8 files, malformed rows (reported
    with their line number), timestamps that mix naive and UTC-offset
    forms, duplicate or missing sampling slots, and negative irradiance
    values.
    """
    lines = read_text(path, DataValidationError, "input file").splitlines()

    timestamps: list[datetime] = []
    values: list[float] = []
    header_seen = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if stripped != CSV_HEADER:
                raise DataValidationError(
                    f"line {lineno}: expected header {CSV_HEADER!r}, got {stripped!r}"
                )
            header_seen = True
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise DataValidationError(
                f"line {lineno}: expected two comma-separated fields, got {len(parts)}"
            )
        try:
            ts = datetime.fromisoformat(parts[0])
        except ValueError:
            raise DataValidationError(
                f"line {lineno}: malformed ISO-8601 timestamp {parts[0]!r}"
            ) from None
        try:
            value = float(parts[1])
        except ValueError:
            raise DataValidationError(
                f"line {lineno}: malformed irradiance value {parts[1]!r}"
            ) from None
        if not np.isfinite(value):
            raise DataValidationError(f"line {lineno}: non-finite irradiance value")
        if value < 0:
            raise DataValidationError(
                f"line {lineno}: negative irradiance {value} at {ts.isoformat()}"
            )
        timestamps.append(ts)
        values.append(value)

    if not header_seen:
        raise DataValidationError(f"{path}: no header line found")
    if len(values) < 2:
        raise DataValidationError(f"{path}: need at least two data rows")

    try:
        step_delta = timestamps[1] - timestamps[0]
        # the first row whose gap to the row before is not the step
        off_grid = next(
            (i for i in range(2, len(timestamps))
             if timestamps[i] - timestamps[i - 1] != step_delta),
            None,
        )
    except TypeError:  # datetime cannot subtract a naive and a UTC-offset timestamp
        first_naive = timestamps[0].tzinfo is None
        odd = next(ts for ts in timestamps if (ts.tzinfo is None) != first_naive)
        raise DataValidationError(
            f"timestamp {odd.isoformat()} mixes naive and UTC-offset forms"
        ) from None
    step_minutes = step_delta.total_seconds() / 60.0
    if step_minutes <= 0 or step_minutes != int(step_minutes):
        raise DataValidationError(
            f"first two rows imply a non-positive or fractional step of {step_minutes} minutes"
        )
    if off_grid is not None:
        prev, found = timestamps[off_grid - 1], timestamps[off_grid]
        if found == prev:
            raise DataValidationError(f"duplicate timestamp {found.isoformat()}")
        try:
            expected = f"sample at {(prev + step_delta).isoformat()}"
        except OverflowError:  # the previous sample is the calendar's last slot
            expected = f"no sample after {prev.isoformat()}"
        raise DataValidationError(
            f"irregular spacing: expected {expected}, found {found.isoformat()}"
        )

    return IrradianceSeries(start=timestamps[0], values=np.array(values), step=int(step_minutes))


def write_csv(
    series: IrradianceSeries,
    path: str | os.PathLike,
    header_comments: dict[str, object] | None = None,
) -> None:
    """Write a series in the canonical schema, with optional
    ``# key=value`` metadata lines before the header."""
    chunks: list[str] = []
    for key, value in (header_comments or {}).items():
        chunks.append(f"# {key}={value}\n")
    chunks.append(CSV_HEADER + "\n")
    ts = series.start
    delta = timedelta(minutes=series.step)
    for value in series.values:
        chunks.append(f"{ts.isoformat()},{value:.17g}\n")
        ts = ts + delta
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(chunks))
