"""Reading and writing the canonical irradiance CSV.

Schema: UTF-8, LF line endings, header ``timestamp,irradiance_wm2``,
one row per sampling slot with an ISO-8601 timestamp. Lines starting
with ``#`` are metadata comments (tools in this package write their
resolved configuration there) and are skipped on load. ``read_text``
is the one place that opens a text input (CSV, model or config file),
``write_text`` the one place that writes an output.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Iterable, Iterator
from datetime import datetime, timedelta
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .errors import DataValidationError, SolarcastError, UsageError
from .series import MINUTES_PER_DAY, IrradianceSeries, grid_rows, grid_text

CSV_HEADER = "timestamp,irradiance_wm2"
# day-sized chunks through the default 8 KiB buffer take about twice as
# long to write as through this one
WRITE_BUFFER_BYTES = 1 << 20
# where ``str.splitlines`` breaks a line besides "\n"
OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
MINUTE = timedelta(minutes=1)


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


def write_text(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` as UTF-8 to ``path`` atomically: into a
    temporary file next to it, then renamed over it, so an interrupted
    write never leaves a partial file. The chunks are written as they
    come, so the whole text never exists as one string. A symlink is
    followed; a target that exists but is not a regular file (a device,
    a pipe) is refused rather than replaced. An ``OSError`` raises
    ``UsageError``; an exception from ``chunks`` propagates as it is.
    Either way the temporary file is removed and the target untouched."""
    target = os.path.realpath(path)
    if os.path.lexists(target) and not os.path.isfile(target):
        raise UsageError(f"cannot write {path}: not a regular file")
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n", buffering=WRITE_BUFFER_BYTES) as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None
        raise


def load_csv(path: str | os.PathLike) -> IrradianceSeries:
    """Load and validate a series from the canonical CSV schema.

    Rejects unreadable or non-UTF-8 files, malformed rows (reported
    with their line number), timestamps that mix naive and UTC-offset
    forms, duplicate or missing sampling slots, and negative irradiance
    values.

    A file in ``write_csv``'s layout is checked by comparing its
    timestamp text with the grid's. Any other file is parsed and
    checked line by line.
    """
    text = read_text(path, DataValidationError, "input file")
    # with no other line break in it, the text splits at "\n" into the
    # lines splitlines gives, plus an empty last one after a final "\n"
    plain = not any(map(text.__contains__, OTHER_LINE_BREAKS))
    lines = text.split("\n") if plain else text.splitlines()
    del text
    written = _written_grid(lines) if plain else None
    if written is not None:
        # numpy's first calls below make objects that live on; made once
        # the lines are freed, they keep none of the lines' memory resident
        del lines
        start, values, step = written
        if np.isfinite(values).all() and not (values < 0).any():
            return IrradianceSeries(start, values, step)
        lines = read_text(path, DataValidationError, "input file").splitlines()
    return _parse_lines(lines, path)


def _written_grid(lines: list[str]) -> tuple[datetime, np.ndarray, int] | None:
    """The start, values and step of a file in ``write_csv``'s layout,
    split at "\n": ``#`` comment lines, the header, then whole days of
    rows, each the grid slot's timestamp text, a comma and a value, and
    an empty last line. The values are parsed but not checked. None for
    any other lines, even a valid file's: the line parser decides."""
    skip = next((i for i, line in enumerate(lines) if not line.startswith("#")), 0) + 1
    count = len(lines) - skip - 1
    if lines[skip - 1] != CSV_HEADER or lines[-1] or count < 2:
        return None
    try:
        first_rows = lines[skip : skip + 2]
        start, second = (datetime.fromisoformat(row.partition(",")[0]) for row in first_rows)
        step = (second - start) // MINUTE
        if second - start != step * MINUTE or step <= 0 or MINUTES_PER_DAY % step:
            return None
        day_prefix, suffixes = grid_text(start, step)
        tails = [f"{suffix}," for suffix in suffixes]
        if count % len(tails):
            return None
        days = map(day_prefix, range(count // len(tails)))
        expected = chain.from_iterable([prefix + tail for tail in tails] for prefix in days)
        if not all(map(str.startswith, islice(lines, skip, None), expected)):
            return None
        width = len(day_prefix(0)) + len(tails[0])
        rows = islice(lines, skip, skip + count)
        fields = map(itemgetter(slice(width, None)), rows)
        values = np.fromiter(map(float, fields), np.float64, count)
    except (ValueError, TypeError, OverflowError):
        return None
    return start, values, step


def _step_minutes(step_delta) -> int:
    step_minutes = step_delta.total_seconds() / 60.0
    if step_minutes <= 0 or step_minutes != int(step_minutes):
        raise DataValidationError(
            f"first two rows imply a non-positive or fractional step of {step_minutes} minutes"
        )
    return int(step_minutes)


def _parse_lines(lines: list[str], path: str | os.PathLike) -> IrradianceSeries:
    """The series the lines hold. A file with an error raises the first
    malformed line in file order, else the first break in the grid."""
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
        if not math.isfinite(value):
            raise DataValidationError(f"line {lineno}: non-finite irradiance value")
        if value < 0:
            raise DataValidationError(
                f"line {lineno}: negative irradiance {value} at {ts.isoformat()}"
            )
        timestamps.append(ts)
        values.append(value)

    if not header_seen:
        raise DataValidationError(f"{path}: no header line found")
    if len(timestamps) < 2:
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
    step = _step_minutes(step_delta)
    if off_grid is None:
        return IrradianceSeries(start=timestamps[0], values=np.array(values), step=step)
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


def comment_lines(items: dict[str, object]) -> Iterator[str]:
    """One ``# key=value`` metadata line per item."""
    return (f"# {key}={value}\n" for key, value in items.items())


def write_csv(
    series: IrradianceSeries,
    path: str | os.PathLike,
    header_comments: dict[str, object] | None = None,
) -> None:
    """Write a series in the canonical schema, with optional
    ``# key=value`` metadata lines before the header."""
    body = grid_rows(series.start, series.step, np.arange(len(series)), ",%.17g\n", series.values)
    write_text(path, chain(comment_lines(header_comments or {}), (f"{CSV_HEADER}\n",), body))
