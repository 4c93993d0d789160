"""Reading and writing the canonical irradiance CSV.

Schema: UTF-8, LF line endings, header ``timestamp,irradiance_wm2``,
one row per sampling slot with an ISO-8601 timestamp. Lines starting
with ``#`` are metadata comments (tools in this package write their
resolved configuration there) and are skipped on load. ``read_chunks``
is the one place that opens a text input (CSV or model file),
``write_text`` the one place that writes an output.
"""

from __future__ import annotations

import codecs
import contextlib
import math
import os
from collections.abc import Callable, Iterable, Iterator
from datetime import datetime, time, timedelta
from operator import itemgetter

import numpy as np

from .errors import DataValidationError, UsageError
from .series import MINUTES_PER_DAY, IrradianceSeries, grid_rows, grid_text

CSV_HEADER = "timestamp,irradiance_wm2"
# a 730-day write_csv takes 58-60 ms through this or a 1 MiB buffer (median of
# 25, 2 vCPUs); evaluate holds it while it forecasts, so more only adds RSS
WRITE_BUFFER_BYTES = 1 << 16
# the most bytes of an input read at a time
READ_CHUNK_BYTES = 1 << 16
# where ``str.splitlines`` breaks a line besides "\n"
OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
MINUTE = timedelta(minutes=1)


def read_chunks(path: str | os.PathLike, what: str) -> Iterator[str]:
    """The file's UTF-8 text, line endings untouched, decoded
    ``READ_CHUNK_BYTES`` bytes at a time, so the file is read once and
    only one piece of its text exists at a time. A file that is missing,
    unreadable or not UTF-8 raises ``DataValidationError``; a byte that
    is not UTF-8 is named by its offset in the file."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = 0  # bytes read before this piece
    try:
        with open(path, "rb") as fh:
            while True:
                data = fh.read(READ_CHUNK_BYTES)
                # the first bytes of a character the last piece cut off
                held = len(decoder.getstate()[0])
                try:
                    text = decoder.decode(data, final=not data)
                except UnicodeDecodeError as exc:
                    offset = read - held + exc.start
                    raise DataValidationError(f"{what} {path}: not UTF-8 text (byte {offset})") from None
                if not data:
                    return
                read += len(data)
                yield text
    except FileNotFoundError:
        raise DataValidationError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataValidationError(f"cannot read {what} {path}: {exc.strerror}") from None


def read_text(path: str | os.PathLike, what: str) -> str:
    """The whole of ``read_chunks``: for the small model files."""
    return "".join(read_chunks(path, what))


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

    The file is read once, in blocks of whole lines of about
    ``READ_CHUNK_BYTES``, and each block's values go into an array
    before the next is read, so the memory a load needs grows with the
    values, not the text.
    """
    chunks = read_chunks(path, "input file")
    rows = _Rows(path)
    try:
        for block in _line_blocks(chunks):
            # splitlines, which is slower, only where a break other than "\n" occurs
            odd = any(map(block.__contains__, OTHER_LINE_BREAKS))
            rows.take(block.splitlines() if odd else block.removesuffix("\n").split("\n"))
    except DataValidationError:
        # a byte further on that is not UTF-8 is reported first, as it
        # is when the whole text is decoded before any line is parsed
        for _ in chunks:
            pass
        raise
    return rows.series()


def _line_blocks(chunks: Iterable[str]) -> Iterator[str]:
    """The text of ``chunks`` in blocks that end where ``str.splitlines``
    ends a line of the whole text, so the blocks' lines are the text's
    lines. Only the last block may end without a line break."""
    carry = ""
    for chunk in chunks:
        block = carry + chunk
        # a final "\r" may be the first half of a "\r\n"
        end = len(block) - block.endswith("\r")
        cut = block.rfind("\n", 0, end) + 1
        cut = max(cut, *(block.rfind(brk, cut, end) + 1 for brk in OTHER_LINE_BREAKS))
        carry = block[cut:]
        if cut:
            yield block[:cut]
    if carry:
        yield carry


def _grid(
    first: datetime, step: timedelta, texts: list[str]
) -> tuple[Callable[[int], str], list[str]] | None:
    """The grid of rows from ``first`` on, ``step`` apart, in the text form
    of ``texts``, the first two rows' timestamps, if it starts at a
    midnight, its step is a whole number of minutes that divides a day,
    and its first two slots' texts are ``texts``: ``grid_text``'s day
    prefix by day number and each slot's time text. None for any other."""
    minutes, odd = divmod(step, MINUTE)
    if odd or minutes <= 0 or MINUTES_PER_DAY % minutes or first.time() != time():
        return None
    day_prefix, suffixes = grid_text(first, minutes, texts[0])
    if [day_prefix(k // len(suffixes)) + suffixes[k % len(suffixes)] for k in (0, 1)] != texts:
        return None
    return day_prefix, suffixes


class _Rows:
    """The rows of the lines read so far: their values, a block at a
    time, and what the checks that span rows need to know of them."""

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self.lineno = 0  # lines read
        self.header_seen = False
        self.values: list[np.ndarray] = []
        self.count = 0  # rows read
        self.first: datetime | None = None  # the first row's timestamp
        self.first_text = ""  # and its text
        self.prev: datetime | None = None  # the last row's, as the line parser left it
        self.step: timedelta | None = None  # the gap between the first two rows
        # the first break in the grid: a timestamp whose form is not the
        # first's, or the (previous, found) pair around a wrong gap
        self.fault: datetime | tuple[datetime, datetime] | None = None
        # the grid the first two rows fix, if they fix one
        self.grid: tuple[Callable[[int], str], list[str]] | None = None

    def take(self, lines: list[str]) -> None:
        """Take the next lines: on the grid in one pass when they are its
        next rows, else through the line parser, whose rest goes round again."""
        while lines and not self.take_on_grid(lines):
            lines = self.parse(lines)

    def take_on_grid(self, lines: list[str]) -> bool:
        """Take ``lines`` if, with no break in the grid so far, each starts
        with the next grid slot's timestamp text, in the first row's form,
        and a comma, and ends in a finite non-negative value. False,
        taking nothing, otherwise."""
        if self.grid is None or self.fault is not None:
            return False
        day_prefix, suffixes = self.grid
        day, slot = divmod(self.count, len(suffixes))
        try:
            width = len(day_prefix(day) + suffixes[0]) + 1  # every head's, "<date>T<time>,"
            taken = 0
            while taken < len(lines):  # a day's rows at a time, so few strings are held at once
                rows = lines[taken : taken + len(suffixes) - slot]
                prefix = day_prefix(day)
                # the rows' heads, joined as grid_rows joins a day's rows; a line
                # shorter than its head makes the joined lines shorter than these
                heads = prefix + f",{prefix}".join(suffixes[slot : slot + len(rows)]) + ","
                if "".join(map(itemgetter(slice(width)), rows)) != heads:
                    return False
                taken, day, slot = taken + len(rows), day + 1, 0
            fields = map(itemgetter(slice(width, None)), lines)
            values = np.fromiter(map(float, fields), np.float64, len(lines))
        except (ValueError, OverflowError):  # a value, or a date past the calendar's end
            return False
        if not np.isfinite(values).all() or (values < 0).any():
            return False
        self.lineno += len(lines)
        self.values.append(values)
        self.count += len(values)
        return True

    def parse(self, lines: list[str]) -> list[str]:
        """Parse and check ``lines`` one by one. A malformed line raises;
        the first break in the grid is kept for ``series``. Stops after
        the row that fixes the grid and returns the lines after it."""
        if self.grid is not None and self.fault is None:  # rows taken on the grid set no prev
            self.prev = self.first + (self.count - 1) * self.step
        values: list[float] = []
        taken = len(lines)
        for lineno, line in enumerate(lines, start=self.lineno + 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if not self.header_seen:
                if stripped != CSV_HEADER:
                    raise DataValidationError(
                        f"line {lineno}: expected header {CSV_HEADER!r}, got {stripped!r}"
                    )
                self.header_seen = True
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
            if self.prev is None:
                self.first, self.first_text = ts, parts[0]
            elif self.fault is None:
                try:
                    gap = ts - self.prev
                except TypeError:  # a naive and a UTC-offset timestamp
                    self.fault = ts
                else:
                    if self.step is None:
                        self.step = gap
                        self.grid = _grid(self.first, gap, [self.first_text, parts[0]])
                    elif gap != self.step:
                        self.fault = (self.prev, ts)
            self.prev = ts
            values.append(value)
            if self.grid is not None and self.count + len(values) == 2:  # it fixed the grid
                taken = lineno - self.lineno
                break
        self.lineno += taken
        self.values.append(np.array(values))
        self.count += len(values)
        return lines[taken:]

    def series(self) -> IrradianceSeries:
        """The series the rows hold, once every line is read. A file with
        no malformed line raises its first break in the grid."""
        if not self.header_seen:
            raise DataValidationError(f"{self.path}: no header line found")
        if self.count < 2:
            raise DataValidationError(f"{self.path}: need at least two data rows")
        if isinstance(self.fault, datetime):
            raise DataValidationError(
                f"timestamp {self.fault.isoformat()} mixes naive and UTC-offset forms"
            )
        step = self.step.total_seconds() / 60.0
        if step <= 0 or step != int(step):
            raise DataValidationError(
                f"first two rows imply a non-positive or fractional step of {step} minutes"
            )
        step = int(step)
        if self.fault is None:
            values = np.concatenate(self.values)
            self.values.clear()
            values.setflags(write=False)  # fresh, so the series need not copy it
            return IrradianceSeries(start=self.first, values=values, step=step)
        prev, found = self.fault
        if found == prev:
            raise DataValidationError(f"duplicate timestamp {found.isoformat()}")
        try:
            expected = f"sample at {(prev + self.step).isoformat()}"
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
    write_text(path, csv_text(series.start, series.step, ((0, series.values),), header_comments))


def csv_text(
    start: datetime,
    step: int,
    blocks: Iterable[tuple[int, np.ndarray]],
    header_comments: dict[str, object] | None = None,
) -> Iterator[str]:
    """The canonical schema's text, in chunks, of a series given as
    whole-day blocks of values, (first day, values) pairs in order,
    each block taken as the text reaches it."""
    yield from comment_lines(header_comments or {})
    yield f"{CSV_HEADER}\n"
    for first, values in blocks:
        yield from grid_rows(start + timedelta(days=first), step, None, ",%.17g\n", values)
