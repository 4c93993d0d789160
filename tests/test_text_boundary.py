"""The text boundary: CSV parsing and formatting, forecast rows and
overlay charts, checked byte for byte against plain-loop oracles in
``conftest.py``; atomic output writes; start-up imports."""

import contextlib
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from xml.sax.saxutils import escape as xml_escape

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solarcast import (
    DataValidationError,
    DaylightWindow,
    ForecastReport,
    MarConfig,
    UsageError,
    fit_all_horizons,
    fit_scaler,
    forecast,
    generate_synthetic,
    load_csv,
    save_mar_model,
    write_csv,
)
from solarcast import cli, io
from solarcast.metrics import report_rows_csv
from solarcast.nn import CnnNetwork, ConvSpec, LstmNetwork, LstmSpec, NeuralModel, nn_forecast
from solarcast.series import IrradianceSeries
from solarcast.svgplot import escape, render_line_chart

from conftest import (
    grid_timestamps_oracle,
    load_csv_oracle,
    report_rows_csv_oracle,
    write_csv_oracle,
)

STARTS = {
    "naive": datetime(2024, 3, 30),
    "+05:30": datetime(2024, 3, 30, tzinfo=timezone(timedelta(hours=5, minutes=30))),
    "-08:00": datetime(2024, 12, 31, tzinfo=timezone(timedelta(hours=-8))),
}
STEPS = (5, 10, 15, 30, 60)
DAYLIGHT = DaylightWindow(360, 1080)  # on every grid in STEPS


def series_at(start: datetime, step: int, days: int, seed: int = 3) -> IrradianceSeries:
    return generate_synthetic(days, "mixed", seed=seed, step=step, start=start)


def reports_for(test: IrradianceSeries) -> list:
    """MAR, AR, CNN and LSTM reports over ``test`` at horizons 1 and 3;
    the networks are untrained, which the row text does not care about."""
    train = series_at(datetime(2024, 1, 1), test.step, 12, seed=8)
    reports = []
    for ensemble in (True, False):
        model = fit_all_horizons(train, MarConfig(order=3, horizons=(1, 3), daylight=DAYLIGHT,
                                                  ensemble_enabled=ensemble))
        reports += [forecast(model, test, h) for h in (1, 3)]
    for spec, network in ((ConvSpec(), CnnNetwork), (LstmSpec(), LstmNetwork)):
        for h in (1, 3):
            model = NeuralModel(spec=spec, horizon=h, params=network(spec, seed=h).params,
                                scaler=fit_scaler(train), daylight=DAYLIGHT, step=test.step)
            reports.append(nn_forecast(model, test))
    return reports


@pytest.mark.parametrize("days", (1, 2, 3))
@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("start", STARTS.values(), ids=STARTS.keys())
class TestByteIdentity:
    def test_write_and_load_match_oracles(self, tmp_path, start, step, days):
        series = series_at(start, step, days)
        path = tmp_path / "s.csv"
        header = {"command": "synth", "days": days}
        write_csv(series, path, header_comments=header)
        assert path.read_text(encoding="utf-8") == write_csv_oracle(series, header)
        loaded, expected = load_csv(path), load_csv_oracle(path)
        assert (loaded.start, loaded.step) == (expected.start, expected.step) == (start, step)
        assert np.array_equal(loaded.values, expected.values)
        assert np.array_equal(loaded.values, series.values)

    def test_report_rows_match_oracle(self, start, step, days):
        reports = reports_for(series_at(start, step, days))
        assert all(len(r) for r in reports)
        assert "".join(report_rows_csv(reports)) == report_rows_csv_oracle(reports)


def test_report_rows_out_of_order_and_empty():
    test = series_at(STARTS["+05:30"], 10, 3)
    report = reports_for(test)[0]
    perm = np.random.default_rng(1).permutation(len(report))
    shuffled = ForecastReport(model="m%d", horizon=2, start=report.start, step=report.step,
                              sample_index=report.sample_index[perm],
                              actual=report.actual[perm], predicted=report.predicted[perm])
    empty = ForecastReport(model="mar", horizon=1, start=report.start, step=report.step,
                           sample_index=[], actual=[], predicted=[])
    reports = [shuffled, empty, report]
    assert "".join(report_rows_csv(reports)) == report_rows_csv_oracle(reports)
    assert "".join(report_rows_csv([])) == report_rows_csv_oracle([])


def test_report_grid_must_start_at_midnight():
    with pytest.raises(DataValidationError, match="midnight"):
        ForecastReport(model="mar", horizon=1, start=datetime(2024, 1, 1, 8), step=10,
                       sample_index=[0], actual=[1.0], predicted=[1.0])


def test_series_start_needs_a_fixed_offset():
    zoneinfo = pytest.importorskip("zoneinfo")
    try:
        zone = zoneinfo.ZoneInfo("Europe/Berlin")
    except zoneinfo.ZoneInfoNotFoundError:
        pytest.skip("no time zone database")
    with pytest.raises(DataValidationError, match="fixed UTC offset"):
        IrradianceSeries(datetime(2024, 3, 30, tzinfo=zone), np.zeros(144), 10)


@pytest.mark.parametrize("start", STARTS.values(), ids=STARTS.keys())
def test_overlay_charts_match_timestamp_masks(tmp_path, start):
    """The overlays, drawn from sample indices, equal the charts drawn
    from first-day masks and hours computed on datetimes, each report's
    curve at its own timestamps."""
    test = series_at(start, 10, 3)
    reports = reports_for(test)
    args = cli.build_parser().parse_args(["compare", "--data", "unread.csv", "--out", str(tmp_path)])
    header = cli._header(vars(args))
    cli._overlay_charts(reports, test, header, str(tmp_path))
    comment = " ".join(f"{k}={v}" for k, v in header.items())
    day_end = start.replace(hour=23, minute=59)
    for h in (1, 3):
        curves = []
        for report in (r for r in reports if r.horizon == h):
            stamps = grid_timestamps_oracle(start, 10, report.sample_index)
            keep = np.array([start <= ts <= day_end for ts in stamps])
            hours = np.array([ts.hour + ts.minute / 60.0 for ts, kept in zip(stamps, keep) if kept])
            if not curves:  # the observed curve at the first report's timestamps
                curves.append(("observed", hours, report.actual[keep]))
            curves.append((report.model, hours, report.predicted[keep]))
        expected = render_line_chart(
            curves, title=f"Observed vs predicted, {h * 10}-minute horizon, {start.date()}",
            x_label="hour of day", y_label="irradiance W/m2", comment=comment)
        assert (tmp_path / f"overlay_h{h}.svg").read_text(encoding="utf-8") == expected


def valid_csv_lines() -> list[str]:
    series = series_at(STARTS["+05:30"], 60, 2)
    return write_csv_oracle(series, {"seed": 3}).splitlines()


EDGE_TOKENS = ("", ",", "#", " ", "nan", "-1", "-0.0", "1e999", "2024-03-30T00:00:00",
               "2024-03-30T01:00:00+05:30", "2024-03-29T19:30:00+00:00", "9999-12-31T23:00:00",
               "\x0c", "\x1c", "\u2028", "\r")


@st.composite
def edited_csv(draw):
    lines = valid_csv_lines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("drop", "repeat", "swap", "replace_field", "append")))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        elif action == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif action == "replace_field":
            head, _, tail = lines[i].partition(",")
            token = draw(st.sampled_from(EDGE_TOKENS) | st.text(max_size=6))
            lines[i] = f"{token},{tail}" if draw(st.booleans()) else f"{head},{token}"
        else:
            lines.insert(i, draw(st.sampled_from(EDGE_TOKENS)))
    return "\n".join(lines) + "\n"


def outcome(loader, path):
    try:
        series = loader(path)
    except DataValidationError as exc:
        return ("error", str(exc))
    return ("series", series.start, series.step, series.values.tolist())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=edited_csv())
def test_edited_files_load_like_the_oracle(tmp_path, text):
    """Same series, or the same message naming the same line."""
    path = tmp_path / "edited.csv"
    path.write_text(text, encoding="utf-8")
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path)


def edit_rows(edit):
    """A naive two-day, 10-minute file as ``write_csv`` writes it, with
    ``edit`` applied to the list of its data rows."""
    lines = write_csv_oracle(series_at(STARTS["naive"], 10, 2), {"seed": 3}).split("\n")
    head = lines.index(io.CSV_HEADER) + 1
    rows = lines[head:-1]
    edit(rows)
    return "\n".join(lines[:head] + rows) + "\n"


def set_value(row, value):
    def edit(rows):
        rows[row] = rows[row].partition(",")[0] + "," + value
    return edit


def drop_rows(*indices):
    def edit(rows):
        for i in sorted(indices, reverse=True):
            del rows[i]
    return edit


def rewrite(pattern, replacement):
    def edit(rows):
        rows[:] = [re.sub(pattern, replacement, row) for row in rows]
    return edit


WRITTEN = edit_rows(lambda rows: None)

# files that are not in write_csv's layout, or hold a value it never
# writes, so that they take the line parser
FALL_THROUGH = {
    "space-separated": edit_rows(rewrite("T", " ")),
    "Z offset": edit_rows(rewrite(",", "Z,")),
    "+00:00 offset": edit_rows(rewrite(",", "+00:00,")),
    "CRLF": WRITTEN.replace("\n", "\r\n"),
    "trailing blank line": WRITTEN + "\n",
    "no final newline": WRITTEN[:-1],
    "comment between rows": edit_rows(lambda rows: rows.insert(40, "# cloud")),
    "spaces around a value": edit_rows(set_value(50, " 12.5 ")),
    "\\x0c before a value": edit_rows(set_value(50, "\x0c12.5")),
    "\\x1c before a value": edit_rows(set_value(50, "\x1c12.5")),
    "\\u2028 before a value": edit_rows(set_value(50, "\u202812.5")),
    "second comma": edit_rows(set_value(50, "12.5,0")),
    "nan": edit_rows(set_value(50, "nan")),
    "inf": edit_rows(set_value(50, "inf")),
    "negative": edit_rows(set_value(50, "-12.5")),
    "cut off mid-day": edit_rows(drop_rows(*range(200, 288))),
    "cut off mid-day with a gap": edit_rows(drop_rows(*range(200, 288), 180)),
}


@pytest.mark.parametrize("text", FALL_THROUGH.values(), ids=FALL_THROUGH.keys())
def test_other_layouts_load_like_the_oracle(tmp_path, text):
    path = tmp_path / "other.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path)


# files whose outcome names a line after many "\r\n" or "\r" breaks
LATE_ERRORS = {
    "CRLF with a nan": edit_rows(set_value(250, "nan")).replace("\n", "\r\n"),
    "CR with a negative": edit_rows(set_value(250, "-1")).replace("\n", "\r"),
}


@pytest.mark.parametrize("chunk", (1, 5, 64, 4096))
@pytest.mark.parametrize("text", [WRITTEN, *FALL_THROUGH.values(), *LATE_ERRORS.values()],
                         ids=["written", *FALL_THROUGH.keys(), *LATE_ERRORS.keys()])
def test_read_chunk_size_does_not_change_the_outcome(tmp_path, monkeypatch, text, chunk):
    """Reads of any size, cutting lines, "\r\n" pairs and the header
    anywhere, load what one whole read does."""
    path = tmp_path / "other.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(io, "READ_CHUNK_BYTES", chunk)
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=edited_csv(), chunk=st.integers(1, 300))
def test_edited_files_load_like_the_oracle_in_small_reads(tmp_path, monkeypatch, text, chunk):
    path = tmp_path / "edited.csv"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(io, "READ_CHUNK_BYTES", chunk)
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path)


def parsed_lines(monkeypatch) -> list[str]:
    """The lines the line parser goes through from now on, collected as
    it returns: each call's lines up to those it hands back."""
    seen: list[str] = []
    parse = io._Rows.parse

    def recording(rows, lines):
        rest = parse(rows, lines)
        seen.extend(lines[: len(lines) - len(rest)])
        return rest

    monkeypatch.setattr(io._Rows, "parse", recording)
    return seen


@pytest.mark.parametrize("step", (5, 60))
@pytest.mark.parametrize("start", STARTS.values(), ids=STARTS.keys())
def test_written_files_take_the_fast_path(tmp_path, monkeypatch, start, step):
    """Of a file that write_csv writes, read in pieces that cut lines
    anywhere, the line parser sees only the comments, the header and
    the two rows that fix the grid; every other row is taken on it."""
    seen = parsed_lines(monkeypatch)
    monkeypatch.setattr(io, "READ_CHUNK_BYTES", 999)
    series = series_at(start, step, 3)
    path = tmp_path / "written.csv"
    write_csv(series, path, header_comments={"command": "synth", "seed": 3})
    loaded = load_csv(path)
    assert (loaded.start, loaded.step) == (start, step)
    assert np.array_equal(loaded.values, series.values)
    assert seen == path.read_text(encoding="utf-8").split("\n")[:5]


OTHER_FORMS = {
    "space-separated": ("T", " "),
    "Z offset": (",", "Z,"),
}


@pytest.mark.parametrize("pattern, replacement", OTHER_FORMS.values(), ids=OTHER_FORMS.keys())
def test_other_timestamp_forms_take_the_fast_path(tmp_path, monkeypatch, pattern, replacement):
    """The grid's slot texts copy the first row's separator and offset
    text: of a written file whose timestamps another tool rewrote, the
    line parser sees only the comments, the header and the first two rows."""
    if replacement == "Z," and sys.version_info < (3, 11):
        pytest.skip("datetime.fromisoformat reads a Z offset from Python 3.11 on")
    seen = parsed_lines(monkeypatch)
    monkeypatch.setattr(io, "READ_CHUNK_BYTES", 999)
    series = series_at(datetime(2024, 1, 1), 10, 3)
    path = tmp_path / "other.csv"
    write_csv(series, path, header_comments={"command": "synth", "seed": 3})
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[3:-1] = [re.sub(pattern, replacement, row, count=1) for row in lines[3:-1]]
    path.write_text("\n".join(lines), encoding="utf-8")
    loaded, oracle = load_csv(path), load_csv_oracle(path)
    assert (loaded.start, loaded.step) == (oracle.start, oracle.step)
    assert np.array_equal(loaded.values, series.values)
    assert seen == lines[:5]


def test_the_grid_is_taken_only_in_the_first_rows_form(tmp_path):
    """Slot texts built from a first row that they do not reproduce (no
    seconds, so its offset is read as the seconds' place) are not taken:
    rows spelled as that grid would spell them load as the oracle reads
    them, not as slots of the grid."""
    stamps = ["2024-01-01T00:00+05:30", "2024-01-01T00:10+05:30"] + [
        f"2024-01-01T{minute // 60:02d}:{minute % 60:02d}:00:30" for minute in range(20, 1440, 10)]
    path = tmp_path / "odd.csv"
    path.write_text(f"{io.CSV_HEADER}\n" + "".join(f"{ts},1\n" for ts in stamps))
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path)
    assert outcome(load_csv, path)[0] == "error"


@pytest.mark.parametrize("newline", ("\n", "\r\n"), ids=("lf", "crlf"))
def test_the_grid_resumes_after_an_odd_block(tmp_path, monkeypatch, newline):
    """A comment line mid-file sends only its own block to the line
    parser, in a file with either line ending: the blocks after it are
    taken on the grid again, and the file loads as the oracle loads it."""
    seen = parsed_lines(monkeypatch)
    monkeypatch.setattr(io, "READ_CHUNK_BYTES", 999)
    path = tmp_path / "commented.csv"
    write_csv(series_at(datetime(2024, 1, 1), 10, 5), path, header_comments={"seed": 3})
    lines = path.read_text(encoding="utf-8").split("\n")
    lines.insert(400, "# a note")
    text = newline.join(lines)
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path)
    pieces = (text[i : i + 999] for i in range(0, len(text), 999))  # ASCII: one byte a character
    noted = next(block for block in io._line_blocks(pieces) if "# a note" in block)
    assert seen == lines[:4] + noted.splitlines()


@pytest.mark.parametrize("first, step, rows, row, expected", [
    # 04:00 is a slot of the 2-hour grid from midnight, not of the one from 01:00
    ("2024-01-01T01:00:00", 120, 2, "2024-01-01T04:00:00", "2024-01-01T05:00:00"),
    # 7 minutes do not divide a day: the next day's midnight is off the grid
    ("2024-01-01T00:00:00", 7, 206, "2024-01-02T00:00:00", "2024-01-02T00:02:00"),
], ids=("off-midnight", "step-not-dividing-a-day"))
def test_only_a_day_aligned_grid_is_taken(tmp_path, first, step, rows, row, expected):
    """The rows after the first two are taken on a grid only when the
    grid starts at a midnight and its step divides a day; otherwise a
    row that the wrong grid would hold is found off the true one."""
    start = datetime.fromisoformat(first)
    stamps = [(start + timedelta(minutes=k * step)).isoformat() for k in range(rows)] + [row]
    path = tmp_path / "odd.csv"
    path.write_text(f"{io.CSV_HEADER}\n" + "".join(f"{ts},1\n" for ts in stamps))
    message = f"irregular spacing: expected sample at {expected}, found {row}"
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path) == ("error", message)


def test_the_calendars_last_day_loads_like_the_oracle(tmp_path):
    """A block that runs past the grid's last day, 9999-12-31, has no
    text for the day after: it goes to the line parser, which finds the
    repeated last slot as the oracle does, and nothing overflows."""
    stamps = [f"9999-12-31T{minute // 60:02d}:{minute % 60:02d}:00" for minute in range(0, 1440, 10)]
    path = tmp_path / "last.csv"
    path.write_text(f"{io.CSV_HEADER}\n" + "".join(f"{ts},1\n" for ts in [*stamps, stamps[-1]]))
    message = "duplicate timestamp 9999-12-31T23:50:00"
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path) == ("error", message)


def test_a_row_without_its_comma_is_not_taken_with_the_next(tmp_path, monkeypatch):
    """A row that lacks its comma, followed by a row with two, holds the
    grid's text and field count between them; the block still goes to
    the line parser, which names the first of the two as the oracle does."""
    seen = parsed_lines(monkeypatch)
    monkeypatch.setattr(io, "READ_CHUNK_BYTES", 999)
    path = tmp_path / "commas.csv"
    write_csv(series_at(datetime(2024, 1, 1), 10, 3), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("2024-01-02T01:40:00,"))
    lines[row : row + 2] = ["2024-01-02T01:40:00", "1,2024-01-02T01:50:00,2"]
    path.write_text("\n".join(lines), encoding="utf-8")
    message = f"line {row + 1}: expected two comma-separated fields, got 1"
    assert outcome(load_csv, path) == outcome(load_csv_oracle, path) == ("error", message)
    assert seen == lines[:3]  # the header and the two rows that fix the grid


@pytest.mark.parametrize("case, lines", [
    ("bad header", ["time,value", "2024-01-01T00:00:00,1"]),
    ("nan", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1", "2024-01-01T00:10:00,nan"]),
    ("overflow", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1e999", "2024-01-01T00:10:00,1"]),
    ("three fields", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1", "2024-01-01T00:10:00,1,2"]),
    ("one field", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1", "2024-01-01T00:10:00"]),
    ("negative after gap", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1",
                            "2024-01-01T00:10:00,1", "2024-01-01T00:30:00,1", "2024-01-01T00:40:00,-1"]),
    ("mixed after gap", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1",
                         "2024-01-01T00:10:00,1", "2024-01-01T00:30:00,1",
                         "2024-01-01T00:40:00+00:00,1"]),
    ("mixed before gap", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1",
                          "2024-01-01T00:10:00,1", "2024-01-01T00:20:00+00:00,1",
                          "2024-01-01T00:40:00,1"]),
    ("zero step", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1", "2024-01-01T00:00:00,1"]),
    ("backwards", ["timestamp,irradiance_wm2", "2024-01-01T00:10:00,1", "2024-01-01T00:00:00,1",
                   "2023-12-31T23:50:00,1"]),
    ("fractional step with gap", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00,1",
                                  "2024-01-01T00:00:30,1", "2024-01-01T00:05:00,1"]),
    ("end of calendar", ["timestamp,irradiance_wm2", "9999-12-31T23:40:00,1",
                         "9999-12-31T23:50:00,1", "9999-12-31T23:55:00,1"]),
    ("offsets change", ["timestamp,irradiance_wm2", "2024-01-01T00:00:00+01:00,1",
                        "2024-01-01T00:10:00+01:00,1", "2024-01-01T00:20:00+01:00,1",
                        "2024-01-01T00:30:00+00:00,1"]),
    ("header only", ["# c", "timestamp,irradiance_wm2", ""]),
    ("nothing", ["# only a comment"]),
])
def test_error_messages_match_oracle(tmp_path, case, lines):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataValidationError) as expected:
        load_csv_oracle(path)
    with pytest.raises(DataValidationError) as found:
        load_csv(path)
    assert str(found.value) == str(expected.value)


def test_load_peak_memory(tmp_path):
    """Loading reads the text a block of lines at a time and keeps only
    the values, so ten times the rows raise the load's peak by the
    values twice, as blocks and as their join, which the series keeps
    without a copy: a 300-day load (10 minutes, 1.33 MB) peaks 0.31 MB
    above a 30-day one, 7.9 bytes per added row. A loader that holds the whole text and its lines, or
    per-row datetime or float lists, adds over 100 bytes a row."""
    peaks = []
    for days in (30, 300):
        path = tmp_path / f"d{days}.csv"
        write_csv(generate_synthetic(days, "mixed", seed=7), path)
        load_csv(path)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            load_csv(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 24 * (300 - 30) * 144


@contextlib.contextmanager
def fifo_with(tmp_path, data: bytes):
    """A named pipe that a thread fills with ``data`` once it is opened,
    as a shell fills ``<(cat file)``. A reader that opens it a second
    time finds it empty, rather than waiting for a writer forever."""
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    done = threading.Event()

    def fill():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)
        while not done.wait(0.01):
            with contextlib.suppress(OSError):  # no reader has it open
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))

    writer = threading.Thread(target=fill, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        done.set()
        writer.join(timeout=10)
    assert not writer.is_alive()


def days_with(days: int, edit) -> bytes:
    """``days`` days as ``write_csv`` writes them, with ``edit`` applied
    to the list of the file's lines."""
    lines = write_csv_oracle(series_at(STARTS["naive"], 10, days), {"seed": 3}).split("\n")
    edit(lines)
    return "\n".join(lines).encode("utf-8")


@pytest.mark.parametrize("row, value, message", [
    (65, "nan", "line 65: non-finite irradiance value"),
    (65, "-1.5", "line 65: negative irradiance -1.5 at 2024-03-30T10:20:00"),
    (2000, "inf", "line 2000: non-finite irradiance value"),
])
def test_a_pipe_is_read_once(tmp_path, row, value, message):
    """A value the fast path refuses, in the first read or a later one,
    is reported with its line, from a pipe as from a file: the pipe is
    not read a second time."""
    def edit(lines):
        lines[row - 1] = lines[row - 1].partition(",")[0] + "," + value

    data = days_with(20, edit)
    path = tmp_path / "file.csv"
    path.write_bytes(data)
    with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
        load_csv(path)
    with fifo_with(tmp_path, data) as pipe, pytest.raises(DataValidationError) as found:
        load_csv(pipe)
    assert str(found.value) == message


def test_a_piped_file_loads(tmp_path):
    with fifo_with(tmp_path, days_with(20, lambda lines: None)) as pipe:
        loaded = load_csv(pipe)
    assert np.array_equal(loaded.values, series_at(STARTS["naive"], 10, 20).values)


def test_cli_names_the_line_of_a_piped_file(tmp_path, capfd):
    def edit(lines):
        lines[64] = lines[64].partition(",")[0] + ",nan"

    with fifo_with(tmp_path, days_with(20, edit)) as pipe:
        assert cli.main(["diagnose", "--data", str(pipe), "--out", str(tmp_path / "out")]) == 2
    assert "line 65: non-finite irradiance value" in capfd.readouterr().err


def whole_text_error_offset(data: bytes) -> int:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.start
    raise AssertionError("the data is UTF-8")


@pytest.mark.parametrize("offset, bad", [
    (200000, b"\xff"),
    (65535, b"\xff"),
    (65536, b"\xff"),
    (65535, b"\xe2\x82"),  # a character cut at the first read's end, never finished
    (131071, b"\xe2"),
    (None, b"\xe2\x82"),  # cut at the end of the file
])
def test_non_utf8_byte_is_named_by_its_file_offset(tmp_path, offset, bad):
    """After the first read too, the byte is named by its offset in the
    file, as one decode of the whole file names it; a value error on an
    earlier line does not hide it."""
    def edit(lines):
        lines[64] = lines[64].partition(",")[0] + ",nan"

    data = days_with(60, edit)
    offset = len(data) if offset is None else offset
    data = data[:offset] + bad + data[offset + len(bad):]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    expected = f"input file {path}: not UTF-8 text (byte {whole_text_error_offset(data)})"
    with pytest.raises(DataValidationError, match=f"^{re.escape(expected)}$"):
        load_csv(path)
    assert whole_text_error_offset(data) in (offset, offset - 1)


def daylight_report(days: int) -> ForecastReport:
    """A report with the rows of a 06:00-18:30 window on ``days`` days."""
    rng = np.random.default_rng(days)
    index = (np.arange(days)[:, None] * 144 + np.arange(36, 112)).reshape(-1)
    return ForecastReport(model="mar", horizon=1, start=datetime(2024, 1, 1), step=10,
                          sample_index=index, actual=rng.uniform(0, 1000, index.size),
                          predicted=rng.uniform(0, 1000, index.size))


def test_report_write_peak_does_not_grow_with_rows(tmp_path):
    """Writing streams the rows a day at a time, so a report ten times
    longer raises the write's peak only by its int64 day numbers: 0.14
    byte per byte of file. A writer that builds the text as one string
    holds about 3 bytes per byte of file."""
    header = {"command": "evaluate"}
    peaks, sizes = [], []
    for days in (30, 300):
        reports = [daylight_report(days)]
        path = tmp_path / f"forecasts_{days}.csv"
        cli._write_text(path, header, report_rows_csv(reports))  # warm caches
        tracemalloc.start()
        try:
            cli._write_text(path, header, report_rows_csv(reports))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        text = "".join(io.comment_lines(header)) + report_rows_csv_oracle(reports)
        assert path.read_text(encoding="utf-8") == text
        sizes.append(os.path.getsize(path))
    assert peaks[1] - peaks[0] < 0.5 * (sizes[1] - sizes[0])


def test_svg_escape_matches_xml_escape():
    for text in ("a<b & c>d", "&amp;", "<<>>&&", "plain", ""):
        assert escape(text) == xml_escape(text)


def test_cli_import_skips_network_modules():
    code = ("import sys, solarcast.cli; "
            "print([m for m in ('urllib.request', 'http.client', 'email') if m in sys.modules])")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(io.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestWriteText:
    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old contents that are longer")
        io.write_text(path, ("new\n",))
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_follows_a_symlink(self, tmp_path):
        (tmp_path / "real.csv").write_text("old\n")
        os.symlink("real.csv", tmp_path / "link.csv")
        io.write_text(tmp_path / "link.csv", ("new\n",))
        assert os.readlink(tmp_path / "link.csv") == "real.csv"
        assert (tmp_path / "real.csv").read_text() == "new\n"

    def test_refuses_a_pipe(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        with pytest.raises(UsageError, match="not a regular file"):
            io.write_text(fifo, ("x",))
        assert os.listdir(tmp_path) == ["pipe"]

    def test_failed_rename_leaves_no_partial_model(self, tmp_path, monkeypatch):
        model = fit_all_horizons(series_at(STARTS["naive"], 10, 12, seed=8))
        path = tmp_path / "mar.model"

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(io.os, "replace", refuse)
        with pytest.raises(UsageError, match=f"cannot write {path}: No space left on device"):
            save_mar_model(model, path)
        assert os.listdir(tmp_path) == []

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text("previous\n")

        def refuse(src, dst):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(io.os, "replace", refuse)
        with pytest.raises(UsageError):
            write_csv(series_at(STARTS["naive"], 60, 1), path)
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["data.csv"]

    @pytest.mark.parametrize("error, raised", [
        (ValueError("bad row"), ValueError),
        (OSError(28, "No space left on device"), UsageError),
    ])
    def test_failing_chunks_keep_the_old_file(self, tmp_path, error, raised):
        """A chunk source that fails partway leaves no temporary file and
        the target as it was; its own exception propagates, and only an
        ``OSError`` becomes a ``UsageError``."""
        path = tmp_path / "forecasts.csv"
        path.write_text("previous\n")

        def chunks():
            yield "timestamp,model,horizon,actual_wm2,predicted_wm2\n"
            yield "x" * (3 * io.WRITE_BUFFER_BYTES)  # reaches the temporary file
            raise error

        with pytest.raises(raised) as found:
            io.write_text(path, chunks())
        if raised is UsageError:
            assert str(found.value) == f"cannot write {path}: No space left on device"
        else:
            assert found.value is error
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["forecasts.csv"]
