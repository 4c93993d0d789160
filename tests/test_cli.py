"""Command-line surface: each subcommand, exit codes, output headers."""

import contextlib
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from datetime import datetime

import numpy as np
import pytest

from solarcast import (
    DaylightWindow,
    fit_scaler,
    generate_synthetic,
    load_csv,
    mae,
    mape,
    rmse,
    save_nn_models,
    split,
    write_csv,
)
from solarcast import cli, mar, svgplot
from solarcast import io as solarcast_io
from solarcast.cli import main
from solarcast.io import READ_CHUNK_BYTES
from solarcast.nn import CnnNetwork, ConvSpec, LstmNetwork, LstmSpec, NeuralModel, train_cnn, train_lstm
from solarcast.series import IrradianceSeries

from conftest import (
    AR4_COEFFS,
    data_lines,
    generate_synthetic_oracle,
    simulate_ar,
    write_csv_oracle,
)


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def mixed_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run("synth", "--days", "40", "--regime", "mixed", "--seed", "7", "--out", str(out)) == 0
    return out / "synthetic_mixed_40d.csv"


class TestSynth:
    def test_row_count_100_days(self, tmp_path):
        assert run("synth", "--days", "100", "--regime", "clear", "--seed", "1",
                   "--out", str(tmp_path)) == 0
        path = tmp_path / "synthetic_clear_100d.csv"
        lines = data_lines(path)
        assert lines[0] == "timestamp,irradiance_wm2"
        assert len(lines) == 14_400 + 1

    def test_same_seed_byte_identical(self, tmp_path):
        # identical invocation twice: byte-identical file
        args = ("synth", "--days", "10", "--regime", "cloudy", "--seed", "5",
                "--out", str(tmp_path))
        path = tmp_path / "synthetic_cloudy_10d.csv"
        assert run(*args) == 0
        first = path.read_bytes()
        path.unlink()
        assert run(*args) == 0
        assert path.read_bytes() == first

    def test_same_seed_same_data_across_out_dirs(self, tmp_path):
        # config headers echo the differing --out; the data must not
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert run("synth", "--days", "10", "--regime", "cloudy", "--seed", "5",
                       "--out", str(d)) == 0
        a = data_lines(a_dir / "synthetic_cloudy_10d.csv")
        b = data_lines(b_dir / "synthetic_cloudy_10d.csv")
        assert a == b

    def test_output_passes_loader(self, tmp_path):
        assert run("synth", "--days", "8", "--regime", "clear", "--seed", "2",
                   "--out", str(tmp_path)) == 0
        series = load_csv(tmp_path / "synthetic_clear_8d.csv")
        assert series.n_days == 8

    def test_header_carries_config(self, tmp_path):
        assert run("synth", "--days", "3", "--regime", "clear", "--seed", "9",
                   "--out", str(tmp_path)) == 0
        text = (tmp_path / "synthetic_clear_3d.csv").read_text()
        assert "# command=synth" in text
        assert "# seed=9" in text

    def test_data_path_makes_no_out_directory(self, tmp_path, monkeypatch, capsys):
        """--out is made only when the series is written into it."""
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--days", "1", "--data", "one.csv", "--out", "nodir") == 0
        assert capsys.readouterr().out == "one.csv\n"
        assert os.listdir(tmp_path) == ["one.csv"]
        assert load_csv(tmp_path / "one.csv").n_days == 1

    def test_help_names_data_the_output_path(self, capsys):
        with pytest.raises(SystemExit):
            run("synth", "--help")
        assert "--data DATA output CSV path" in " ".join(capsys.readouterr().out.split())

    def test_daylight_bounds_the_bell(self, tmp_path):
        """The window the header records is the one the bell spans: every
        value outside it is 0."""
        assert run("synth", "--days", "2", "--daylight", "08:00-16:00", "--regime", "mixed",
                   "--seed", "3", "--out", str(tmp_path)) == 0
        path = tmp_path / "synthetic_mixed_2d.csv"
        assert "# daylight=08:00-16:00\n" in path.read_text()
        days = load_csv(path).values.reshape(2, 144)
        minutes = np.arange(144) * 10
        assert not days[:, (minutes < 480) | (minutes > 960)].any()
        assert days[:, (minutes > 480) & (minutes < 960)].all()

    def test_default_file_unchanged(self, tmp_path):
        """Without --daylight, and with the default window given, the rows
        are those of the whole-array generator."""
        oracle = write_csv_oracle(generate_synthetic_oracle(37, "mixed", seed=7)).splitlines()
        for extra in ((), ("--daylight", "06:00-18:30")):
            out = tmp_path / str(len(extra))
            assert run("synth", "--days", "37", "--regime", "mixed", "--seed", "7",
                       "--out", str(out), *extra) == 0
            assert data_lines(out / "synthetic_mixed_37d.csv") == oracle


class TestSynthCalendarEnd:
    """A series that would run past the calendar's last date is refused
    before any value is made or ``--out`` is created."""

    @pytest.mark.parametrize("days", ["1000000000000", "2913175"])
    def test_exits_1(self, tmp_path, capsys, days):
        out = tmp_path / "out"
        assert run("synth", "--days", days, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: --days {days} runs past 9999-12-31, the last date: "
            "at most 2913174 days fit from 2024-01-01\n")
        assert not out.exists()

    def test_last_day_that_fits_is_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SYNTH_START", datetime(9999, 12, 30))
        assert run("synth", "--days", "3", "--out", str(tmp_path / "late")) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "late").exists()
        assert run("synth", "--days", "2", "--regime", "clear", "--out", str(tmp_path)) == 0
        lines = data_lines(tmp_path / "synthetic_clear_2d.csv")
        assert (lines[1], lines[-1]) == ("9999-12-30T00:00:00,0", "9999-12-31T23:50:00,0")
        assert len(lines) == 1 + 2 * 144


def ar4_csv(path, days=40, seed=3):
    """Solar-grid CSV whose fluctuations follow the reference AR(4):
    offset keeps every value non-negative without clipping."""
    x = simulate_ar(AR4_COEFFS, days * 144, seed=seed)
    values = 500.0 + 40.0 * x
    assert values.min() > 0
    series = IrradianceSeries(datetime(2024, 1, 1), values, 10)
    write_csv(series, path)
    return path


class TestDiagnose:
    def test_recommends_order_4_on_ar4_data(self, tmp_path, capsys):
        data = ar4_csv(tmp_path / "ar4.csv")
        assert run("diagnose", "--data", str(data), "--out", str(tmp_path)) == 0
        assert "recommended order: 4" in capsys.readouterr().out

    def test_white_noise_recommends_order_1(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        values = 500.0 + 40.0 * rng.standard_normal(40 * 144)
        assert values.min() > 0
        write_csv(IrradianceSeries(datetime(2024, 1, 1), values, 10), tmp_path / "wn.csv")
        assert run("diagnose", "--data", str(tmp_path / "wn.csv"), "--out", str(tmp_path)) == 0
        assert "recommended order: 1" in capsys.readouterr().out

    def test_lag_column_spans_zero_to_max(self, tmp_path):
        data = ar4_csv(tmp_path / "ar4.csv")
        assert run("diagnose", "--data", str(data), "--max-lag", "15",
                   "--out", str(tmp_path)) == 0
        lines = data_lines(tmp_path / "diagnostics.csv")
        assert lines[0] == "lag,acf,pacf"
        lags = [int(ln.split(",")[0]) for ln in lines[1:]]
        assert lags == list(range(16))

    def test_z_domain_flag(self, tmp_path):
        data = ar4_csv(tmp_path / "ar4.csv")
        assert run("diagnose", "--data", str(data), "--domain", "z",
                   "--out", str(tmp_path)) == 0


class TestFit:
    def test_emits_mar_model_v1(self, mixed_csv, tmp_path):
        assert run("fit", "--data", str(mixed_csv), "--model", "mar", "--out", str(tmp_path)) == 0
        first = (tmp_path / "mar.model").read_text().splitlines()[0]
        assert first == "mar-model v1"

    def test_refit_is_identical(self, mixed_csv, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert run("fit", "--data", str(mixed_csv), "--model", "mar", "--out", str(d)) == 0
        assert (a_dir / "mar.model").read_bytes() == (b_dir / "mar.model").read_bytes()

    def test_auto_order(self, mixed_csv, tmp_path):
        assert run("fit", "--data", str(mixed_csv), "--model", "mar", "--order", "auto",
                   "--out", str(tmp_path)) == 0

    def test_ar_model_disables_ensemble(self, mixed_csv, tmp_path):
        assert run("fit", "--data", str(mixed_csv), "--model", "ar", "--out", str(tmp_path)) == 0
        assert "ensemble 0" in (tmp_path / "ar.model").read_text()

    def test_daylight_flag_reaches_model(self, mixed_csv, tmp_path):
        assert run("fit", "--data", str(mixed_csv), "--model", "mar",
                   "--daylight", "07:00-17:00", "--out", str(tmp_path)) == 0
        assert "daylight 420 1020" in (tmp_path / "mar.model").read_text()

    def test_nn_fit_writes_loss_curves(self, mixed_csv, tmp_path):
        assert run("fit", "--data", str(mixed_csv), "--model", "cnn", "--horizons", "1",
                   "--out", str(tmp_path)) == 0
        assert (tmp_path / "cnn.model").read_text().splitlines()[0] == "nn-model v1"
        curve = data_lines(tmp_path / "cnn_h1_loss.csv")
        assert curve[0] == "epoch,loss"
        assert len(curve) == 31  # header + 30 epochs


    def test_pool_fit_matches_in_process_training(self, tmp_path):
        data = tmp_path / "short.csv"
        write_csv(generate_synthetic(24, "mixed", seed=4), data)
        assert run("fit", "--data", str(data), "--model", "lstm", "--horizons", "1,3",
                   "--seed", "2", "--out", str(tmp_path)) == 0
        train, _ = split(load_csv(data), 0.7)
        models = [train_lstm(train, horizon=h, daylight=DaylightWindow(), seed=2) for h in (1, 3)]
        save_nn_models(models, tmp_path / "in_process.model")
        assert (tmp_path / "lstm.model").read_bytes() == (tmp_path / "in_process.model").read_bytes()

    def test_worker_error_keeps_its_exit_code(self, tmp_path, capfd):
        data = tmp_path / "five_days.csv"
        write_csv(generate_synthetic(5, "mixed", seed=1), data)
        code = run("fit", "--data", str(data), "--model", "lstm", "--out", str(tmp_path))
        err = capfd.readouterr().err
        assert code == 2
        assert "training windows; need at least 1000" in err
        assert "Traceback" not in err and "BrokenProcessPool" not in err


@pytest.fixture(scope="module")
def mar_file(mixed_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    assert run("fit", "--data", str(mixed_csv), "--model", "mar", "--out", str(out)) == 0
    return out / "mar.model"


class TestEvaluate:
    def test_three_metrics_per_horizon(self, mixed_csv, mar_file, tmp_path, capsys):
        assert run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                   "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "RMSE" in out and "MAE" in out and "MAPE" in out
        lines = data_lines(tmp_path / "summary.csv")
        assert lines[0] == "model,horizon,rmse,mae,mape"
        assert len(lines) == 4  # header + one row per horizon

    def test_summary_recomputable_from_rows(self, mixed_csv, mar_file, tmp_path):
        assert run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                   "--out", str(tmp_path)) == 0
        rows = [ln.split(",") for ln in data_lines(tmp_path / "forecasts.csv")[1:]]
        summary = {
            (parts[0], int(parts[1])): tuple(float(v) for v in parts[2:])
            for parts in (ln.split(",") for ln in data_lines(tmp_path / "summary.csv")[1:])
        }
        for horizon in (1, 3, 6):
            actual = np.array([float(r[3]) for r in rows if int(r[2]) == horizon])
            predicted = np.array([float(r[4]) for r in rows if int(r[2]) == horizon])
            expect = summary[("mar", horizon)]
            assert rmse(actual, predicted) == pytest.approx(expect[0], abs=1e-5)
            assert mae(actual, predicted) == pytest.approx(expect[1], abs=1e-5)
            assert mape(actual, predicted) == pytest.approx(expect[2], abs=1e-5)

    def test_unfitted_horizon_exits_nonzero(self, mixed_csv, tmp_path):
        out = tmp_path / "h1only"
        assert run("fit", "--data", str(mixed_csv), "--model", "mar", "--horizons", "1",
                   "--out", str(out)) == 0
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(out / "mar.model"),
                   "--horizons", "1,6", "--out", str(tmp_path))
        assert code == 1

    def test_recursive_flag(self, mixed_csv, mar_file, tmp_path):
        assert run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                   "--recursive", "--out", str(tmp_path)) == 0

    def test_mape_threshold_changes_summary(self, mixed_csv, mar_file, tmp_path):
        lo_dir, hi_dir = tmp_path / "lo", tmp_path / "hi"
        for threshold, d in (("20", lo_dir), ("300", hi_dir)):
            assert run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                       "--horizons", "1", "--mape-threshold", threshold,
                       "--out", str(d)) == 0
        lo = float(data_lines(lo_dir / "summary.csv")[1].split(",")[4])
        hi = float(data_lines(hi_dir / "summary.csv")[1].split(",")[4])
        assert lo != hi

    def test_nn_model_file_evaluates(self, mixed_csv, tmp_path):
        assert run("fit", "--data", str(mixed_csv), "--model", "cnn", "--horizons", "1",
                   "--out", str(tmp_path)) == 0
        assert run("evaluate", "--data", str(mixed_csv),
                   "--model-file", str(tmp_path / "cnn.model"),
                   "--horizons", "1", "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("kind, expected", [
        ("ar", ["# model=ar", "# order=3", "# ensemble=False"]),
        ("cnn", ["# model=cnn"]),
    ])
    def test_header_records_model_file_settings(self, mixed_csv, tmp_path, kind, expected):
        # the model file fixes these settings, so evaluate's defaults,
        # which differ, must not be echoed in their place
        fit_dir = tmp_path / "fit"
        assert run("fit", "--data", str(mixed_csv), "--model", kind, "--order", "3",
                   "--daylight", "05:00-19:00", "--horizons", "1", "--out", str(fit_dir)) == 0
        assert run("evaluate", "--data", str(mixed_csv),
                   "--model-file", str(fit_dir / f"{kind}.model"), "--horizons", "1",
                   "--out", str(tmp_path)) == 0
        for name in ("summary.csv", "forecasts.csv"):
            header = [ln for ln in (tmp_path / name).read_text().splitlines()
                      if ln.startswith("#")]
            for line in ["# daylight=05:00-19:00", *expected]:
                assert line in header

    def test_recursive_rejected_for_nn(self, mixed_csv, tmp_path, capfd):
        assert run("fit", "--data", str(mixed_csv), "--model", "cnn", "--horizons", "1",
                   "--out", str(tmp_path)) == 0
        capfd.readouterr()
        out = tmp_path / "out"
        code = run("evaluate", "--data", str(mixed_csv),
                   "--model-file", str(tmp_path / "cnn.model"),
                   "--horizons", "1", "--recursive", "--out", str(out))
        assert (code, capfd.readouterr()) == (1, ("", "error: recursive mode applies to mar/ar models only\n"))
        assert os.listdir(out) == []


def untrained_file_lines(kind, mixed_csv, tmp_path_factory):
    """The lines of an untrained one-horizon ``<kind>.model``."""
    train, _ = split(load_csv(mixed_csv), 0.7)
    spec, network = (ConvSpec(), CnnNetwork) if kind == "cnn" else (LstmSpec(), LstmNetwork)
    model = NeuralModel(spec=spec, horizon=1, params=network(spec).params,
                        scaler=fit_scaler(train), daylight=DaylightWindow(), step=train.step)
    path = tmp_path_factory.mktemp("nnfile") / f"{kind}.model"
    save_nn_models([model], path)
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def lstm_file_lines(mixed_csv, tmp_path_factory):
    return untrained_file_lines("lstm", mixed_csv, tmp_path_factory)


@pytest.fixture(scope="module")
def cnn_file_lines(mixed_csv, tmp_path_factory):
    return untrained_file_lines("cnn", mixed_csv, tmp_path_factory)


class TestNnModelFileValidation:
    def evaluate(self, mixed_csv, tmp_path, lines):
        path = tmp_path / "edited.model"
        path.write_text("\n".join(lines) + "\n")
        return run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                   "--horizons", "1", "--out", str(tmp_path))

    def test_unedited_file_evaluates(self, mixed_csv, tmp_path, lstm_file_lines):
        assert self.evaluate(mixed_csv, tmp_path, lstm_file_lines) == 0

    @pytest.mark.parametrize("record, edited, message", [
        ("param fc_b 8 ", "param fc_b 9 ", "parameter fc_b has shape (9,)"),
        ("param out_w 8,1 ", "param out_w 1,8 ", "parameter out_w has shape (1, 8)"),
    ])
    def test_shape_edit(self, mixed_csv, tmp_path, lstm_file_lines, capsys, record, edited, message):
        lines = [ln.replace(record, edited) for ln in lstm_file_lines]
        assert lines != lstm_file_lines
        assert self.evaluate(mixed_csv, tmp_path, lines) == 2
        assert message in capsys.readouterr().err

    def test_dropped_param(self, mixed_csv, tmp_path, lstm_file_lines, capsys):
        lines = [ln for ln in lstm_file_lines if not ln.startswith("param out_w ")]
        assert len(lines) == len(lstm_file_lines) - 1
        assert self.evaluate(mixed_csv, tmp_path, lines) == 2
        assert "missing parameters ['out_w']" in capsys.readouterr().err

    def test_unknown_param(self, mixed_csv, tmp_path, lstm_file_lines, capsys):
        assert self.evaluate(mixed_csv, tmp_path, [*lstm_file_lines, "param w_z 1 0.5"]) == 2
        assert "parameter 'w_z'" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["cnn_file_lines", "lstm_file_lines"])
    def test_window_record_must_match_spec(self, request, mixed_csv, tmp_path, capfd, lines):
        lines = request.getfixturevalue(lines)
        edited = [ln.replace("window 4", "window 6") for ln in lines]
        assert edited != lines
        assert self.evaluate(mixed_csv, tmp_path, edited) == 2
        err = capfd.readouterr().err
        assert "window record 6 does not match the spec's window=4" in err
        assert "Traceback" not in err


class TestEvaluateRefusals:
    """A model file that cannot serve the run is refused through ``main()``
    with its exit code and one stderr line, and nothing is written."""

    @pytest.mark.parametrize("edit, flags, code, message", [
        (None, ["--horizons", "1,3"], 1, "error: model file has no network for horizon 3"),
        (lambda lines: ["not-a-model v1", *lines[1:]], [], 2,
         "data error: {path}: not a recognized model file (first line 'not-a-model v1')"),
        # the refusal comes before the records are parsed
        (lambda lines: [ln.replace("param out_b 1 ", "param out_b 1 x") for ln in lines],
         ["--recursive"], 1, "error: recursive mode applies to mar/ar models only"),
        # NaN is not positive, though "nan <= 0" is false too
        (lambda lines: [ln.replace("learning_rate=0.005", "learning_rate=nan") for ln in lines], [], 2,
         "data error: {path}: spec record: CNN spec field learning_rate must be finite and positive"),
    ], ids=["missing-horizon", "unknown-first-line", "corrupt-and-recursive", "nan-spec-field"])
    def test_exits_with_one_line(self, mixed_csv, tmp_path, capfd, cnn_file_lines,
                                 edit, flags, code, message):
        lines = edit(cnn_file_lines) if edit else cnn_file_lines
        assert edit is None or lines != cnn_file_lines
        path = tmp_path / "cnn.model"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                     "--out", str(out), *flags)
        assert (result, capfd.readouterr()) == (code, ("", message.format(path=path) + "\n"))
        assert os.listdir(out) == []

    @pytest.mark.parametrize("fitted, flags, message", [
        ("1", ["--horizons", "1,6"], "error: model was not fitted for horizon 6"),
        ("3", ["--horizons", "3", "--recursive"],
         "error: recursive forecasting needs a fitted 1-step horizon"),
    ], ids=["unfitted-horizon", "recursive-without-1"])
    def test_mar_file_refused_before_any_forecast(self, mixed_csv, tmp_path, capfd, monkeypatch,
                                                  fitted, flags, message):
        """Every requested horizon is checked when the file loads, so a
        horizon the file can serve is not forecast first."""
        assert run("fit", "--data", str(mixed_csv), "--model", "mar", "--horizons", fitted,
                   "--out", str(tmp_path)) == 0
        capfd.readouterr()
        calls = []
        monkeypatch.setattr(mar, "forecast", lambda *args: calls.append(args))
        out = tmp_path / "out"
        result = run("evaluate", "--data", str(mixed_csv), "--model-file",
                     str(tmp_path / "mar.model"), "--out", str(out), *flags)
        assert (result, capfd.readouterr(), calls) == (1, ("", message + "\n"), [])
        assert os.listdir(out) == []

    def test_horizon_with_no_row_exits_2(self, mixed_csv, mar_file, tmp_path, capfd):
        """A recursive horizon too long for any row of the daylight window is
        refused, naming the file, the horizon and the window, and no file is
        written."""
        out = tmp_path / "out"
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                   "--recursive", "--horizons", "80", "--out", str(out))
        assert (code, capfd.readouterr()) == (2, ("", (
            f"data error: {mar_file}: horizon 80: no row to forecast; daylight window "
            "06:00-18:30 is too narrow for 4 lags and this horizon\n")))
        assert os.listdir(out) == []


class TestModelFileReads:
    def test_evaluate_decodes_the_model_file_once(self, mixed_csv, tmp_path, lstm_file_lines,
                                                  monkeypatch):
        """Finding the format reads at most the file's first piece, and
        the records are decoded once."""
        path = tmp_path / "lstm.model"
        path.write_text("\n".join(lstm_file_lines) + "\n")
        size = path.stat().st_size
        assert size > READ_CHUNK_BYTES  # so a second full read shows
        original, decoded = solarcast_io.read_chunks, []

        def counting(where, *args):
            with contextlib.closing(original(where, *args)) as pieces:
                for piece in pieces:
                    if where == str(path):
                        decoded.append(len(piece))
                    yield piece

        for module in list(sys.modules.values()):
            if module.__name__.startswith("solarcast") and vars(module).get("read_chunks") is original:
                monkeypatch.setattr(module, "read_chunks", counting)
        assert run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                   "--horizons", "1", "--out", str(tmp_path / "out")) == 0
        assert size < sum(decoded) <= size + READ_CHUNK_BYTES

    @pytest.mark.parametrize("flags, code, err", [
        ([], 0, ""),
        (["--recursive"], 1, "error: recursive mode applies to mar/ar models only\n"),
    ])
    def test_no_resource_warning(self, mixed_csv, tmp_path, lstm_file_lines, flags, code, err):
        """The first-piece read closes the file, also when the file is refused
        after it: under ``-X dev -W error`` stderr holds no warning."""
        path = tmp_path / "lstm.model"
        path.write_text("\n".join(lstm_file_lines) + "\n")
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "solarcast", "evaluate",
             "--data", str(mixed_csv), "--model-file", str(path), "--horizons", "1",
             "--out", str(tmp_path / "out"), *flags],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (code, err)


class TestScalarRecords:
    """A scalar record that does not parse is a data error naming the
    file and the record."""

    @pytest.mark.parametrize("lines, record, edited, message", [
        ("cnn_file_lines", "horizon 1", "horizon one", "malformed 'horizon' record 'one'"),
        ("mar_file", "step 10", "step ten", "malformed 'step' record 'ten'"),
        ("lstm_file_lines", "epochs=100", "epochs=two", "spec record: LstmSpec field epochs"),
    ])
    def test_unparsable_record_exits_2(self, request, mixed_csv, tmp_path, capfd,
                                       lines, record, edited, message):
        lines = request.getfixturevalue(lines)
        if not isinstance(lines, list):
            lines = lines.read_text().splitlines()
        edited_lines = [ln.replace(record, edited) for ln in lines]
        assert edited_lines != lines
        path = tmp_path / "edited.model"
        path.write_text("\n".join(edited_lines) + "\n")
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                   "--horizons", "1", "--out", str(tmp_path))
        err = capfd.readouterr().err
        assert code == 2
        assert f"{path}: {message}" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def compare_out(mixed_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    assert run("compare", "--data", str(mixed_csv), "--seed", "7", "--out", str(out)) == 0
    return out


class TestCompare:
    def test_four_by_three_table(self, compare_out):
        lines = data_lines(compare_out / "compare_summary.csv")
        assert len(lines) == 13  # header + 4 models x 3 horizons
        models = {ln.split(",")[0] for ln in lines[1:]}
        assert models == {"mar", "ar", "cnn", "lstm"}

    def test_models_cover_identical_timestamps(self, compare_out):
        rows = [ln.split(",") for ln in data_lines(compare_out / "compare_forecasts.csv")[1:]]
        stamps = {}
        for ts, model, horizon, _, _ in rows:
            stamps.setdefault((model, int(horizon)), []).append(ts)
        reference = stamps[("mar", 1)]
        for model in ("ar", "cnn", "lstm"):
            assert stamps[(model, 1)] == reference

    def test_svg_overlays_well_formed(self, compare_out):
        for h in (1, 3, 6):
            path = compare_out / f"overlay_h{h}.svg"
            assert path.exists()
            ET.parse(path)

    def test_each_overlay_curve_is_at_its_own_rows(self, mixed_csv, tmp_path):
        """At order 2 MAR and AR forecast from an earlier first-day row than
        the networks' 4-step window; each polyline's x values are its own
        model's first-day rows, the observed curve's those of MAR."""
        assert run("compare", "--data", str(mixed_csv), "--order", "2", "--horizons", "1",
                   "--out", str(tmp_path)) == 0
        rows = [ln.split(",") for ln in data_lines(tmp_path / "compare_forecasts.csv")[1:]]
        hours = {}
        for ts, model, _, _, _ in rows:
            if ts[:10] == rows[0][0][:10]:
                hours.setdefault(model, []).append(int(ts[11:13]) + int(ts[14:16]) / 60)
        assert len(hours["mar"]) == len(hours["cnn"]) + 2  # the check has rows to tell apart
        hours["observed"] = hours["mar"]
        lo, hi = min(min(h) for h in hours.values()), max(max(h) for h in hours.values())
        elements = list(ET.parse(tmp_path / "overlay_h1.svg").getroot())
        drawn = {}
        for i, element in enumerate(elements):
            if element.tag.endswith("polyline"):  # its legend line, then its label
                xs = [float(point.split(",")[0]) for point in element.get("points").split()]
                drawn[elements[i + 2].text] = xs
        assert sorted(drawn) == ["ar", "cnn", "lstm", "mar", "observed"]
        width = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
        for model, xs in drawn.items():
            expected = [svgplot.MARGIN_LEFT + (h - lo) / (hi - lo) * width for h in hours[model]]
            assert xs == pytest.approx(expected, abs=0.006), model


def header_keys(path) -> set[str]:
    return {line[2:].split("=", 1)[0] for line in path.read_text().splitlines() if line.startswith("# ")}


def header_value(path, key: str) -> str:
    [value] = [line[2:].split("=", 1)[1] for line in path.read_text().splitlines()
               if line.startswith(f"# {key}=")]
    return value


def help_flags(capsys, command) -> set[str]:
    """The flags a command's --help lists."""
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))


def help_dests(capsys, command) -> set[str]:
    return {flag[2:].replace("-", "_") for flag in help_flags(capsys, command) - {"--help"}}


def test_model_choices_are_mar_ar_then_every_network_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        run("fit", "--help")
    assert exc.value.code == 0
    assert "--model {mar,ar,cnn,lstm}" in capsys.readouterr().out


class TestHeadersRecordWhatRan:
    """Each output's header names the command, each flag it takes, and
    for evaluate the settings its model file fixes; no setting the
    command does not take is echoed at a default."""

    def test_synth(self, tmp_path, capsys):
        assert run("synth", "--days", "1", "--out", str(tmp_path)) == 0
        expected = {"command", *help_dests(capsys, "synth")}
        assert header_keys(tmp_path / "synthetic_mixed_1d.csv") == expected

    def test_diagnose(self, mixed_csv, tmp_path, capsys):
        assert run("diagnose", "--data", str(mixed_csv), "--out", str(tmp_path)) == 0
        expected = {"command", *help_dests(capsys, "diagnose")}
        assert header_keys(tmp_path / "diagnostics.csv") == expected

    def test_flags_are_echoed_as_given(self, mixed_csv, tmp_path):
        """A header records each flag's text, not the value it parses to."""
        assert run("diagnose", "--data", str(mixed_csv), "--daylight", "6:00-18:30",
                   "--out", str(tmp_path)) == 0
        assert header_value(tmp_path / "diagnostics.csv", "daylight") == "6:00-18:30"
        assert run("fit", "--data", str(mixed_csv), "--horizons", "1,3", "--out", str(tmp_path)) == 0
        assert run("evaluate", "--model-file", str(tmp_path / "mar.model"), "--data", str(mixed_csv),
                   "--horizons", "1,03", "--out", str(tmp_path)) == 0
        for name in ("forecasts.csv", "summary.csv"):
            assert header_value(tmp_path / name, "horizons") == "1,03"

    def test_fit(self, mixed_csv, tmp_path, capsys, monkeypatch):
        def one_epoch(specs, train, horizons, daylight, seed):  # in process, for one epoch
            return [train_cnn(train, spec=ConvSpec(epochs=1), horizon=1, seed=seed)]

        monkeypatch.setattr(cli, "train_networks", one_epoch)
        assert run("fit", "--data", str(mixed_csv), "--model", "cnn", "--horizons", "1",
                   "--out", str(tmp_path)) == 0
        expected = {"command", *help_dests(capsys, "fit"), "ensemble"}
        assert header_keys(tmp_path / "cnn_h1_loss.csv") == expected
        # a network runs no ensemble step
        assert header_value(tmp_path / "cnn_h1_loss.csv", "ensemble") == "False"

    @pytest.mark.parametrize("kind", ["mar", "ar", "cnn"])
    def test_evaluate(self, mixed_csv, tmp_path, capsys, cnn_file_lines, kind):
        model_file = tmp_path / f"{kind}.model"
        if kind == "cnn":
            model_file.write_text("\n".join(cnn_file_lines) + "\n")
        else:
            assert run("fit", "--data", str(mixed_csv), "--model", kind, "--horizons", "1",
                       "--out", str(tmp_path)) == 0
        assert run("evaluate", "--data", str(mixed_csv), "--model-file", str(model_file),
                   "--horizons", "1", "--out", str(tmp_path)) == 0
        fixed = {"model", "daylight", "ensemble"} | ({"order"} if kind != "cnn" else set())
        expected = {"command", *help_dests(capsys, "evaluate"), *fixed}
        for name in ("forecasts.csv", "summary.csv"):
            assert header_keys(tmp_path / name) == expected
            assert header_value(tmp_path / name, "ensemble") == str(kind == "mar")

    def test_compare(self, compare_out, capsys):
        expected = {"command", *help_dests(capsys, "compare")}
        for name in ("compare_forecasts.csv", "compare_summary.csv"):
            assert header_keys(compare_out / name) == expected
        for h in (1, 3, 6):
            comment = (compare_out / f"overlay_h{h}.svg").read_text().split("<!--", 1)[1].split("-->")[0]
            assert set(re.findall(r"(?<!\S)(\w+)=", comment)) == expected


class TestExitCodes:
    def test_usage_error_unknown_model(self, mixed_csv, tmp_path, capfd):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run("fit", "--data", str(mixed_csv), "--model", "prophet", "--out", str(out))
        assert exc.value.code == 1
        assert "solarcast fit: error: argument --model: invalid choice: 'prophet'" in capfd.readouterr().err
        assert not out.exists()

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--bogus-flag")
        assert exc.value.code == 1

    def test_usage_error_no_data_flag(self, tmp_path, capfd):
        out = tmp_path / "out"
        for command in ("diagnose", "fit", "evaluate", "compare"):
            extra = ("--model-file", str(tmp_path / "missing.model")) if command == "evaluate" else ()
            with pytest.raises(SystemExit) as exc:
                run(command, *extra, "--out", str(out))
            assert exc.value.code == 1
            assert capfd.readouterr().err.endswith(
                f"solarcast {command}: error: the following arguments are required: --data\n")
            assert not out.exists()

    def test_data_error_missing_file(self, tmp_path):
        assert run("fit", "--data", str(tmp_path / "absent.csv"), "--model", "mar",
                   "--out", str(tmp_path)) == 2

    def test_data_error_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,irradiance_wm2\n2024-01-01T00:00:00,oops\n")
        assert run("diagnose", "--data", str(bad), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("case", ["mixed_offsets", "not_utf8", "directory"])
    def test_unreadable_data_exits_2(self, tmp_path, capfd, case):
        path = tmp_path / "data.csv"
        if case == "mixed_offsets":
            path.write_text("timestamp,irradiance_wm2\n2024-01-01T00:00:00,0\n"
                            "2024-01-01T00:10:00+00:00,0\n")
        elif case == "not_utf8":
            path.write_bytes(b"# caf\xe9\ntimestamp,irradiance_wm2\n")
        else:
            path.mkdir()
        code = run("diagnose", "--data", str(path), "--out", str(tmp_path / "out"))
        err = capfd.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and "Traceback" not in err

    def test_out_under_regular_file_exits_1(self, mixed_csv, tmp_path, capfd):
        (tmp_path / "plain").write_text("")
        code = run("diagnose", "--data", str(mixed_csv), "--out", str(tmp_path / "plain" / "sub"))
        err = capfd.readouterr().err
        assert code == 1
        assert "cannot create output directory" in err and "Traceback" not in err

    def test_unwritable_summary_exits_1(self, mixed_csv, mar_file, tmp_path, capfd):
        out = tmp_path / "o2"
        (out / "summary.csv").mkdir(parents=True)
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                   "--out", str(out))
        err = capfd.readouterr().err
        assert code == 1
        assert f"cannot write {out / 'summary.csv'}" in err and "Traceback" not in err
        assert sorted(os.listdir(out)) == ["forecasts.csv", "summary.csv"]

    def test_synth_onto_a_directory_exits_1(self, tmp_path, capfd):
        target = tmp_path / "taken"
        target.mkdir()
        code = run("synth", "--days", "2", "--data", str(target), "--out", str(tmp_path))
        err = capfd.readouterr().err
        assert code == 1
        assert f"cannot write {target}" in err and "Traceback" not in err
        assert os.listdir(target) == [] and sorted(os.listdir(tmp_path)) == ["taken"]

    def test_numerical_error_rank_deficient(self, tmp_path):
        # per-day-constant data: every lag column of the deducted
        # design matrix is identical, so the fit is rank 1
        values = np.repeat(np.arange(1.0, 21.0) * 50.0, 144)
        write_csv(IrradianceSeries(datetime(2024, 1, 1), values, 10), tmp_path / "flat.csv")
        code = run("fit", "--data", str(tmp_path / "flat.csv"),
                   "--model", "mar", "--out", str(tmp_path))
        assert code == 3


    def test_numerical_error_names_horizon_and_lag_scale(self, tmp_path, capfd):
        """The 06:00 slot reads 0 W/m2 on every training day, so the
        standardized, deducted lag column is rounding noise."""
        assert run("synth", "--days", "30", "--regime", "mixed", "--seed", "7",
                   "--out", str(tmp_path)) == 0
        code = run("fit", "--model", "mar", "--daylight", "06:00-06:30", "--order", "1",
                   "--data", str(tmp_path / "synthetic_mixed_30d.csv"), "--out", str(tmp_path))
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("numerical error: horizon 3: normal-equation optimality violated")
        match = re.search(r"; lag 1 column peaks at \|x\| = (\S+)\n$", err)
        assert match and 0 < float(match.group(1)) < 1e-12

    def test_horizon_wider_than_window_names_the_slot_arithmetic(self, mixed_csv, tmp_path, capfd):
        """h=6 at order 1 needs 7 slots; 06:00-06:30 holds 4."""
        code = run("fit", "--model", "mar", "--daylight", "06:00-06:30", "--order", "1",
                   "--data", str(mixed_csv), "--out", str(tmp_path))
        err = capfd.readouterr().err
        assert code == 2
        assert err == (
            "data error: horizon 6: only 0 design rows for order 1 (28 days x 0 rows per "
            "day); a row spans order + horizon = 7 slots and daylight window 06:00-06:30 "
            "holds 4 at 10-minute steps; need at least 10 for a stable fit\n"
        )


class TestOneDayTrainingSplit:
    """The ensemble profile of a one-day training split is that day, so
    the ensemble-deducted series is zero: one data error, whichever
    command fits on it. The plain AR model deducts nothing and fits."""

    MESSAGE = ("data error: the ensemble-deducted training series is all zero: every "
               "training day equals the ensemble profile, as the only day of a one-day "
               "training split does\n")

    @pytest.mark.parametrize("command", [
        ("diagnose",), ("fit", "--model", "mar"), ("compare",),
    ], ids=["diagnose", "fit-mar", "compare"])
    def test_exits_2_naming_the_cause(self, mixed_csv, tmp_path, capfd, command):
        code = run(*command, "--data", str(mixed_csv), "--split", "0.04",
                   "--out", str(tmp_path))
        assert (code, capfd.readouterr().err) == (2, self.MESSAGE)

    def test_ar_fits(self, mixed_csv, tmp_path):
        assert run("fit", "--model", "ar", "--data", str(mixed_csv), "--split", "0.04",
                   "--out", str(tmp_path)) == 0


class TestMapeThreshold:
    """At a threshold of 0 or below, MAPE divides by dawn's near-zero
    actuals, so such a threshold is a usage error."""

    @pytest.mark.parametrize("value, shown", [
        ("0", "0.0"),
        ("-5", "-5.0"),
        ("nan", "nan"),
    ], ids=["zero", "negative", "nan"])
    def test_exits_1(self, mixed_csv, mar_file, tmp_path, capfd, value, shown):
        out = tmp_path / "out"
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                   "--out", str(out), "--mape-threshold", value)
        err = capfd.readouterr().err
        assert code == 1
        assert err == f"error: mape threshold must be a positive, finite W/m2 value, got {shown}\n"
        assert not out.exists()


class TestNegativeSeed:
    """numpy's generators take non-negative seeds only, so a negative one
    is a usage error, found before any data is read or worker started."""

    @pytest.mark.parametrize("argv", [
        ("synth", "--days", "1", "--seed", "-1"),
        ("fit", "--model", "cnn", "--seed", "-1"),
    ], ids=["synth", "fit-cnn"])
    def test_exits_1(self, mixed_csv, tmp_path, capfd, monkeypatch, argv):
        def no_training(*args):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(cli, "train_networks", no_training)
        out = tmp_path / "out"
        code = run(*argv, "--data", str(mixed_csv), "--out", str(out))
        err = capfd.readouterr().err
        assert code == 1
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestOverflowingModelFile:
    """A model file whose values overflow the forecast is a data error
    naming the file and the horizon, with no RuntimeWarning on the way."""

    @pytest.mark.parametrize("lines, record, edit", [
        ("mar_file", "scaler", lambda fields: ["0", "1e308"]),
        ("mar_file", "weights", lambda fields: [fields[0], "1e308", *fields[2:]]),
        ("cnn_file_lines", "param", lambda fields: [*fields[:2], "1e308", *fields[3:]]),
        # deducting this profile from the lags does not overflow; the forecasts do
        ("mar_file", "profile_means", lambda fields: ["-1.7e308"] * len(fields)),
        # the forecasts overflow toward -inf, which a clip at zero would hide
        ("mar_file", "profile_means", lambda fields: ["1.7e308"] * len(fields)),
    ], ids=["mar-scaler", "mar-weight", "cnn-param", "mar-profile", "mar-profile-up"])
    def test_exits_2(self, request, mixed_csv, tmp_path, lines, record, edit):
        lines = request.getfixturevalue(lines)
        if not isinstance(lines, list):
            lines = lines.read_text().splitlines()
        edited_lines = []
        for line in lines:
            key, _, rest = line.partition(" ")
            edited_lines.append(" ".join([key, *edit(rest.split())]) if key == record else line)
        assert edited_lines != lines
        path = tmp_path / "edited.model"
        path.write_text("\n".join(edited_lines) + "\n")
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "solarcast", "evaluate",
             "--data", str(mixed_csv), "--model-file", str(path), "--horizons", "1",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == f"data error: {path}: horizon 1 forecasts overflow float64; " \
                                "check its scaler, profile and weights\n"

    @pytest.mark.parametrize("edit", [
        lambda fields: fields[:-1],
        lambda fields: fields + fields,
    ], ids=["one-slot-short", "doubled"])
    def test_misaligned_profile_exits_2(self, mixed_csv, mar_file, tmp_path, edit):
        """A profile with another slot count than the model's step gives a day
        is refused naming the file, and no traceback is printed."""
        lines = []
        for line in mar_file.read_text().splitlines():
            key, _, rest = line.partition(" ")
            lines.append(" ".join([key, *edit(rest.split())]) if key.startswith("profile_") else line)
        path = tmp_path / "edited.model"
        path.write_text("\n".join(lines) + "\n")
        slots = len(lines[[ln.split()[0] for ln in lines].index("profile_means")].split()) - 1
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "solarcast", "evaluate",
             "--data", str(mixed_csv), "--model-file", str(path), "--horizons", "1",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (2, f"data error: {path}: profile has {slots} "
                                                         "slots but the series has 144 samples per day\n")

    def test_late_horizon_leaves_no_output(self, mixed_csv, mar_file, tmp_path, capfd):
        """Horizons 1 and 3 forecast and stream their rows before horizon 6
        overflows: the forecasts file already there stays as it was, no
        summary is written and no temporary file is left."""
        lines = mar_file.read_text().splitlines()
        edited = [" ".join(["weights", "6", "1e308", *ln.split()[3:]])
                  if ln.startswith("weights 6 ") else ln for ln in lines]
        assert sum(a != b for a, b in zip(lines, edited)) == 1
        path = tmp_path / "edited.model"
        path.write_text("\n".join(edited) + "\n")
        assert run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                   "--horizons", "1,3", "--out", str(tmp_path / "early")) == 0
        out = tmp_path / "out"
        assert run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                   "--out", str(out)) == 0
        (out / "summary.csv").unlink()
        before = (out / "forecasts.csv").read_bytes()
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                       "--out", str(out))
        assert (code, capfd.readouterr()) == (2, ("", (
            f"data error: {path}: horizon 6 forecasts overflow float64; "
            "check its scaler, profile and weights\n")))
        assert os.listdir(out) == ["forecasts.csv"]
        assert (out / "forecasts.csv").read_bytes() == before


class TestSubnormalScaler:
    """A scaler sigma whose reciprocal overflows is a data error naming
    the file and the record, found at load with no RuntimeWarning."""

    @pytest.mark.parametrize("lines", ["mar_file", "cnn_file_lines"])
    def test_exits_2(self, request, mixed_csv, tmp_path, lines):
        lines = request.getfixturevalue(lines)
        if not isinstance(lines, list):
            lines = lines.read_text().splitlines()
        edited_lines = ["scaler 0 1e-320" if ln.startswith("scaler ") else ln for ln in lines]
        assert edited_lines != lines
        path = tmp_path / "edited.model"
        path.write_text("\n".join(edited_lines) + "\n")
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "solarcast", "evaluate",
             "--data", str(mixed_csv), "--model-file", str(path), "--horizons", "1",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == (f"data error: {path}: scaler record: "
                                 "scaler sigma 1e-320 has no finite reciprocal\n")


class TestScalerOverflowingTheData:
    """A scaler whose sigma has a finite reciprocal can still take the
    data past float64: a data error naming the file, with no
    RuntimeWarning."""

    @pytest.mark.parametrize("lines", ["mar_file", "cnn_file_lines"])
    def test_exits_2(self, request, mixed_csv, tmp_path, capfd, lines):
        lines = request.getfixturevalue(lines)
        if not isinstance(lines, list):
            lines = lines.read_text().splitlines()
        path = tmp_path / "edited.model"
        path.write_text("\n".join("scaler 0 2.2250738585072014e-308" if ln.startswith("scaler ")
                                  else ln for ln in lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                       "--horizons", "1", "--out", str(tmp_path / "out"))
        assert (code, capfd.readouterr().err) == (2, (
            f"data error: {path}: standardizing with scaler mu 0, "
            "sigma 2.2250738585072014e-308 overflows float64\n"))


# every flag each command takes, its own and its settings'
COMMAND_FLAGS = {
    "synth": {"--days", "--regime", "--data", "--daylight", "--seed", "--out"},
    "diagnose": {"--max-lag", "--domain", "--data", "--split", "--daylight", "--out"},
    "fit": {"--data", "--split", "--order", "--horizons", "--daylight", "--model", "--seed", "--out"},
    "evaluate": {"--model-file", "--data", "--split", "--horizons", "--out", "--mape-threshold",
                 "--recursive"},
    "compare": {"--data", "--split", "--order", "--horizons", "--daylight", "--seed", "--out",
                "--mape-threshold"},
}
SETTING_FLAGS = ["--data", "--split", "--order", "--horizons", "--daylight", "--model", "--seed",
                 "--out", "--mape-threshold", "--recursive", "--config"]


class TestCommandFlags:
    """Each command takes a flag for only the settings it uses; any other
    setting's flag, or ``--config``, is argparse's usage error, found
    before the data is read or ``--out`` is made."""

    REQUIRED = {"synth": ("--days", "1"), "evaluate": ("--model-file", "missing.model")}

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_exactly_its_flags(self, capsys, command):
        assert help_flags(capsys, command) == {"--help", *COMMAND_FLAGS[command]}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, taken in COMMAND_FLAGS.items()
        for flag in SETTING_FLAGS if flag not in taken
    ])
    def test_other_flags_exit_1(self, tmp_path, capfd, command, flag):
        data, out = tmp_path / "missing.csv", tmp_path / "out"
        value = () if flag == "--recursive" else ("1",)
        with pytest.raises(SystemExit) as exc:
            run(command, *self.REQUIRED.get(command, ()), "--data", str(data), flag, *value,
                "--out", str(out))
        err = capfd.readouterr().err
        assert exc.value.code == 1
        assert err.endswith(f"solarcast: error: unrecognized arguments: {' '.join((flag, *value))}\n")
        assert "Traceback" not in err
        assert not out.exists() and not data.exists()


class TestNoEnsembleKnob:
    """Plain AR is ``--model ar``; there is no other way to ask for it."""

    def test_flag_exits_1(self, mixed_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--data", str(mixed_csv), "--model", "mar", "--no-ensemble", "--out", str(tmp_path))
        assert exc.value.code == 1
        assert not (tmp_path / "mar.model").exists()


def test_installed_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "solarcast", "synth", "--days", "2", "--regime", "clear",
         "--seed", "0", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "synthetic_clear_2d.csv").exists()


class TestRepeatedHorizons:
    """A horizon listed twice is refused: as a flag before anything
    runs, in a model file as a data error naming the file and the
    horizon."""

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_flag_exits_1(self, mixed_csv, mar_file, tmp_path, capfd, command):
        extra = ("--model", "mar") if command == "fit" else ("--model-file", str(mar_file))
        out = tmp_path / "out"
        code = run(command, *extra, "--data", str(mixed_csv), "--horizons", "1,1,3",
                   "--out", str(out))
        assert (code, capfd.readouterr().err) == (
            1, "error: horizons must not repeat, got '1,1,3'\n")
        assert not any(out.glob("*.model")) and not any(out.glob("*.csv"))

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [ln.replace("horizons 1,3,6", "horizons 1,3,1") for ln in lines],
         "horizons record repeats horizon 1"),
        (lambda lines: [*lines, "weights 1 0.5 0.5 0.5 0.5"],
         "a second weights record for horizon 1"),
    ], ids=["horizons-record", "weights-record"])
    def test_mar_file_exits_2(self, mixed_csv, mar_file, tmp_path, capfd, edit, message):
        lines = mar_file.read_text().splitlines()
        edited = edit(lines)
        assert edited != lines
        path = tmp_path / "edited.model"
        path.write_text("\n".join(edited) + "\n")
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                   "--horizons", "1", "--out", str(tmp_path / "out"))
        assert (code, capfd.readouterr().err) == (2, f"data error: {path}: {message}\n")

    def test_nn_file_section_exits_2(self, mixed_csv, tmp_path, capfd, lstm_file_lines):
        section = lstm_file_lines[lstm_file_lines.index("horizon 1"):]
        path = tmp_path / "edited.model"
        path.write_text("\n".join([*lstm_file_lines, *section]) + "\n")
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                   "--horizons", "1", "--out", str(tmp_path / "out"))
        assert (code, capfd.readouterr().err) == (
            2, f"data error: {path}: a second section for horizon 1\n")


class TestFlagValueExitCodes:
    """A flag value that no data could make valid is a usage error;
    one that fails only against this data is a data error."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--split", "1.5", "split fraction must lie in (0, 1), got 1.5"),
        ("--split", "nan", "split fraction must lie in (0, 1), got nan"),
        ("--daylight", "25:00-26:00",
         "daylight window 1500..1560 is not a valid intra-day interval"),
        ("--daylight", "dawn-dusk", "cannot parse daylight window 'dawn-dusk'"),
        # a minute past 59 would carry into the hour: 06:60 read as 07:00
        ("--daylight", "06:60-18:00", "cannot parse daylight window '06:60-18:00'"),
        ("--daylight", "00:400-18:00", "cannot parse daylight window '00:400-18:00'"),
        ("--max-lag", "0", "--max-lag must be >= 1, got 0"),
    ])
    def test_exits_1(self, mixed_csv, tmp_path, capfd, flag, value, message):
        code = run("diagnose", "--data", str(mixed_csv), flag, value, "--out", str(tmp_path))
        assert (code, capfd.readouterr().err) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("fit", "--model", "mar", "--horizons", "0"), "horizons must be positive step counts, got '0'"),
        (("fit", "--model", "mar", "--horizons", "1,1"), "horizons must not repeat, got '1,1'"),
        (("fit", "--model", "mar", "--order", "0"), "order must be >= 1, got 0"),
        (("fit", "--model", "mar", "--order", "x"), "order must be an integer or 'auto', got 'x'"),
        (("synth", "--days", "1", "--daylight", "dawn-dusk"), "cannot parse daylight window 'dawn-dusk'"),
        (("fit", "--model", "mar", "--daylight", "06:60-18:00"),
         "cannot parse daylight window '06:60-18:00'"),
    ], ids=["horizons-0", "horizons-repeat", "order-0", "order-x", "synth-daylight", "daylight-minute"])
    def test_refused_before_the_data_is_read(self, tmp_path, capfd, argv, message):
        """A missing data file is not reached: the flag is refused first,
        and nothing is written. ``synth`` writes its series to ``--data``."""
        data, out = tmp_path / "missing.csv", tmp_path / "out"
        code = run(*argv, "--data", str(data), "--out", str(out))
        assert (code, capfd.readouterr().err) == (1, f"error: {message}\n")
        assert not out.exists() and not data.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--daylight", "06:05-18:00", "does not fall on the 10-minute grid"),
        ("--max-lag", "100000", "must be smaller than series length"),
        ("--split", "0.01", "leaves an empty train or test half"),
    ])
    def test_data_dependent_exits_2(self, mixed_csv, tmp_path, capfd, flag, value, message):
        code = run("diagnose", "--data", str(mixed_csv), flag, value, "--out", str(tmp_path))
        err = capfd.readouterr().err
        assert code == 2 and err.startswith("data error: ") and message in err


class TestUndeclaredWeights:
    """A ``weights h`` record for a horizon that the ``horizons`` record
    does not declare is a data error naming the file and the horizon,
    whatever the vector holds; no such vector is ever forecast with."""

    @pytest.mark.parametrize("edit, horizon", [
        ({}, 3),
        ({"weights 3": None, "weights 6": "weights 6 0.5 0.5 0.5"}, 6),
        ({"weights 3": "weights 3 nan nan nan nan", "weights 6": None}, 3),
    ], ids=["fitted-vectors", "short-vector", "nan-vector"])
    def test_exits_2(self, mixed_csv, mar_file, tmp_path, capfd, edit, horizon):
        lines = ["horizons 1" if ln == "horizons 1,3,6" else ln
                 for ln in mar_file.read_text().splitlines()]
        for record, replacement in edit.items():
            [i] = [i for i, ln in enumerate(lines) if ln.startswith(record + " ")]
            lines[i:i + 1] = [] if replacement is None else [replacement]
        assert "horizons 1" in lines and f"weights {horizon}" in " ".join(lines)
        path = tmp_path / "edited.model"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                   "--horizons", str(horizon), "--out", str(out))
        assert (code, capfd.readouterr().err) == (
            2, f"data error: {path}: weights record for undeclared horizon {horizon}\n")
        assert not out.exists() or not any(out.iterdir())


class TestUnreachableMapeThreshold:
    """A MAPE threshold that no actual reaches fails before any output is
    written; ``compare`` finds it on the MAR and AR forecasts, which
    cover the networks' target slots, before any training."""

    EARLIER = "an earlier run's forecasts\n"

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_exits_2_writing_nothing(self, mixed_csv, mar_file, tmp_path, capfd, monkeypatch,
                                     command):
        def no_training(*args):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(cli, "train_networks", no_training)
        extra, prefix = ((("--model-file", str(mar_file)), "") if command == "evaluate"
                         else ((), "compare_"))
        out = tmp_path / "out"
        out.mkdir()
        earlier = out / f"{prefix}forecasts.csv"
        earlier.write_text(self.EARLIER)
        code = run(command, *extra, "--data", str(mixed_csv), "--mape-threshold", "1e308",
                   "--out", str(out))
        assert (code, capfd.readouterr().err) == (
            2, "data error: no pairs with actual >= 1e+308 W/m2; cannot compute MAPE\n")
        assert [p.name for p in out.iterdir()] == [earlier.name]
        assert earlier.read_text() == self.EARLIER


def _replace_record(key: str, value: str):
    """An edit that replaces the first value of a ``key`` record."""
    return lambda line: f"{key} {value} {line.split(' ', 2)[2]}"


class TestModelFileNamedOnce:
    """A model file whose records parse but hold values no model may
    take is a data error that names the file once, then the record;
    nothing is written."""

    @pytest.mark.parametrize("lines, key, edit, message", [
        ("mar_file", "weights 6", lambda line: " ".join(line.split()[:5]),
         "horizon 6 weight vector has shape (3,), expected (4,)"),
        ("mar_file", "weights 3", lambda line: "weights 3 nan nan nan nan",
         "horizon 3 weights contain non-finite values"),
        ("mar_file", "profile_means", _replace_record("profile_means", "nan"),
         "profile records: profile means must be finite"),
        ("mar_file", "profile_support", _replace_record("profile_support", "0"),
         "profile records: every profile slot needs at least one supporting day"),
        ("mar_file", "daylight", lambda line: "daylight 1110 360",
         "daylight record: daylight window 1110..360 is not a valid intra-day interval"),
        ("mar_file", "ensemble", lambda line: "ensemble 2", "ensemble record must be 0 or 1, got 2"),
        ("mar_file", "order", lambda line: "order -1", "order must be >= 1, got -1"),
        ("lstm_file_lines", "daylight", lambda line: "daylight 1110 360",
         "daylight record: daylight window 1110..360 is not a valid intra-day interval"),
    ], ids=["mar-short-weights", "mar-nan-weights", "mar-nan-profile", "mar-zero-support",
            "mar-daylight", "mar-ensemble", "mar-order", "nn-daylight"])
    def test_exits_2(self, request, mixed_csv, tmp_path, capfd, lines, key, edit, message):
        lines = request.getfixturevalue(lines)
        if not isinstance(lines, list):
            lines = lines.read_text().splitlines()
        [i] = [i for i, line in enumerate(lines) if line.startswith(key + " ")]
        edited = [*lines[:i], edit(lines[i]), *lines[i + 1:]]
        assert edited != lines
        path = tmp_path / "edited.model"
        path.write_text("\n".join(edited) + "\n")
        out = tmp_path / "out"
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(path),
                   "--horizons", "1", "--out", str(out))
        err = capfd.readouterr().err
        assert (code, err) == (2, f"data error: {path}: {message}\n")
        assert err.count(str(path)) == 1
        assert not any(out.iterdir())

    def test_unfitted_horizon_exits_1_writing_nothing(self, mixed_csv, mar_file, tmp_path, capfd):
        out = tmp_path / "out"
        code = run("evaluate", "--data", str(mixed_csv), "--model-file", str(mar_file),
                   "--horizons", "2", "--out", str(out))
        assert (code, capfd.readouterr().err) == (1, "error: model was not fitted for horizon 2\n")
        assert not any(out.iterdir())
