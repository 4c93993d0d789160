"""Property tests for the commands: whatever values the flags take,
``main()`` returns exit code 0, 1, 2 or 3 with no exception escaping and
no numpy warning on the way, and exit 0 comes only with finite metrics.
One MAR model is fitted once and reused; no network is trained."""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from solarcast import generate_synthetic, write_csv
from solarcast.cli import main

from conftest import data_lines

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

EXIT_CODES = {0, 1, 2, 3}


def _clock(minute):
    return f"{minute // 60:02d}:{minute % 60:02d}"


odd_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -1.0, 5e-324, 1e-320, 1e308]),
)
# values each command should run to its outputs with, or refuse with a
# message: a narrow daylight window or a short split can still fail
VALID = {
    "seed": st.integers(0, 2**64),
    "days": st.integers(1, 12),
    "split": st.floats(0.05, 0.95),
    "mape-threshold": st.floats(1.0, 1000.0),
    "horizons": st.lists(st.integers(1, 12), min_size=1, max_size=3)
    .map(lambda hs: ",".join(map(str, hs))),
    "order": st.integers(1, 8).map(str),
    "max-lag": st.integers(1, 40),
    # windows on the 10-minute grid that hold some daylight
    "daylight": st.tuples(st.integers(0, 72), st.integers(73, 143))
    .map(lambda t: f"{_clock(t[0] * 10)}-{_clock(t[1] * 10)}"),
}
# values on or past the edge of what each flag accepts
EDGE = {
    "seed": st.integers(-3, -1),
    "days": st.integers(-2, 0),
    "split": odd_floats,
    "mape-threshold": odd_floats,
    "horizons": st.sampled_from(["0", "-1", "150", "", "1,,3", "x", "1.5"]),
    "order": st.sampled_from(["auto", "0", "-1", "40", "", "x"]),
    "max-lag": st.sampled_from([-2, -1, 0, 300, 800]),
    "daylight": st.one_of(
        st.tuples(st.integers(0, 143), st.integers(0, 143))
        .map(lambda t: f"{_clock(t[0] * 10)}-{_clock(t[1] * 10)}"),
        st.tuples(st.integers(0, 25), st.sampled_from([0, 5, 45]),
                  st.integers(0, 25), st.sampled_from([0, 5, 50]))
        .map(lambda t: f"{t[0]:02d}:{t[1]:02d}-{t[2]:02d}:{t[3]:02d}"),
        st.sampled_from(["", "06:00", "a-b", "-1:00-05:00", "23:50-00:00", "06:00-06:00",
                         "06:00-24:00", "23:00-24:10"]),
    ),
}


def flag_values(*names):
    """A valid value for each named flag; in about half the examples, one
    of them is swapped for an edge value."""
    valid = st.fixed_dictionaries({name: VALID[name] for name in names})
    return valid.flatmap(lambda flags: st.one_of(
        st.just(flags),
        st.sampled_from(names).flatmap(
            lambda name: EDGE[name].map(lambda value: {**flags, name: value})),
    ))


data_choice = st.sampled_from([0, 0, 0, 1])


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_properties")


@pytest.fixture(scope="module")
def data_files(root):
    """A 20-day file the default model fits, and a 3-day one too short
    for most splits."""
    paths = []
    for n_days in (20, 3):
        path = root / f"mixed_{n_days}d.csv"
        write_csv(generate_synthetic(n_days, "mixed", seed=7), path)
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def mar_file(root, data_files):
    assert main(["fit", "--model", "mar", "--data", data_files[0], "--out", str(root)]) == 0
    return str(root / "mar.model")


def run(root, command, flags):
    """Run one command in a fresh output directory; numpy floating-point
    errors and every warning raise, so they escape ``main()`` and fail
    the example. Returns the exit code and the output directory."""
    out = Path(tempfile.mkdtemp(dir=root))
    argv = [*command, *(f"--{name}={value}" for name, value in flags.items()), f"--out={out}"]
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(np.errstate(over="raise", divide="raise", invalid="raise"))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
    assert code in EXIT_CODES, (argv, code)
    return code, out


@SETTINGS
@given(flags=flag_values("seed", "days"))
@example(flags={"seed": -1, "days": 1})
def test_synth(root, flags):
    code, _ = run(root, ["synth"], flags)
    assert code == 0 or flags["seed"] < 0 or flags["days"] < 1


# flags each command must run to its outputs with, on the 20-day file
DIAGNOSE_OK = {"split": 0.7, "daylight": "06:00-18:30", "max-lag": 24}
FIT_OK = {"split": 0.7, "order": "4", "horizons": "1,3,6", "daylight": "06:00-18:30", "seed": 0}
EVALUATE_OK = {"split": 0.7, "horizons": "1,3,6", "mape-threshold": 20.0}


@SETTINGS
@given(data=data_choice, flags=flag_values("split", "daylight", "max-lag"))
@example(data=0, flags={"split": 0.7, "daylight": "06:00-24:00", "max-lag": 24})
@example(data=0, flags=DIAGNOSE_OK)
def test_diagnose(root, data_files, data, flags):
    code, out = run(root, ["diagnose", f"--data={data_files[data]}"], flags)
    assert code == 0 or (data, flags) != (0, DIAGNOSE_OK)
    if code == 0:
        lines = data_lines(out / "diagnostics.csv")
        values = [float(cell) for ln in lines[1:] for cell in ln.split(",")[1:]]
        assert len(lines) == flags["max-lag"] + 2 and all(map(math.isfinite, values))


@SETTINGS
@given(model=st.sampled_from(["mar", "ar"]), data=data_choice,
       flags=flag_values("split", "order", "horizons", "daylight", "seed"))
@example(model="mar", data=0,
         flags={"split": 0.7, "order": "1", "horizons": "1,3,6", "daylight": "06:00-06:30", "seed": 0})
@example(model="mar", data=0,
         flags={"split": 0.7, "order": "4", "horizons": "1,3,6", "daylight": "06:00-24:00", "seed": 0})
@example(model="ar", data=0, flags=FIT_OK)
def test_fit(root, data_files, model, data, flags):
    code, _ = run(root, ["fit", f"--model={model}", f"--data={data_files[data]}"], flags)
    assert code == 0 or (data, flags) != (0, FIT_OK)


@SETTINGS
@given(data=data_choice, recursive=st.booleans(),
       flags=flag_values("split", "horizons", "mape-threshold"))
@example(data=0, recursive=False, flags={"split": 0.7, "horizons": "1,3,6", "mape-threshold": 0.0})
@example(data=0, recursive=True, flags=EVALUATE_OK)
def test_evaluate(root, data_files, mar_file, data, recursive, flags):
    command = ["evaluate", f"--model-file={mar_file}", f"--data={data_files[data]}"]
    code, out = run(root, command + ["--recursive"] * recursive, flags)
    assert code == 0 or (data, flags) != (0, EVALUATE_OK)
    if code == 0:
        lines = data_lines(out / "summary.csv")
        assert lines[0] == "model,horizon,rmse,mae,mape"
        assert all(math.isfinite(float(cell)) for ln in lines[1:] for cell in ln.split(",")[2:])


@pytest.fixture(scope="module")
def mar_lines(mar_file):
    return Path(mar_file).read_text().splitlines()


edge_values = st.one_of(
    odd_floats,
    st.sampled_from([-0.0, 1e150, -1e150, 1e-160, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1e308]),
)


@SETTINGS
@given(record=st.sampled_from(["scaler", "profile_means", "weights"]),
       line=st.integers(0, 2),
       edits=st.lists(st.tuples(st.integers(0, 200), edge_values), min_size=1, max_size=3))
@example(record="scaler", line=0, edits=[(1, 1e-320)])
@example(record="scaler", line=0, edits=[(1, 2.2250738585072014e-308)])
@example(record="weights", line=2, edits=[(0, 1e308)])
def test_evaluate_edited_model_file(root, data_files, mar_lines, record, line, edits):
    """``evaluate`` on a ``mar.model`` that parses but carries edge values
    in one record: the scaler, the profile means or one horizon's weights."""
    lines = list(mar_lines)
    rows = [i for i, ln in enumerate(lines) if ln.split(" ", 1)[0] == record]
    row = rows[line % len(rows)]
    key, *fields = lines[row].split(" ")
    first = 1 if record == "weights" else 0  # a weights record starts with its horizon
    for index, value in edits:
        fields[first + index % (len(fields) - first)] = repr(value)
    lines[row] = " ".join([key, *fields])
    path = Path(tempfile.mkdtemp(dir=root)) / "edited.model"
    path.write_text("\n".join(lines) + "\n")
    # every floating-point error raises but underflow: a weight of 5e-324
    # underflows in the first product, and a result rounded to a
    # subnormal or to zero is exact IEEE behaviour, not a fault
    with np.errstate(all="raise", under="ignore"):
        code, out = run(root, ["evaluate", f"--model-file={path}", f"--data={data_files[0]}"], {})
    if code == 0:
        lines = data_lines(out / "summary.csv")
        assert all(math.isfinite(float(cell)) for ln in lines[1:] for cell in ln.split(",")[2:])


DATA = Path(__file__).parent / "data"


@SETTINGS
@given(kind=st.sampled_from(["cnn", "lstm"]),
       record=st.sampled_from(["scaler", "param"]),
       line=st.integers(0, 30),
       edits=st.lists(st.tuples(st.integers(0, 200), edge_values), min_size=1, max_size=3))
@example(kind="lstm", record="scaler", line=0, edits=[(1, 1e-320)])
@example(kind="lstm", record="param", line=5, edits=[(0, 1e308)])
@example(kind="cnn", record="param", line=1, edits=[(0, -1e308)])
def test_evaluate_edited_nn_model_file(root, data_files, kind, record, line, edits):
    """``evaluate`` on a ``tests/data`` network file that parses but
    carries edge values in its scaler or in one parameter record. The
    forecast runs inference only, in one padded block per horizon."""
    lines = (DATA / f"{kind}.model").read_text().splitlines()
    rows = [i for i, ln in enumerate(lines) if ln.split(" ", 1)[0] == record]
    row = rows[line % len(rows)]
    key, *fields = lines[row].split(" ")
    first = 2 if record == "param" else 0  # a param record starts with its name and shape
    for index, value in edits:
        fields[first + index % (len(fields) - first)] = repr(value)
    lines[row] = " ".join([key, *fields])
    path = Path(tempfile.mkdtemp(dir=root)) / f"edited_{kind}.model"
    path.write_text("\n".join(lines) + "\n")
    # as for mar.model: every floating-point error raises but underflow
    with np.errstate(all="raise", under="ignore"):
        code, out = run(root, ["evaluate", f"--model-file={path}", f"--data={data_files[0]}"],
                        {"horizons": "1,3"})
    if code == 0:
        lines = data_lines(out / "summary.csv")
        assert all(math.isfinite(float(cell)) for ln in lines[1:] for cell in ln.split(",")[2:])
