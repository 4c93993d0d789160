"""Property tests for the file loaders: whatever a CSV or model file is
mutated into, loading it either succeeds or raises a
``SolarcastError`` subclass, which the CLI maps onto exit codes 1/2/3.
Any other exception would end a command in a traceback. A model file's
error names the file exactly once."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solarcast import (
    DaylightWindow,
    MarConfig,
    SolarcastError,
    fit_all_horizons,
    fit_scaler,
    generate_synthetic,
    load_csv,
    load_mar_model,
    load_nn_models,
    save_mar_model,
    save_nn_models,
    split,
    write_csv,
)
from solarcast.nn import CnnNetwork, ConvSpec, LstmNetwork, LstmSpec, NeuralModel

# tokens that sit on the edges of int()/float() and of the range checks
# behind them
EDGE_TOKENS = ["", "-", "nan", "inf", "-inf", "0", "-1", "1e999", "1.5", "one", "9" * 40,
               "1,2", "=", "\x00", "é", "4300" * 1200, "2024-01-01T00:10:00+00:00",
               "9999-12-31T23:50:00"]

# appended to a token: a UTC offset on one timestamp, an exponent
# overflow, an embedded NUL, a fraction on an integer field
EDGE_SUFFIXES = ["+00:00", "e999", "\x00", ".5", "0" * 30]

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _nn_file(kind, train, path):
    if kind == "cnn":
        spec, network = ConvSpec(kernel_count=2, fc1_units=3, fc2_units=2, epochs=1), CnnNetwork
    else:
        spec, network = LstmSpec(units=2, dense_hidden=2, epochs=1), LstmNetwork
    models = [
        NeuralModel(spec=spec, horizon=h, params=network(spec, seed=h).params,
                    scaler=fit_scaler(train), daylight=DaylightWindow(), step=train.step)
        for h in (1, 3)
    ]
    save_nn_models(models, path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid file per loader, as (loader, bytes)."""
    root = tmp_path_factory.mktemp("valid")
    series = generate_synthetic(2, "mixed", seed=5)
    write_csv(series, root / "data.csv", header_comments={"seed": 5})
    train, _ = split(generate_synthetic(20, "mixed", seed=6), 0.7)
    save_mar_model(fit_all_horizons(train, MarConfig(horizons=(1, 3))), root / "mar.model")
    _nn_file("cnn", train, root / "cnn.model")
    _nn_file("lstm", train, root / "lstm.model")
    return {
        "csv": (load_csv, (root / "data.csv").read_bytes()),
        "mar": (load_mar_model, (root / "mar.model").read_bytes()),
        "cnn": (load_nn_models, (root / "cnn.model").read_bytes()),
        "lstm": (load_nn_models, (root / "lstm.model").read_bytes()),
    }


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "file"


@st.composite
def byte_mutations(draw, data: bytes) -> bytes:
    """Flip, delete, insert or truncate bytes, a few times over."""
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "delete", "insert", "truncate"]))
        if op == "replace" and pos < len(data):
            data = data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1:]
        elif op == "delete":
            data = data[:pos] + data[pos + draw(st.integers(1, 16)):]
        elif op == "insert":
            data = data[:pos] + draw(st.binary(min_size=1, max_size=8)) + data[pos:]
        else:
            data = data[:pos]
    return data


@st.composite
def record_mutations(draw, data: bytes) -> bytes:
    """Edit whole records: swap one token for an edge value or any
    text, append an edge suffix to one, or drop, repeat or swap lines."""
    lines = data.decode("utf-8").split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["token", "token", "suffix", "drop", "repeat", "swap"]))
        if op in ("token", "suffix"):
            tokens = lines[i].replace(",", " , ").replace("=", " = ").split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            if op == "token":
                tokens[j] = draw(st.sampled_from(EDGE_TOKENS) | st.text(max_size=6))
            else:
                tokens[j] += draw(st.sampled_from(EDGE_SUFFIXES))
            lines[i] = " ".join(tokens).replace(" , ", ",").replace(" = ", "=")
        elif op == "drop":
            del lines[i]
            if not lines:
                break
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
    return "\n".join(lines).encode("utf-8", "surrogatepass")


def _load_mutated(valid_files, target, kind, mutate, draw):
    loader, data = valid_files[kind]
    target.write_bytes(draw(mutate(data)))
    try:
        loader(target)
    except SolarcastError as exc:
        if kind != "csv":  # a model file's errors name it once
            assert str(exc).count(str(target)) == 1, exc


KINDS = ["csv", "mar", "cnn", "lstm"]


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(draw=st.data())
def test_mutated_bytes_raise_only_solarcast_errors(valid_files, target, kind, draw):
    _load_mutated(valid_files, target, kind, byte_mutations, draw.draw)


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(draw=st.data())
def test_mutated_records_raise_only_solarcast_errors(valid_files, target, kind, draw):
    _load_mutated(valid_files, target, kind, record_mutations, draw.draw)


@pytest.mark.parametrize("kind", KINDS)
def test_unmutated_files_load(valid_files, target, kind):
    loader, data = valid_files[kind]
    target.write_bytes(data)
    assert loader(target) is not None


def test_csv_with_one_offset_throughout_loads(target):
    rows = "".join(f"2024-01-01T{h:02d}:00:00+02:00,{h}\n" for h in range(24))
    target.write_text("timestamp,irradiance_wm2\n" + rows)
    series = load_csv(target)
    assert series.step == 60
    assert np.array_equal(series.values, np.arange(24.0))
