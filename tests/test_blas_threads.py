"""The same bits at any BLAS thread count. OpenBLAS splits a dot product
of more than about 10,000 values across its threads and sums the parts
in another order, so a correlation computed that way changes in the
last bit with ``OPENBLAS_NUM_THREADS``, which the machine sets, not the
seed. Each thread count runs in a child process, because OpenBLAS reads
the variable when it loads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from solarcast import generate_synthetic, save_nn_models, split, write_csv
from solarcast.nn import LstmSpec
from solarcast.nn.networks import LstmNetwork
from solarcast.nn.training import NeuralModel
from solarcast.series import DaylightWindow, fit_scaler

from conftest import data_lines

ROOT = Path(__file__).resolve().parent.parent

CHILD = textwrap.dedent("""
    import sys

    import numpy as np

    from solarcast.cli import main
    from solarcast.stats import autocorrelation

    x = np.random.default_rng(12).standard_normal(40_000)
    print(" ".join(v.hex() for v in autocorrelation(x, 24).values), flush=True)
    data, *models = sys.argv[1:]
    commands = [["diagnose", "--out", "."],
                ["fit", "--model", "mar", "--order", "auto", "--out", "."],
                ["fit", "--model", "ar", "--out", "."],
                ["evaluate", "--model-file", "mar.model", "--out", "mar"],
                ["evaluate", "--model-file", "mar.model", "--recursive", "--out", "mar-recursive"],
                ["evaluate", "--model-file", "ar.model", "--out", "ar"]]
    for name, path, horizons in zip(models[::3], models[1::3], models[2::3]):
        commands.append(["evaluate", "--model-file", path, "--horizons", horizons, "--out", name])
    for argv in commands:
        assert main([*argv, "--data", data]) == 0
""")

# output directory, model file and horizons of each network evaluated
NETWORKS = {
    "cnn": (ROOT / "tests" / "data" / "cnn.model", "1,3"),
    "lstm": (ROOT / "tests" / "data" / "lstm.model", "1,3"),
    "lstm32": (None, "1,3,6"),  # written by the fixture
}


def default_lstm_file(path: Path, train) -> Path:
    """Untrained LSTMs of the default size, one per horizon: 32 units
    make products large enough for OpenBLAS to split across threads."""
    spec = LstmSpec()
    models = [
        NeuralModel(spec=spec, horizon=h, params=LstmNetwork(spec, seed=h).params,
                    scaler=fit_scaler(train), daylight=DaylightWindow(), step=train.step)
        for h in (1, 3, 6)
    ]
    save_nn_models(models, path)
    return path


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(stdout lines, output directory) per BLAS thread count, on a
    300-day series whose training split holds about 16,000 daylight
    values. Each child runs in its own directory and names its outputs
    relative to it, so the two stdouts can be compared whole. Each
    network forecast covers 90 test days, whose last inference block
    of each horizon is a partial one."""
    root = tmp_path_factory.mktemp("threads")
    data = root / "mixed_300d.csv"
    series = generate_synthetic(300, "mixed", seed=7)
    write_csv(series, data)
    lstm32 = default_lstm_file(root / "lstm32.model", split(series, 0.7)[0])
    models = []
    for name, (path, horizons) in NETWORKS.items():
        models += [name, str(path or lstm32), horizons]
    src = str(ROOT / "src")
    results = {}
    for threads in ("1", "2"):
        out = root / f"threads_{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", CHILD, str(data), *models], cwd=out,
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        results[threads] = (result.stdout.splitlines(), out)
    return results


def test_acf_bits_do_not_depend_on_the_thread_count(runs):
    (one, _), (two, _) = runs["1"], runs["2"]
    assert len(one[0].split()) == 25
    assert one[0] == two[0]


def test_diagnose_rows_do_not_depend_on_the_thread_count(runs):
    (_, one), (_, two) = runs["1"], runs["2"]
    rows = data_lines(one / "diagnostics.csv")
    assert len(rows) == 26  # header and lags 0..24
    assert rows == data_lines(two / "diagnostics.csv")


def test_auto_order_model_does_not_depend_on_the_thread_count(runs):
    (_, one), (_, two) = runs["1"], runs["2"]
    assert (one / "mar.model").read_bytes() == (two / "mar.model").read_bytes()


@pytest.mark.parametrize("model", ["mar", "mar-recursive", "ar", *NETWORKS])
def test_evaluate_rows_do_not_depend_on_the_thread_count(runs, model):
    """Every forecast runs in 512-row blocks counted from the first test
    row. The network forecasts pad their last block to the size of the
    others, so every block runs the same BLAS kernels. Unpadded, the
    32-unit LSTM's last h=6 block moved one row in the last bits."""
    (_, one), (_, two) = runs["1"], runs["2"]
    for name in ("forecasts.csv", "summary.csv"):
        rows = data_lines(one / model / name)
        assert len(rows) > 1
        assert rows == data_lines(two / model / name)


def test_stdout_does_not_depend_on_the_thread_count(runs):
    (one, _), (two, _) = runs["1"], runs["2"]
    assert one == two
