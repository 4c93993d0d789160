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

from solarcast import generate_synthetic, write_csv

from conftest import data_lines

ROOT = Path(__file__).resolve().parent.parent

CHILD = textwrap.dedent("""
    import sys

    import numpy as np

    from solarcast.cli import main
    from solarcast.stats import autocorrelation

    x = np.random.default_rng(12).standard_normal(40_000)
    print(" ".join(v.hex() for v in autocorrelation(x, 24).values), flush=True)
    data, out = sys.argv[1:]
    for argv in (["diagnose"], ["fit", "--model", "mar", "--order", "auto"]):
        assert main([*argv, "--data", data, "--out", out]) == 0
""")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(ACF hex line, output directory) per BLAS thread count, on a
    300-day series whose training split holds about 16,000 daylight
    values."""
    root = tmp_path_factory.mktemp("threads")
    data = root / "mixed_300d.csv"
    write_csv(generate_synthetic(300, "mixed", seed=7), data)
    src = str(ROOT / "src")
    results = {}
    for threads in ("1", "2"):
        out = root / f"threads_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", CHILD, str(data), str(out)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        results[threads] = (result.stdout.splitlines()[0], out)
    return results


def test_acf_bits_do_not_depend_on_the_thread_count(runs):
    (one, _), (two, _) = runs["1"], runs["2"]
    assert len(one.split()) == 25
    assert one == two


def test_diagnose_rows_do_not_depend_on_the_thread_count(runs):
    (_, one), (_, two) = runs["1"], runs["2"]
    rows = data_lines(one / "diagnostics.csv")
    assert len(rows) == 26  # header and lags 0..24
    assert rows == data_lines(two / "diagnostics.csv")


def test_auto_order_model_does_not_depend_on_the_thread_count(runs):
    (_, one), (_, two) = runs["1"], runs["2"]
    assert (one / "mar.model").read_bytes() == (two / "mar.model").read_bytes()
