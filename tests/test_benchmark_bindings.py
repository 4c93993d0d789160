"""The benchmark's tracer and training script still find every function
they wrap or call, and a traced command writes what an untraced one
does. ``perfbench/`` is checked here, in the Tier-1 suite, so a renamed
or deleted binding, or a call the tracer's counters would change, fails
with the change that made it."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from solarcast import generate_synthetic, write_csv
from solarcast.cli import main

ROOT = Path(__file__).resolve().parent.parent

CHILD = textwrap.dedent("""
    import sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]

    from tracer import LAYERS, Tracer

    def binding(layer):
        owner = sys.modules[layer.module]
        if "." in layer.attr:
            cls, meth = layer.attr.split(".")
            return vars(getattr(owner, cls))[meth]
        return getattr(owner, layer.attr)

    tracer = Tracer()
    tracer.install()
    try:
        unwrapped = [layer.name for layer in LAYERS
                     if not hasattr(binding(layer), "__wrapped__")]
        assert not unwrapped, f"layers with no wrapped binding: {unwrapped}"
    finally:
        tracer.uninstall()
    rewrapped = [layer.name for layer in LAYERS if hasattr(binding(layer), "__wrapped__")]
    assert not rewrapped, f"layers still wrapped after uninstall: {rewrapped}"

    # what perfbench/train_short.py imports
    from solarcast import load_csv, save_nn_models, split
    from solarcast.nn import ConvSpec, LstmSpec, train_cnn, train_lstm
    print("ok")
""")


def test_tracer_wraps_every_layer_and_train_short_imports():
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "ok\n", "")


TRACED_CHILD = textwrap.dedent("""
    import sys
    from pathlib import Path
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    data, model_file, horizons = sys.argv[3:]

    from solarcast.cli import main
    from tracer import Tracer

    def evaluate():
        argv = ["evaluate", "--data", data, "--model-file", model_file, "--horizons", horizons,
                "--out", "out"]
        assert main(argv) == 0
        return {name: Path("out", name).read_bytes() for name in ("forecasts.csv", "summary.csv")}

    untraced = evaluate()
    tracer = Tracer()
    tracer.install()
    try:
        traced = evaluate()
    finally:
        tracer.uninstall()
    assert traced == untraced
    counted = sum(s.count for s in tracer.spans if s.name == "metrics.report_rows_csv")
    written = [ln for ln in traced["forecasts.csv"].decode().splitlines() if not ln.startswith("#")]
    assert counted == len(written) - 1, (counted, len(written))
    print("ok")
""")


@pytest.mark.parametrize("model", ["mar", "lstm"])
def test_traced_evaluate_writes_the_untraced_outputs(tmp_path, model):
    """The tracer counts ``report_rows_csv``'s rows from its argument
    after the call returns, so that argument must be a list, not a
    generator the count would drain before any row is written."""
    data = tmp_path / "mixed_60d.csv"
    write_csv(generate_synthetic(60, "mixed", seed=7), data)
    model_file, horizons = ROOT / "tests" / "data" / "lstm.model", "1,3"
    if model == "mar":
        assert main(["fit", "--data", str(data), "--out", str(tmp_path)]) == 0
        model_file, horizons = tmp_path / "mar.model", "1,3,6"
    result = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(data), str(model_file), horizons],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout.splitlines()[-1:], result.stderr) == (0, ["ok"], "")
