"""The benchmark's tracer and training script still find every function
they wrap or call. ``perfbench/`` is checked here, in the Tier-1 suite,
so a renamed or deleted binding fails with the change that made it."""

import subprocess
import sys
import textwrap
from pathlib import Path

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
