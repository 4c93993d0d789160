"""The package's public surface resolves on first use, a network-training
worker imports only the code that training runs, and only the process entry
freezes the heap that import made."""

import os
import re
import subprocess
import sys
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest

import solarcast
import solarcast.nn
from solarcast import DaylightWindow, generate_synthetic, split
from solarcast.nn import ConvSpec
from solarcast.nn.training import train_network

SRC = str(Path(solarcast.__file__).parent.parent)
PYPROJECT = Path(SRC).parent / "pyproject.toml"

# what a training job never runs: the CLI and its argument parser and
# charts, the data, model-file and statistics code around training, and
# the networks' gradient check
NOT_IN_WORKERS = (
    "solarcast.cli",
    "argparse",
    "solarcast.svgplot",
    "solarcast.io",
    "solarcast.mar",
    "solarcast.model_io",
    "solarcast.stats",
    "solarcast.synthetic",
    "solarcast.nn.gradcheck",
)
PACKAGES = (solarcast, solarcast.nn)


def run_python(code: str, stdin: bytes = b"") -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode()


def test_public_names_are_their_home_modules_objects():
    for package in PACKAGES:
        for name in package.__all__:
            value = getattr(package, name)
            home = sys.modules[value.__module__]
            assert home.__name__.startswith(f"{package.__name__}.") and getattr(home, name) is value


def test_star_import_binds_exactly_all():
    for package in PACKAGES:
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(package.__all__)
        assert "io" not in namespace and "training" not in namespace


def test_unknown_name_raises_attribute_error():
    for package in PACKAGES:
        for name in ("no_such_name", "_private", "__wrapped__"):
            with pytest.raises(AttributeError, match=name):
                getattr(package, name)
        assert not hasattr(package, "no_such_module")


def test_fresh_import_loads_no_submodule_until_used():
    code = (
        "import sys, solarcast\n"
        "loaded = lambda: [m for m in sys.modules if m.startswith('solarcast')]\n"
        "print(loaded())\n"
        "print(solarcast.mar.forecast is solarcast.forecast, 'solarcast.mar' in loaded())\n"
    )
    assert run_python(code).splitlines() == ["['solarcast']", "True True"]


def test_fresh_nn_import_loads_no_submodule_until_used():
    code = (
        "import sys, solarcast.nn\n"
        "loaded = lambda: [m for m in sys.modules if m.startswith('solarcast')]\n"
        "print(loaded())\n"
        "print(solarcast.nn.adam.Adam is solarcast.nn.Adam, loaded())\n"
    )
    assert run_python(code).splitlines() == [
        "['solarcast', 'solarcast.nn']", "True ['solarcast', 'solarcast.nn', 'solarcast.nn.adam']"]


def test_training_worker_imports_only_training_code():
    """A child unpickles the job as a spawned pool worker does, by the
    function's module and name, and trains the CNN for one horizon."""
    train, _ = split(generate_synthetic(30, "mixed", seed=7))
    job = bytes(ForkingPickler.dumps((train_network, (ConvSpec(), train, 1, DaylightWindow(), 0))))
    code = (
        "import pickle, sys\n"
        "fn, args = pickle.loads(sys.stdin.buffer.read())\n"
        "model = fn(*args)\n"
        "print(model.kind, model.horizon, len(model.loss_curve))\n"
        f"print([m for m in {NOT_IN_WORKERS!r} if m in sys.modules])\n"
    )
    trained, loaded = run_python(code, stdin=job).splitlines()
    assert trained == "cnn 1 30"
    assert loaded == "[]"


def test_process_entry_freezes_the_imported_heap():
    code = (
        "import gc, runpy, sys\n"
        "sys.argv = ['solarcast', '--help']\n"
        "try:\n"
        "    runpy.run_module('solarcast', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    print('exit', exit.code)\n"
        "print('frozen', gc.get_freeze_count() > 0)\n"
    )
    assert run_python(code).splitlines()[-2:] == ["exit 0", "frozen True"]


def test_importing_the_process_entry_runs_nothing():
    code = (
        "import gc, sys, solarcast.__main__ as entry\n"
        "print(callable(entry.run), 'solarcast.cli' in sys.modules, gc.get_freeze_count())\n"
    )
    assert run_python(code).splitlines() == ["True False 0"]


def test_the_cli_module_is_no_process_entry():
    # run as a script, cli.py only defines its commands: a process starts
    # through solarcast.__main__, the one entry that freezes the heap
    code = (
        "import runpy, sys\n"
        "sys.argv = ['solarcast', '--help']\n"
        "runpy.run_module('solarcast.cli', run_name='__main__')\n"
        "print('ran nothing')\n"
    )
    assert run_python(code).splitlines() == ["ran nothing"]


def test_console_script_is_the_process_entry():
    # a regex, not tomllib: Python 3.10 has none
    script = re.search(r'^\[project\.scripts\]\nsolarcast = "([^"]+)"$', PYPROJECT.read_text(), re.M)
    assert script and script.group(1) == "solarcast.__main__:run"


def test_in_process_main_does_not_freeze(tmp_path):
    data = str(tmp_path / "one.csv")
    code = (
        "import gc\n"
        "from solarcast.cli import main\n"
        f"print(main(['synth', '--days', '1', '--data', {data!r}]), gc.get_freeze_count())\n"
    )
    # synth prints the path it wrote, then main's exit code and the freeze count
    assert run_python(code).splitlines() == [data, "0 0"]
