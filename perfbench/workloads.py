"""The three workloads: their set-up, their timed commands, and the
checks that compare each command's outputs with the seed-code
reference outputs under ``reference/``.

Every command runs with the workload's work directory as its current
directory and names its files relative to it: set-up writes under
``inputs/``, a pass under ``pass/``. Output headers echo those paths,
so they read the same in every checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

from spantree import count_csv_rows

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

# The benchmark seed picks one of these data seeds; each has committed
# reference outputs. 7 is the ROADMAP fixture seed.
VARIANT_SEEDS = (7, 8, 9, 10)

COMMAND_TIMEOUT_S = 150.0
SLOTS_PER_DAY = 144

# Summary and diagnostics numbers may differ from the reference by at
# most ABS_TOL + REL_TOL * |reference|. ABS_TOL is two units in the
# sixth decimal the summary CSV prints, so a float-ordering change that
# flips a rounded digit passes; REL_TOL admits last-bit drift that
# training amplifies. A changed model (other epochs, another fit)
# moves the metrics by far more than 1e-6.
ABS_TOL = 2e-6
REL_TOL = 1e-6

NN_SETUP_EPOCHS = 2

# A fixed process that never imports solarcast: interpreter start-up,
# the numpy import, a float formatting/parsing loop and BLAS work, the
# same mix as the workload's commands. Its wall time tracks the speed
# of the machine at the moment, which on a shared VM drifts by 30-50%
# within an hour.
CALIBRATION_KERNEL = """
import numpy as np
text = ",".join(f"{i * 0.37:.17g}" for i in range(50000))
values = np.array([float(v) for v in text.split(",")])
m = values.reshape(-1, 100) / values.max()
for _ in range(20):
    m = np.tanh(m @ m.T @ m)
"""
# Kernel runs per pass, at least: a pass of one long command gets three
# before and three after it, so one noisy run moves its scale less.
PASS_CALIBRATIONS = 5


@dataclass(frozen=True)
class Command:
    """One process. ``args`` go to ``python -m solarcast`` unless
    ``script`` names a file in this directory to run instead.
    ``checks`` maps output paths to a check: ``exists``,
    ``series:<rows>``, ``reference`` (numbers within tolerance of the
    reference file) or ``rows`` (data rows equal the reference count)."""

    args: tuple[str, ...]
    checks: tuple[tuple[str, str], ...] = ()
    script: str | None = None

    @property
    def kind(self) -> str:
        return self.args[0] if self.script is None else self.script

    def argv(self) -> list[str]:
        if self.script is None:
            return [sys.executable, "-m", "solarcast", *self.args]
        return [sys.executable, os.path.join(BENCH_DIR, self.script), *self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    setup: tuple[Command, ...]
    passes: tuple[Command, ...]
    fitted: tuple[str, ...] = ()  # models whose rmse is reported


def _series_check(days: int) -> str:
    return f"series:{days * SLOTS_PER_DAY}"


def _evaluate(data: str, model_file: str, out: str, *extra: str) -> Command:
    return Command(
        ("evaluate", *extra, "--data", data, "--model-file", model_file, "--out", out),
        ((f"{out}/summary.csv", "reference"), (f"{out}/forecasts.csv", "rows")),
    )


def mar_session(seed: int) -> Workload:
    data = "pass/synthetic_mixed_730d.csv"
    return Workload(
        name="mar-session",
        why="core MAR path on 730 days, seven fresh processes: start-up, CSV, lstsq, forecast loop",
        sizes={"days": 730, "rows": 730 * SLOTS_PER_DAY, "split": 0.7},
        setup=(),
        passes=(
            Command(
                ("synth", "--days", "730", "--regime", "mixed", "--seed", str(seed), "--out", "pass"),
                ((data, _series_check(730)),),
            ),
            Command(("diagnose", "--data", data, "--out", "pass"), (("pass/diagnostics.csv", "reference"),)),
            Command(("fit", "--data", data, "--model", "mar", "--out", "pass"), (("pass/mar.model", "exists"),)),
            Command(("fit", "--data", data, "--model", "ar", "--out", "pass"), (("pass/ar.model", "exists"),)),
            _evaluate(data, "pass/mar.model", "pass/mar"),
            _evaluate(data, "pass/ar.model", "pass/ar"),
            _evaluate(data, "pass/mar.model", "pass/mar-recursive", "--recursive"),
        ),
        fitted=("mar", "ar"),
    )


def compare_100d(seed: int) -> Workload:
    data = "inputs/synthetic_mixed_100d.csv"
    return Workload(
        name="compare-100d",
        why="paper headline table on the 100-day fixture: six network trainings dominate",
        sizes={"days": 100, "rows": 100 * SLOTS_PER_DAY, "split": 0.7},
        setup=(
            Command(
                ("synth", "--days", "100", "--regime", "mixed", "--seed", str(seed), "--out", "inputs"),
                ((data, _series_check(100)),),
            ),
        ),
        passes=(
            Command(
                ("compare", "--data", data, "--seed", str(seed), "--out", "pass"),
                (
                    ("pass/compare_summary.csv", "reference"),
                    ("pass/compare_forecasts.csv", "rows"),
                    *((f"pass/overlay_h{h}.svg", "exists") for h in (1, 3, 6)),
                ),
            ),
        ),
        fitted=("mar", "ar", "cnn", "lstm"),
    )


def backtest_730d(seed: int) -> Workload:
    train = "inputs/synthetic_mixed_100d.csv"
    data = "inputs/synthetic_mixed_730d.csv"
    return Workload(
        name="backtest-730d",
        why="forecast-heavy: four saved models read and run over 657 test days",
        sizes={"days": 730, "rows": 730 * SLOTS_PER_DAY, "split": 0.1, "train_days": 100,
               "nn_setup_epochs": NN_SETUP_EPOCHS},
        setup=(
            Command(
                ("synth", "--days", "100", "--regime", "mixed", "--seed", str(seed), "--out", "inputs"),
                ((train, _series_check(100)),),
            ),
            Command(
                ("synth", "--days", "730", "--regime", "mixed", "--seed", str(seed + 100), "--out", "inputs"),
                ((data, _series_check(730)),),
            ),
            Command(("fit", "--data", train, "--model", "mar", "--out", "inputs"), (("inputs/mar.model", "exists"),)),
            Command(("fit", "--data", train, "--model", "ar", "--out", "inputs"), (("inputs/ar.model", "exists"),)),
            Command(
                ("--data", train, "--seed", str(seed), "--epochs", str(NN_SETUP_EPOCHS), "--out", "inputs"),
                (("inputs/cnn.model", "exists"), ("inputs/lstm.model", "exists")),
                script="train_short.py",
            ),
        ),
        passes=tuple(
            _evaluate(data, f"inputs/{m}.model", f"pass/{m}", "--split", "0.1")
            for m in ("mar", "ar", "cnn", "lstm")
        ),
        # cnn/lstm are trained for NN_SETUP_EPOCHS only: their accuracy is
        # checked against the reference but not reported as a metric.
        fitted=("mar", "ar"),
    )


WORKLOADS = {"mar-session": mar_session, "compare-100d": compare_100d, "backtest-730d": backtest_730d}


def variant_seed(seed: int) -> int:
    return VARIANT_SEEDS[seed % len(VARIANT_SEEDS)]


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](variant_seed(seed))


def reference_dir(workload: Workload, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, workload.name, f"seed{variant_seed(seed)}")


# ---------------------------------------------------------------- running


@dataclass
class Outcome:
    command: Command
    wall_s: float
    rss_mb: float
    error: str | None  # None when the command succeeded and passed its checks


def child_env() -> dict[str, str]:
    """The user's environment, with the checkout's ``src`` first on the
    import path. Thread settings are left as found."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], cwd: str, log_path: str, timeout: float = COMMAND_TIMEOUT_S):
    """Run to completion; return (exit code, wall seconds, max RSS in MB).
    A process still running after ``timeout`` is killed."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SystemExit from a SIGTERM handler: end the child first
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_calibration(cwd: str) -> float:
    """Wall seconds of one run of CALIBRATION_KERNEL."""
    log_path = os.path.join(cwd, "log_calibration.txt")
    code, wall, _ = run_process([sys.executable, "-c", CALIBRATION_KERNEL], cwd, log_path)
    if code != 0:
        raise RuntimeError(f"calibration kernel exited {code}: {_log_tail(log_path)}")
    return wall


def _log_tail(path: str, lines: int = 3) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def run_command(command: Command, cwd: str, ref_dir: str | None, index: int) -> Outcome:
    log_path = os.path.join(cwd, f"log_{index:02d}_{command.kind}.txt")
    code, wall, rss = run_process(command.argv(), cwd, log_path)
    if code != 0:
        error = f"exit code {code}: {_log_tail(log_path)}"
    else:
        error = check_outputs(command, cwd, ref_dir)
    return Outcome(command, wall, rss, error)


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def workload_dir(workload: Workload) -> str:
    return os.path.join(WORK_DIR, workload.name)


def run_setup(workload: Workload) -> tuple[float, list[Outcome]]:
    """Warm-up start-up, then the set-up commands into a fresh
    ``inputs/``. Returns their summed wall time and the outcomes."""
    cwd = workload_dir(workload)
    os.makedirs(cwd, exist_ok=True)
    fresh_dir(os.path.join(cwd, "inputs"))
    outcomes = [run_command(Command(("--help",)), cwd, None, 0)]
    for i, command in enumerate(workload.setup, start=1):
        outcomes.append(run_command(command, cwd, None, i))
    return sum(o.wall_s for o in outcomes), outcomes


def run_pass(workload: Workload, ref_dir: str | None, calibrate: bool = False):
    """One pass of the workload's commands in a fresh ``pass/``.
    Returns the outcomes and, with ``calibrate``, the walls of the
    calibration kernel, run before each command and after the last,
    as often at each point as gives at least PASS_CALIBRATIONS runs."""
    cwd = workload_dir(workload)
    fresh_dir(os.path.join(cwd, "pass"))
    repeat = -(-PASS_CALIBRATIONS // (len(workload.passes) + 1)) if calibrate else 0
    outcomes, kernel = [], []
    for i, command in enumerate(workload.passes):
        kernel += [run_calibration(cwd) for _ in range(repeat)]
        outcomes.append(run_command(command, cwd, ref_dir, i))
    kernel += [run_calibration(cwd) for _ in range(repeat)]
    return outcomes, kernel


# --------------------------------------------------------------- checking


def _numeric_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh if line.strip() and not line.startswith("#")]


def compare_numeric_csv(path: str, ref_path: str) -> str | None:
    """None if the CSVs agree: same header and labels, numbers within
    ABS_TOL + REL_TOL * |reference|. Otherwise the first difference."""
    got, want = _numeric_rows(path), _numeric_rows(ref_path)
    if len(got) != len(want):
        return f"{path}: {len(got)} rows, reference has {len(want)}"
    for row, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            return f"{path} row {row}: {len(g_row)} fields, reference has {len(w_row)}"
        for g, w in zip(g_row, w_row):
            try:
                gv, wv = float(g), float(w)
            except ValueError:
                if g != w:
                    return f"{path} row {row}: {g!r} != reference {w!r}"
                continue
            if not abs(gv - wv) <= ABS_TOL + REL_TOL * abs(wv):
                return f"{path} row {row}: {g} differs from reference {w}"
    return None


def load_reference_rows(ref_dir: str) -> dict[str, int]:
    with open(os.path.join(ref_dir, "rows.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(command: Command, cwd: str, ref_dir: str | None) -> str | None:
    """None if every output exists and passes its check. Without a
    reference directory only existence and series sizes are checked."""
    for rel, check in command.checks:
        path = os.path.join(cwd, rel)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            return f"missing output {rel}"
        if check.startswith("series:"):
            rows = count_csv_rows(path)
            if rows != int(check.split(":")[1]):
                return f"{rel}: {rows} rows, expected {check.split(':')[1]}"
        elif check == "reference" and ref_dir is not None:
            error = compare_numeric_csv(path, os.path.join(ref_dir, rel))
            if error:
                return error
        elif check == "rows" and ref_dir is not None:
            rows, want = count_csv_rows(path), load_reference_rows(ref_dir)[rel]
            if rows != want:
                return f"{rel}: {rows} rows, reference has {want}"
    return None


def summary_rmse(path: str, horizon: int = 6) -> dict[str, float]:
    """RMSE per model at ``horizon`` steps from a summary CSV."""
    out = {}
    for row in _numeric_rows(path)[1:]:
        model, h, rmse = row[0], int(row[1]), float(row[2])
        if h == horizon:
            out[model] = rmse
    return out
