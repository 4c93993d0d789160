"""solarcast benchmark: one workload, one run.

    python3 perfbench/run.py --workload mar-session --seed 0 --seconds 15 --trace 0

With ``--trace 0`` it times the workload's CLI commands as fresh
processes (``python -m solarcast ...``), one at a time, for at least
``--seconds``, and reports the end-to-end metrics. With ``--trace 1``
it runs the same commands in-process through ``solarcast.cli.main``
with timing wrappers on every layer and reports the per-layer metrics.
Either way every command's outputs are checked against the seed-code
references in ``perfbench/reference``.

The report goes to stdout, then the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full result, with provenance, is also written under
``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from spantree import (
    Span,
    count_csv_rows,
    coverage,
    layer_metrics,
    median_by_key,
    rows_per_s,
    timing_summary,
    windows_per_s,
)
from tracer import LAYERS, ROOT_LAYER, TRAIN_LAYERS, WINDOWS_LAYER
from workloads import (
    ROOT,
    SRC,
    WORK_DIR,
    WORKLOADS,
    Command,
    make_workload,
    reference_dir,
    run_pass,
    run_calibration,
    run_process,
    run_setup,
    summary_rmse,
    variant_seed,
    workload_dir,
)

# setup_s is the median of at least SETUPS set-ups spanning at least
# SETUP_SECONDS, so a cheap set-up is repeated more often.
SETUPS = 3
SETUP_SECONDS = 3.0
# setup_s and wall_s are expressed at a reference machine speed: each
# set-up and each pass is scaled by CALIBRATION_REF_S / (wall of the
# calibration kernel run right before it; for a pass, the median of the
# kernel runs before each command and after the last). The kernel takes
# CALIBRATION_REF_S on 2 vCPUs of an Intel Xeon at 2.0 GHz.
CALIBRATION_REF_S = 0.33
STARTUPS = 5         # `--help` start-ups per traced run; cli.startup_s is their median
TRACE_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
E2E_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
DERIVED_LAYER_METRICS = ("nn.train.windows_per_s", "trace.overhead_s", "trace.coverage")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    return ["cli.startup_s", *layer_metrics([], {}, {}, LAYERS), *DERIVED_LAYER_METRICS]


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric == "trace.coverage":
        return "ratio"
    if metric.endswith(".rows"):
        return "rows"
    if metric.endswith(".epochs"):
        return "epochs"
    return "count"


def provenance(seed: int, workload) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": None,
        "seed": seed,
        "data_seed": variant_seed(seed),
        "sizes": workload.sizes,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        pass
    probe = (
        "import json, numpy\n"
        "deps = numpy.show_config(mode='dicts').get('Build Dependencies', {})\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': deps.get('blas')}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    if done.returncode == 0:
        info.update(json.loads(done.stdout))
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        info["git_commit"] = git.stdout.strip() or None
    return info


def setup(workload, times: int, seconds: float = 0.0) -> tuple[list[float], list[float]]:
    """Set up at least ``times`` times and for at least ``seconds``,
    running the calibration kernel before each set-up. Returns the
    set-up walls and the kernel walls; exits without a result if a
    set-up fails."""
    cwd = workload_dir(workload)
    os.makedirs(cwd, exist_ok=True)
    walls: list[float] = []
    kernel: list[float] = []
    start = perf_counter()
    while len(walls) < times or perf_counter() - start < seconds:
        kernel.append(run_calibration(cwd))
        wall, outcomes = run_setup(workload)
        failed = [o for o in outcomes if o.error]
        if failed:
            sys.exit(f"set-up of {workload.name} failed: {failed[0].command.kind}: {failed[0].error}")
        walls.append(wall)
    return walls, kernel


def untraced_run(workload, ref_dir: str, seconds: float) -> tuple[dict, dict, int, int]:
    """Passes of fresh processes until ``seconds`` have passed."""
    setup_walls, setup_kernel = setup(workload, SETUPS, SETUP_SECONDS)
    passes, pass_kernel = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        outcomes, kernel = run_pass(workload, ref_dir, calibrate=True)
        passes.append(outcomes)
        pass_kernel.append(statistics.median(kernel))

    walls = [sum(o.wall_s for o in p) for p in passes]
    values = {
        "setup_s": statistics.median(w * CALIBRATION_REF_S / k for w, k in zip(setup_walls, setup_kernel)),
        "wall_s": statistics.median(w * CALIBRATION_REF_S / k for w, k in zip(walls, pass_kernel)),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
    }
    metrics = {name: values[name] for name in E2E_METRICS}
    attempted = sum(len(p) for p in passes)
    failures = [o for p in passes for o in p if o.error]
    extra = {
        "wall_raw_s": timing_summary(walls),
        "setup_raw_s": timing_summary(setup_walls),
        "calibration_s": timing_summary(setup_kernel + pass_kernel),
        "error_rate": len(failures) / attempted,
        "errors": sorted({f"{o.command.kind}: {o.error}" for o in failures}),
    }
    for kind in ("fit", "evaluate"):
        if any(c.kind == kind for c in workload.passes):
            extra[f"{kind}_s"] = statistics.median(
                sum(o.wall_s for o in p if o.command.kind == kind) for p in passes
            )
    cwd = workload_dir(workload)
    if "evaluate_s" in extra:
        rows = sum(
            count_csv_rows(os.path.join(cwd, path))
            for c in workload.passes if c.kind == "evaluate"
            for path, check in c.checks if check == "rows"
        )
        extra["forecast_rows"] = rows
        extra["forecast_rows_per_s"] = rows_per_s(rows, extra["evaluate_s"])
    last_summaries = [
        os.path.join(cwd, path)
        for c in workload.passes for path, check in c.checks
        if check == "reference" and path.endswith("summary.csv")
    ]
    rmse = {}
    for path in last_summaries:
        if os.path.isfile(path):
            for model, value in summary_rmse(path).items():
                rmse.setdefault(model, value)  # first summary per model: the direct forecast
    extra["rmse_1h_wm2"] = {m: rmse[m] for m in workload.fitted if m in rmse}
    return metrics, extra, attempted, len(failures)


def traced_run(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """cli start-up, then pairs of untraced and traced in-process passes."""
    setup(workload, 1)
    cwd = workload_dir(workload)
    startups = []
    for _ in range(STARTUPS):
        code, wall, _ = run_process(Command(("--help",)).argv(), cwd, os.path.join(cwd, "log_startup.txt"))
        if code != 0:
            sys.exit(f"solarcast --help exited {code}")
        startups.append(wall)

    out = os.path.join(cwd, "trace.json")
    argv = [sys.executable, os.path.join(os.path.dirname(__file__), "tracer.py"),
            "--workload", workload.name, "--seed", str(seed), "--seconds", str(seconds), "--out", out]
    code, _, _ = run_process(argv, cwd, os.path.join(cwd, "log_trace.txt"), TRACE_TIMEOUT_S)
    if code != 0:
        with open(os.path.join(cwd, "log_trace.txt"), encoding="utf-8", errors="replace") as fh:
            sys.exit(f"traced pass failed (exit {code}): {fh.read()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]

    per_pass = []
    for p in passes:
        spans = [Span(*s) for s in p["spans"]]
        traced_wall = sum(c["wall_s"] for c in p["traced"])
        m = layer_metrics(spans, p["calls"], p["errors"], LAYERS)
        m["nn.train.windows_per_s"] = windows_per_s(spans, TRAIN_LAYERS, WINDOWS_LAYER)
        m["trace.overhead_s"] = traced_wall - sum(c["wall_s"] for c in p["untraced"])
        m["trace.coverage"] = coverage(spans, traced_wall, ROOT_LAYER)
        m["trace.wall_s"] = traced_wall
        per_pass.append(m)
    medians = median_by_key(per_pass)
    medians["cli.startup_s"] = statistics.median(startups)
    traced_wall = medians["trace.wall_s"]
    metrics = {name: medians[name] for name in per_layer_names()}

    shares: dict[str, float] = {}
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            group = key.split(".")[0]
            shares[group] = shares.get(group, 0.0) + value / traced_wall
    records = [c for p in passes for c in p["untraced"] + p["traced"]]
    failures = [c for c in records if c["error"]]
    extra = {
        "traced_wall_s": traced_wall,
        "traced_passes": len(passes),
        "self_time_share": shares,
        "errors": sorted({f"{c['kind']}: {c['error']}" for c in failures}),
    }
    return metrics, extra, len(records) + STARTUPS, len(failures)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run stops its current child before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "solarcast", "__init__.py")):
        sys.exit(f"no solarcast sources under {SRC}: run from a full checkout")
    workload = make_workload(args.workload, args.seed)
    ref_dir = reference_dir(workload, args.seed)
    if not os.path.isdir(ref_dir):
        sys.exit(f"no reference outputs at {ref_dir}")

    info = provenance(args.seed, workload)
    if args.trace:
        metrics, extra, attempted, failed = traced_run(workload, args.seed, args.seconds)
    else:
        metrics, extra, attempted, failed = untraced_run(workload, ref_dir, args.seconds)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    full = {"workload": workload.name, "trace": args.trace, "provenance": info, "details": extra, **result}
    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print(f"# {workload.name} seed={args.seed} data_seed={info['data_seed']} trace={args.trace}: "
          f"{workload.why}")
    print(f"# nproc={info['nproc']} cpu={info['cpu_model']!r} python={info['python']} "
          f"numpy={info.get('numpy')} blas={(info.get('blas') or {}).get('name')} "
          f"{(info.get('blas') or {}).get('version')} threads={info['thread_env'] or 'unset'} "
          f"commit={info['git_commit']}")
    for key, entry in result["metrics"].items():
        print(f"{key:44s} {entry['value']:14.6g} {entry['unit']}")
    for key, value in extra.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
