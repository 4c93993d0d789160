"""Per-layer tracing: timing wrappers around solarcast's public
functions, and the traced pass that runs a workload's commands
in-process through ``solarcast.cli.main(argv)``.

``cli``, ``nn.training`` and ``nn.networks`` import with ``from .x
import y``, so a wrapper set only on the defining module would miss
their calls. ``Tracer.install`` therefore replaces every binding of the
function in every loaded solarcast module, and methods on their class.

Run as a script, it makes pairs of passes, one untraced and one
traced, until the given seconds have passed, and writes the walls,
outcomes and spans as JSON:

    python3 perfbench/tracer.py --workload mar-session --seed 0 --seconds 10 --out trace.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from spantree import Span
from workloads import SRC, check_outputs, fresh_dir, make_workload, reference_dir, workload_dir


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Layer:
    """A wrapped function. ``attr`` may be ``Class.method``. ``count``
    names what ``counter(args, kwargs, result)`` measures; ``spans``
    False only counts calls, for functions called once per row;
    ``total`` also reports the time including wrapped callees."""

    name: str
    module: str
    attr: str
    count: str | None = None
    counter: Callable | None = None
    spans: bool = True
    total: bool = False


ROOT_LAYER = "cli.main"

LAYERS = (
    Layer(ROOT_LAYER, "solarcast.cli", "main"),
    Layer("io.load_csv", "solarcast.io", "load_csv", "rows", lambda a, k, r: len(r)),
    Layer("io.write_csv", "solarcast.io", "write_csv", "rows", lambda a, k, r: len(_arg(a, k, 0, "series"))),
    Layer("synthetic.generate_synthetic", "solarcast.synthetic", "generate_synthetic"),
    Layer("series.split", "solarcast.series", "split"),
    Layer("series.standardize", "solarcast.series", "standardize"),
    Layer("series.IrradianceSeries.timestamp", "solarcast.series", "IrradianceSeries.timestamp", spans=False),
    Layer("stats.ensemble_profile", "solarcast.stats", "ensemble_profile"),
    Layer("stats.autocorrelation", "solarcast.stats", "autocorrelation"),
    Layer("stats.pacf_from_autocorrelation", "solarcast.stats", "pacf_from_autocorrelation"),
    Layer("mar.fit_all_horizons", "solarcast.mar", "fit_all_horizons", total=True),
    Layer("mar.build_design_matrix", "solarcast.mar", "build_design_matrix", "rows", lambda a, k, r: r.n_rows),
    Layer("mar.fit_weights", "solarcast.mar", "fit_weights"),
    Layer("mar.forecast", "solarcast.mar", "forecast", "rows", lambda a, k, r: len(r)),
    Layer("nn.build_windows", "solarcast.nn.training", "build_windows", "rows", lambda a, k, r: r.targets.size),
    Layer("nn.train_cnn", "solarcast.nn.training", "train_cnn", "epochs", lambda a, k, r: len(r.loss_curve),
          total=True),
    Layer("nn.train_lstm", "solarcast.nn.training", "train_lstm", "epochs", lambda a, k, r: len(r.loss_curve),
          total=True),
    Layer("nn.nn_forecast", "solarcast.nn.training", "nn_forecast", "rows", lambda a, k, r: len(r)),
    Layer("nn.lstm.lstm_sequence_forward", "solarcast.nn.lstm", "lstm_sequence_forward"),
    Layer("nn.lstm.lstm_sequence_backward", "solarcast.nn.lstm", "lstm_sequence_backward"),
    Layer("nn.lstm.sigmoid", "solarcast.nn.lstm", "sigmoid"),
    Layer("nn.layers.dense_forward", "solarcast.nn.layers", "dense_forward"),
    Layer("nn.layers.dense_backward", "solarcast.nn.layers", "dense_backward"),
    Layer("nn.layers.conv1d_forward", "solarcast.nn.layers", "conv1d_forward"),
    Layer("nn.layers.conv1d_backward", "solarcast.nn.layers", "conv1d_backward"),
    Layer("nn.adam.Adam.step", "solarcast.nn.adam", "Adam.step"),
    Layer("metrics.summarize", "solarcast.metrics", "summarize"),
    Layer(
        "metrics.report_rows_csv", "solarcast.metrics", "report_rows_csv", "rows",
        lambda a, k, r: sum(len(rep) for rep in _arg(a, k, 0, "reports")),
    ),
    Layer("model_io.save_mar_model", "solarcast.model_io", "save_mar_model"),
    Layer("model_io.load_mar_model", "solarcast.model_io", "load_mar_model"),
    Layer("model_io.save_nn_models", "solarcast.model_io", "save_nn_models"),
    Layer("model_io.load_nn_models", "solarcast.model_io", "load_nn_models"),
    Layer("svgplot.render_line_chart", "solarcast.svgplot", "render_line_chart"),
)

TRAIN_LAYERS = ("nn.train_cnn", "nn.train_lstm")
WINDOWS_LAYER = "nn.build_windows"


class Tracer:
    """Records spans of the wrapped calls in memory. ``command`` is
    the id stamped on new spans; the caller sets it per command."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.calls: Counter = Counter()   # calls of span-less layers
        self.errors: Counter = Counter()
        self.command = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.calls, self.errors, self._stack = [], Counter(), Counter(), []

    def _wrap(self, layer: Layer, fn):
        tracer, name, counter = self, layer.name, layer.counter

        if not layer.spans:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    tracer.errors[name] += 1
                    raise
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)  # reserve the slot so a parent precedes its children
            parent = stack[-1] if stack else None
            stack.append(index)
            result, ok = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if not ok:
                    tracer.errors[name] += 1
                count = counter(args, kwargs, result) if ok and counter else None
                spans[index] = Span(name, start, end, parent, tracer.command, count)

        return traced

    def install(self) -> None:
        """Wrap every layer at every binding its callers look it up by."""
        import solarcast.cli  # noqa: F401  (loads every module that holds a binding)

        modules = [m for n, m in list(sys.modules.items()) if n == "solarcast" or n.startswith("solarcast.")]
        for layer in LAYERS:
            owner = sys.modules[layer.module]
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original))
                continue
            original = getattr(owner, layer.attr)
            wrapped = self._wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


# ------------------------------------------------------- in-process passes


def run_inprocess_pass(workload, ref_dir, tracer: Tracer | None) -> list[dict]:
    """Run the pass commands through ``solarcast.cli.main`` in the
    current process (whose current directory is the workload's work
    directory). Returns one record per command."""
    import solarcast.cli

    fresh_dir("pass")
    records = []
    for i, command in enumerate(workload.passes):
        if tracer is not None:
            tracer.command = i
        with open(os.path.join("pass", f"log_{i:02d}.txt"), "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log):
            start = perf_counter()
            try:
                code = solarcast.cli.main(list(command.args))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded as a failed command; the pass goes on
                code = repr(exc)
            wall = perf_counter() - start
        error = f"exit {code}" if code != 0 else check_outputs(command, ".", ref_dir)
        records.append({"kind": command.kind, "wall_s": wall, "error": error})
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description="traced in-process passes of one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    workload = make_workload(args.workload, args.seed)
    ref_dir = reference_dir(workload, args.seed)
    out_path = os.path.abspath(args.out)
    os.chdir(workload_dir(workload))

    tracer = Tracer()
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        untraced = run_inprocess_pass(workload, ref_dir, None)
        tracer.reset()
        tracer.install()
        try:
            traced = run_inprocess_pass(workload, ref_dir, tracer)
        finally:
            tracer.uninstall()
        passes.append({
            "untraced": untraced,
            "traced": traced,
            "spans": [list(s) for s in tracer.spans],
            "calls": dict(tracer.calls),
            "errors": dict(tracer.errors),
        })
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes}, fh)


if __name__ == "__main__":
    main()
