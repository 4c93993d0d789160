"""Command-line surface: synth, diagnose, fit, evaluate, compare.

Every command is deterministic given its resolved configuration, which
is echoed as ``# key=value`` header comments into every output file.
Exit codes: 0 success, 1 usage error, 2 data validation error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, replace
from datetime import datetime
from itertools import chain, islice

import numpy as np

from .errors import DataValidationError, NumericalError, UsageError
from .io import comment_lines, csv_text, load_csv, write_text
from .mar import DEFAULT_HORIZONS, MarConfig, MarModel, daylight_values, fit_all_horizons
from .metrics import (
    DEFAULT_MAPE_THRESHOLD,
    ForecastReport,
    report_rows_csv,
    summarize,
    summary_csv,
    summary_table,
)
from .model_io import load_model, save_mar_model, save_nn_models
from .nn.training import NeuralModel, loss_curve_csv, nn_forecast, train_network
from .series import DEFAULT_SPLIT, DaylightWindow, IrradianceSeries, fit_scaler, split, standardize
from .stats import autocorrelation, ensemble_profile, pacf_from_autocorrelation, select_order, training_residual
from .svgplot import render_line_chart
from .synthetic import SYNTH_START, SYNTH_STEP, synthetic_days

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

MODELS = ("mar", "ar", "cnn", "lstm")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class RunConfig:
    """Resolved run settings: a command's flags, the defaults for the
    rest. Every field is echoed into the output headers."""

    data: str = ""
    split: float = DEFAULT_SPLIT
    order: str = str(MarConfig.order)  # lag count, or "auto" for PACF selection
    horizons: str = ",".join(map(str, DEFAULT_HORIZONS))
    daylight: str = str(DaylightWindow())
    model: str = "mar"
    seed: int = 0
    out: str = "out"
    mape_threshold: float = DEFAULT_MAPE_THRESHOLD
    recursive: bool = False

    def horizon_list(self) -> tuple[int, ...]:
        try:
            horizons = tuple(int(tok) for tok in self.horizons.split(","))
        except ValueError:
            raise UsageError(f"cannot parse horizons {self.horizons!r}") from None
        if not horizons or any(h < 1 for h in horizons):
            raise UsageError(f"horizons must be positive step counts, got {self.horizons!r}")
        if len(set(horizons)) < len(horizons):
            raise UsageError(f"horizons must not repeat, got {self.horizons!r}")
        return horizons

    def order_value(self) -> int | None:
        if self.order == "auto":
            return None
        try:
            order = int(self.order)
        except ValueError:
            raise UsageError(f"order must be an integer or 'auto', got {self.order!r}") from None
        if order < 1:
            raise UsageError(f"order must be >= 1, got {order}")
        return order

    def daylight_window(self) -> DaylightWindow:
        return DaylightWindow.parse(self.daylight)


# each RunConfig field's flag, --name with "_" as "-"
SETTING_FLAGS = {
    "data": dict(help="input CSV path"),
    "split": dict(type=float, help=f"training fraction (default {DEFAULT_SPLIT:.2f})"),
    "order": dict(help="lag count or 'auto'"),
    "horizons": dict(help=f"comma-separated step counts (default {RunConfig.horizons})"),
    "daylight": dict(help="daylight window HH:MM-HH:MM"),
    "model": dict(help=f"one of {', '.join(MODELS)}"),
    "seed": dict(type=int, help="random seed"),
    "out": dict(help="output directory"),
    "mape_threshold": dict(type=float, help="minimum actual W/m2 for MAPE rows"),
    "recursive": dict(action="store_true",
                      help="iterate the 1-step model instead of direct per-horizon weights"),
}
# the RunConfig fields each command takes a flag for; any other is a usage error
COMMAND_SETTINGS = {
    "synth": ("data", "daylight", "seed", "out"),
    "diagnose": ("data", "split", "daylight", "out"),
    "fit": ("data", "split", "order", "horizons", "daylight", "model", "seed", "out"),
    "evaluate": ("data", "split", "horizons", "out", "mape_threshold", "recursive"),
    "compare": ("data", "split", "order", "horizons", "daylight", "seed", "out", "mape_threshold"),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(**{name: getattr(args, name) for name in COMMAND_SETTINGS[args.cmd]})
    if config.model not in MODELS:
        raise UsageError(f"unknown model {config.model!r}, expected one of {MODELS}")
    if config.seed < 0:  # numpy's generators take non-negative seeds only
        raise UsageError(f"seed must be >= 0, got {config.seed}")
    if not 0 < config.mape_threshold < np.inf:  # at 0, MAPE divides by dawn's near-zero actuals
        raise UsageError(
            f"mape threshold must be a positive, finite W/m2 value, got {config.mape_threshold}"
        )
    if not 0 < config.split < 1:
        raise UsageError(f"split fraction must lie in (0, 1), got {config.split}")
    config.horizon_list()  # parsed where used, refused here before any data is read
    config.order_value()
    try:
        config.daylight_window()
    except DataValidationError as exc:  # the text itself, not how it meets the data
        raise UsageError(str(exc)) from None
    return config


def _header_lines(config: RunConfig, command: str) -> dict[str, object]:
    return {"command": command, **asdict(config), "ensemble": config.model != "ar"}


def _write_text(path: str, header: dict[str, object], chunks: Iterable[str]) -> None:
    write_text(path, chain(comment_lines(header), chunks))


def _ensure_out(config: RunConfig) -> str:
    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {config.out}: {exc.strerror}") from None
    return config.out


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this tool reserves 2 for
    data validation, so remap to 1. A flag is spelled in full, so one a
    command does not take is never read as a prefix of one it does
    (``evaluate --model`` as ``--model-file``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="solarcast", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic irradiance CSV")
    p_synth.add_argument("--days", type=int, required=True)
    p_synth.add_argument("--regime", choices=("clear", "cloudy", "mixed"), default="mixed")

    p_diag = sub.add_parser("diagnose", help="ACF/PACF diagnostics and order recommendation")
    p_diag.add_argument("--max-lag", dest="max_lag", type=int, default=24)
    p_diag.add_argument("--domain", choices=("ens", "z"), default="ens",
                        help="correlate ensemble-deducted (default) or standardized data")

    sub.add_parser("fit", help="fit a model and persist it")

    p_eval = sub.add_parser("evaluate", help="forecast the test split with a saved model")
    p_eval.add_argument("--model-file", dest="model_file", required=True)

    sub.add_parser("compare", help="fit and evaluate all four models on one split")

    for command, settings in COMMAND_SETTINGS.items():
        for name in settings:
            sub.choices[command].add_argument(
                f"--{name.replace('_', '-')}", default=getattr(RunConfig, name), **SETTING_FLAGS[name])
    return parser


def _require_data(config: RunConfig) -> IrradianceSeries:
    if not config.data:
        raise UsageError("--data is required for this command")
    return load_csv(config.data)


def cmd_synth(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if args.days < 1:
        raise UsageError(f"--days must be >= 1, got {args.days}")
    max_days = (datetime.max - SYNTH_START).days + 1  # the calendar ends on datetime.max's day
    if args.days > max_days:
        raise UsageError(f"--days {args.days} runs past {datetime.max.date()}, the last date: "
                         f"at most {max_days} days fit from {SYNTH_START.date()}")
    out_dir = _ensure_out(config)
    blocks = synthetic_days(args.days, args.regime, config.seed, daylight=config.daylight_window())
    path = config.data or os.path.join(out_dir, f"synthetic_{args.regime}_{args.days}d.csv")
    header = {**_header_lines(config, "synth"), "days": args.days, "regime": args.regime}
    write_text(path, csv_text(SYNTH_START, SYNTH_STEP, blocks, header))  # no array of the series
    print(path)
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if args.max_lag < 1:  # the PACF starts at lag 1
        raise UsageError(f"--max-lag must be >= 1, got {args.max_lag}")
    series = _require_data(config)
    daylight = config.daylight_window()
    train, _ = split(series, config.split)
    scaler = fit_scaler(train)
    domain = standardize(train, scaler)
    if args.domain == "ens":
        domain = training_residual(domain, ensemble_profile(domain))
    values = daylight_values(domain, daylight)
    acf = autocorrelation(values, args.max_lag)
    pacf = pacf_from_autocorrelation(acf)
    order = select_order(pacf)

    out_dir = _ensure_out(config)
    body_lines = ["lag,acf,pacf"]
    for lag in range(args.max_lag + 1):
        body_lines.append(f"{lag},{acf.values[lag]:.10g},{pacf.values[lag]:.10g}")
    path = os.path.join(out_dir, "diagnostics.csv")
    header = {**_header_lines(config, "diagnose"), "max_lag": args.max_lag, "domain": args.domain}
    _write_text(path, header, ("\n".join(body_lines) + "\n",))
    print(f"recommended order: {order}")
    print(path)
    return EXIT_OK


def _fit_mar(train: IrradianceSeries, config: RunConfig) -> MarModel:
    mar_config = MarConfig(
        order=config.order_value(),
        horizons=config.horizon_list(),
        daylight=config.daylight_window(),
        ensemble_enabled=config.model != "ar",
    )
    return fit_all_horizons(train, mar_config)


@contextlib.contextmanager
def _one_blas_thread():
    """Processes started inside the block run BLAS on one thread: the
    pool already puts at least one worker on each CPU, and OpenBLAS
    reads these variables when it loads."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fit_nn(train: IrradianceSeries, config: RunConfig, kinds: tuple[str, ...]) -> list[NeuralModel]:
    """Train one network per (kind, horizon) in a pool of worker
    processes; returns them in (kind, horizon) order. Each job is the
    same seeded call as in-process training, so results are identical.
    The job lives in ``nn.training``, so a worker does not import this module."""
    # imported here, so commands that train nothing start as fast as before
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    daylight = config.daylight_window()
    jobs = [(kind, h) for kind in kinds for h in config.horizon_list()]
    # an LSTM fit costs ~15 CNN fits, so each gets its own worker and the
    # OS shares the CPUs among them; queued behind a second LSTM fit, a
    # worker would leave the other CPUs idle at the end. Each worker holds
    # its own numpy, so there are at most two per CPU
    cpus = _usable_cpus()
    lstm_jobs = sum(kind == "lstm" for kind, _ in jobs)
    workers = min(len(jobs), cpus if cpus == 1 else max(cpus, lstm_jobs), 2 * cpus)
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        # workers start on submit; LSTM fits take longest, so they go first
        with _one_blas_thread():
            futures = {
                job: pool.submit(train_network, job[0], train, job[1], daylight, config.seed)
                for job in sorted(jobs, key=lambda job: job[0] != "lstm")
            }
        return [futures[job].result() for job in jobs]
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_fit(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    series = _require_data(config)
    train, _ = split(series, config.split)
    out_dir = _ensure_out(config)
    path = os.path.join(out_dir, f"{config.model}.model")
    if config.model in ("mar", "ar"):  # the networks train in a pool of worker processes
        save_mar_model(_fit_mar(train, config), path)
    else:
        models = _fit_nn(train, config, (config.model,))
        save_nn_models(models, path)
        for m in models:
            curve_path = os.path.join(out_dir, f"{config.model}_h{m.horizon}_loss.csv")
            _write_text(curve_path, _header_lines(config, "fit"), (loss_curve_csv(m),))
    print(path)
    return EXIT_OK


def _evaluate_model_file(
    model_file: str, test: IrradianceSeries, config: RunConfig
) -> tuple[Iterator[ForecastReport], RunConfig]:
    """Forecast with a saved model: a generator of checked reports, one
    horizon at a time, and the config with the settings the model file
    fixes in place of the flags, so output headers record what ran."""
    model = load_model(model_file, config.horizon_list(), config.recursive)
    config = replace(config, **model.settings())

    def reports() -> Iterator[ForecastReport]:
        for h in config.horizon_list():
            try:
                report = model.forecast(test, h, config.recursive)
            except DataValidationError as exc:  # the file's values do not fit the data
                raise DataValidationError(f"{model_file}: {exc}") from None
            with np.errstate(over="ignore"):  # squared errors that overflow have no finite metrics
                finite = np.isfinite(np.square(report.predicted - report.actual).sum())
            if not finite:
                raise DataValidationError(f"{model_file}: horizon {h} forecasts overflow float64; "
                                          "check its scaler, profile and weights")
            yield report
            del report  # not held while the next horizon is forecast

    return reports(), config


def _write_reports(
    reports: Iterable[ForecastReport],
    config: RunConfig,
    command: str,
    out_dir: str,
    step: int,
    prefix: str = "",
) -> None:
    """Score each report and stream its rows into the forecasts file before
    the next is taken. A fault leaves that file as it was and writes no summary."""
    cells = []

    def rows() -> Iterator[str]:
        for report in reports:
            cells.extend(summarize([report], min_actual=config.mape_threshold))
            # each report's header-then-rows text, the header only once
            yield from islice(report_rows_csv([report]), len(cells) > 1, None)
            del report  # not held while the next report is made

    header = _header_lines(config, command)
    _write_text(os.path.join(out_dir, f"{prefix}forecasts.csv"), header, rows())
    cells.sort()  # comparison order
    _write_text(os.path.join(out_dir, f"{prefix}summary.csv"), header, (summary_csv(cells),))
    print(summary_table(cells, step=step), end="")


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    series = _require_data(config)
    _, test = split(series, config.split)
    out_dir = _ensure_out(config)
    reports, used = _evaluate_model_file(args.model_file, test, config)
    _write_reports(reports, used, "evaluate", out_dir, step=test.step)
    return EXIT_OK


def _overlay_charts(
    reports: list[ForecastReport],
    test: IrradianceSeries,
    config: RunConfig,
    out_dir: str,
) -> None:
    """One SVG per horizon: the first test day's observed curve with
    every model's predictions overlaid."""
    by_horizon: dict[int, list[ForecastReport]] = {}
    for report in reports:
        by_horizon.setdefault(report.horizon, []).append(report)
    header = _header_lines(config, "compare")
    comment = " ".join(f"{k}={v}" for k, v in header.items())
    for horizon, horizon_reports in sorted(by_horizon.items()):
        first = horizon_reports[0]
        # the first test day's slots are the indices below one day
        on_first_day = first.sample_index < test.samples_per_day
        minutes = first.sample_index[on_first_day] * test.step
        hours = minutes // 60 + (minutes % 60) / 60.0
        curves = [("observed", hours, first.actual[on_first_day])]
        for report in horizon_reports:
            on_first_day = report.sample_index < test.samples_per_day
            curves.append((report.model, hours, report.predicted[on_first_day]))
        title = (
            f"Observed vs predicted, {horizon * test.step}-minute horizon, {test.start.date()}"
        )
        svg = render_line_chart(
            curves, title=title, x_label="hour of day", y_label="irradiance W/m2", comment=comment
        )
        write_text(os.path.join(out_dir, f"overlay_h{horizon}.svg"), (svg,))


def cmd_compare(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    series = _require_data(config)
    train, test = split(series, config.split)
    out_dir = _ensure_out(config)

    models = [_fit_mar(train, replace(config, model=name)) for name in ("mar", "ar")]
    reports = [model.forecast(test, h) for h in config.horizon_list() for model in models]
    # the networks forecast the same target slots, so a MAPE threshold
    # that no actual reaches fails here, before any training
    summarize(reports, min_actual=config.mape_threshold)
    reports.extend(nn_forecast(model, test) for model in _fit_nn(train, config, ("cnn", "lstm")))

    _write_reports(reports, config, "compare", out_dir, step=test.step, prefix="compare_")
    _overlay_charts(reports, test, config, out_dir)
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "diagnose": cmd_diagnose,
    "fit": cmd_fit,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.cmd](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
