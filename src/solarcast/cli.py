"""Command-line surface: synth, diagnose, fit, evaluate, compare.

Every command is deterministic given its flags. The ``# key=value``
header comments of each output file record what ran: the command, each
flag it takes, the settings a model file fixes (``evaluate``), and
``ensemble`` where the model is known (``fit``, ``evaluate``).
Exit codes: 0 success, 1 usage error, 2 data validation error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from datetime import datetime
from itertools import chain, islice
from typing import Any

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
from .nn.networks import SPECS
from .nn.training import loss_curve_csv, nn_forecast, train_networks
from .series import DEFAULT_SPLIT, DaylightWindow, IrradianceSeries, fit_scaler, split, standardize
from .stats import autocorrelation, ensemble_profile, pacf_from_autocorrelation, select_order, training_residual
from .svgplot import render_line_chart
from .synthetic import SYNTH_START, SYNTH_STEP, synthetic_days

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

MODELS = ("mar", "ar", *SPECS)


def horizon_list(text: str) -> tuple[int, ...]:
    try:
        horizons = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse horizons {text!r}") from None
    if not horizons or any(h < 1 for h in horizons):
        raise UsageError(f"horizons must be positive step counts, got {text!r}")
    if len(set(horizons)) < len(horizons):
        raise UsageError(f"horizons must not repeat, got {text!r}")
    return horizons


def order_value(text: str) -> int | None:
    """The lag count, or None for "auto" (PACF selection)."""
    if text == "auto":
        return None
    try:
        order = int(text)
    except ValueError:
        raise UsageError(f"order must be an integer or 'auto', got {text!r}") from None
    if order < 1:
        raise UsageError(f"order must be >= 1, got {order}")
    return order


def daylight_window(text: str) -> DaylightWindow:
    try:
        return DaylightWindow.parse(text)
    except DataValidationError as exc:  # the text itself, not how it meets the data
        raise UsageError(str(exc)) from None


def _refuse_unless(accepts: Callable[[Any], bool], message: str) -> Callable[[Any], None]:
    """A check that raises a ``UsageError`` of ``message`` for a value ``accepts`` refuses."""

    def check(value: Any) -> None:
        if not accepts(value):
            raise UsageError(message.format(value))
    return check


# each setting: its flag, --name with "_" as "-", and the check that
# refuses a value no data could make valid; main runs the checks in this
# order, before the command reads its data or makes --out
SETTINGS = {
    "data": (dict(required=True, help="input CSV path"), None),
    "out": (dict(default="out", help="output directory"), None),
    # numpy's generators take non-negative seeds only
    "seed": (dict(type=int, default=0, help="random seed"),
             _refuse_unless(lambda seed: seed >= 0, "seed must be >= 0, got {}")),
    # at 0, MAPE divides by dawn's near-zero actuals
    "mape_threshold": (dict(type=float, default=DEFAULT_MAPE_THRESHOLD,
                            help="minimum actual W/m2 for MAPE rows"),
                       _refuse_unless(lambda value: 0 < value < np.inf,
                                      "mape threshold must be a positive, finite W/m2 value, got {}")),
    "split": (dict(type=float, default=DEFAULT_SPLIT, help="training fraction (default %(default).2f)"),
              _refuse_unless(lambda value: 0 < value < 1, "split fraction must lie in (0, 1), got {}")),
    "horizons": (dict(default=",".join(map(str, DEFAULT_HORIZONS)),
                      help="comma-separated step counts (default %(default)s)"), horizon_list),
    "order": (dict(default=str(MarConfig.order), help="lag count or 'auto'"), order_value),
    "daylight": (dict(default=str(DaylightWindow()), help="daylight window HH:MM-HH:MM"),
                 daylight_window),
    "model": (dict(choices=MODELS, default="mar", help="ar is mar without the ensemble step"), None),
    "recursive": (dict(action="store_true",
                       help="iterate the 1-step model instead of direct per-horizon weights"), None),
}
# the settings each command takes a flag for; any other is a usage error
COMMAND_SETTINGS = {
    "synth": ("daylight", "seed", "out"),
    "diagnose": ("data", "split", "daylight", "out"),
    "fit": ("data", "split", "order", "horizons", "daylight", "model", "seed", "out"),
    "evaluate": ("data", "split", "horizons", "out", "mape_threshold", "recursive"),
    "compare": ("data", "split", "order", "horizons", "daylight", "seed", "out", "mape_threshold"),
}


def _header(args: argparse.Namespace, **fixed: str) -> dict[str, object]:
    """An output's header comments: the command and its flags, then the
    settings a model file fixes; whether the ensemble step ran where the
    model is known: for MAR only, not AR or a network."""
    header = {**vars(args), **fixed}
    if "model" in header:
        header["ensemble"] = header["model"] == "mar"
    return header


def _write_text(path: str, header: dict[str, object], chunks: Iterable[str]) -> None:
    write_text(path, chain(comment_lines(header), chunks))


def _ensure_out(out: str) -> str:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


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
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic irradiance CSV")
    p_synth.add_argument("--days", type=int, required=True)
    p_synth.add_argument("--regime", choices=("clear", "cloudy", "mixed"), default="mixed")
    p_synth.add_argument("--data", default="", help="output CSV path "
                         "(default synthetic_<regime>_<days>d.csv in the output directory)")

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
            sub.choices[command].add_argument(f"--{name.replace('_', '-')}", **SETTINGS[name][0])
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    if args.days < 1:
        raise UsageError(f"--days must be >= 1, got {args.days}")
    max_days = (datetime.max - SYNTH_START).days + 1  # the calendar ends on datetime.max's day
    if args.days > max_days:
        raise UsageError(f"--days {args.days} runs past {datetime.max.date()}, the last date: "
                         f"at most {max_days} days fit from {SYNTH_START.date()}")
    blocks = synthetic_days(args.days, args.regime, args.seed, daylight=daylight_window(args.daylight))
    # --out is made only when the series is written into it
    path = args.data or os.path.join(_ensure_out(args.out), f"synthetic_{args.regime}_{args.days}d.csv")
    write_text(path, csv_text(SYNTH_START, SYNTH_STEP, blocks, _header(args)))  # no array of the series
    print(path)
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.max_lag < 1:  # the PACF starts at lag 1
        raise UsageError(f"--max-lag must be >= 1, got {args.max_lag}")
    series = load_csv(args.data)
    train, _ = split(series, args.split)
    scaler = fit_scaler(train)
    domain = standardize(train, scaler)
    if args.domain == "ens":
        domain = training_residual(domain, ensemble_profile(domain))
    values = daylight_values(domain, daylight_window(args.daylight))
    acf = autocorrelation(values, args.max_lag)
    pacf = pacf_from_autocorrelation(acf)
    order = select_order(pacf)

    out_dir = _ensure_out(args.out)
    body_lines = ["lag,acf,pacf"]
    for lag in range(args.max_lag + 1):
        body_lines.append(f"{lag},{acf.values[lag]:.10g},{pacf.values[lag]:.10g}")
    path = os.path.join(out_dir, "diagnostics.csv")
    _write_text(path, _header(args), ("\n".join(body_lines) + "\n",))
    print(f"recommended order: {order}")
    print(path)
    return EXIT_OK


def _fit_mar(train: IrradianceSeries, args: argparse.Namespace, model: str) -> MarModel:
    mar_config = MarConfig(
        order=order_value(args.order),
        horizons=horizon_list(args.horizons),
        daylight=daylight_window(args.daylight),
        ensemble_enabled=model != "ar",
    )
    return fit_all_horizons(train, mar_config)


def cmd_fit(args: argparse.Namespace) -> int:
    series = load_csv(args.data)
    train, _ = split(series, args.split)
    out_dir = _ensure_out(args.out)
    path = os.path.join(out_dir, f"{args.model}.model")
    if args.model in ("mar", "ar"):  # the networks train in a pool of worker processes
        save_mar_model(_fit_mar(train, args, args.model), path)
    else:
        models = train_networks([SPECS[args.model]()], train, horizon_list(args.horizons),
                                daylight_window(args.daylight), args.seed)
        save_nn_models(models, path)
        for m in models:
            curve_path = os.path.join(out_dir, f"{args.model}_h{m.horizon}_loss.csv")
            _write_text(curve_path, _header(args), (loss_curve_csv(m),))
    print(path)
    return EXIT_OK


def _write_reports(
    reports: Iterable[ForecastReport],
    args: argparse.Namespace,
    header: dict[str, object],
    step: int,
    prefix: str = "",
) -> None:
    """Score each report and stream its rows into the forecasts file before
    the next is taken. A fault leaves that file as it was and writes no summary."""
    cells = []

    def rows() -> Iterator[str]:
        for report in reports:
            cells.extend(summarize([report], min_actual=args.mape_threshold))
            # each report's header-then-rows text, the header only once
            yield from islice(report_rows_csv([report]), len(cells) > 1, None)
            del report  # not held while the next report is made

    _write_text(os.path.join(args.out, f"{prefix}forecasts.csv"), header, rows())
    cells.sort()  # comparison order
    _write_text(os.path.join(args.out, f"{prefix}summary.csv"), header, (summary_csv(cells),))
    print(summary_table(cells, step=step), end="")


def cmd_evaluate(args: argparse.Namespace) -> int:
    series = load_csv(args.data)
    _, test = split(series, args.split)
    _ensure_out(args.out)
    horizons = horizon_list(args.horizons)
    model = load_model(args.model_file, horizons, args.recursive)

    def reports() -> Iterator[ForecastReport]:  # forecast with the saved model, one horizon at a time
        for h in horizons:
            try:
                report = model.forecast(test, h, args.recursive)
            except DataValidationError as exc:  # the file's values do not fit the data
                raise DataValidationError(f"{args.model_file}: {exc}") from None
            yield report
            del report  # not held while the next horizon is forecast

    # the header adds the settings the model file fixes to the flags, so it records what ran
    _write_reports(reports(), args, _header(args, **model.settings()), step=test.step)
    return EXIT_OK


def _overlay_charts(
    reports: list[ForecastReport],
    test: IrradianceSeries,
    args: argparse.Namespace,
) -> None:
    """One SVG per horizon: the first test day's observed curve with
    every model's predictions overlaid."""
    by_horizon: dict[int, list[ForecastReport]] = {}
    for report in reports:
        by_horizon.setdefault(report.horizon, []).append(report)
    comment = " ".join(f"{k}={v}" for k, v in _header(args).items())
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
        write_text(os.path.join(args.out, f"overlay_h{horizon}.svg"), (svg,))


def cmd_compare(args: argparse.Namespace) -> int:
    series = load_csv(args.data)
    train, test = split(series, args.split)
    _ensure_out(args.out)

    horizons, daylight = horizon_list(args.horizons), daylight_window(args.daylight)
    models = [_fit_mar(train, args, name) for name in ("mar", "ar")]
    reports = [model.forecast(test, h) for h in horizons for model in models]
    # the networks forecast the same target slots, so a MAPE threshold
    # that no actual reaches fails here, before any training
    summarize(reports, min_actual=args.mape_threshold)
    networks = train_networks([spec() for spec in SPECS.values()], train, horizons, daylight, args.seed)
    reports.extend(nn_forecast(model, test) for model in networks)

    _write_reports(reports, args, _header(args), step=test.step, prefix="compare_")
    _overlay_charts(reports, test, args)
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
        for name, (_, check) in SETTINGS.items():
            if check and name in COMMAND_SETTINGS[args.command]:
                check(getattr(args, name))
        return COMMANDS[args.command](args)
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
