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
from .synthetic import REGIMES, SYNTH_START, SYNTH_STEP, synthetic_days

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


def synth_days(days: int) -> int:
    if days < 1:
        raise UsageError(f"--days must be >= 1, got {days}")
    max_days = (datetime.max - SYNTH_START).days + 1  # the calendar ends on datetime.max's day
    if days > max_days:
        raise UsageError(f"--days {days} runs past {datetime.max.date()}, the last date: "
                         f"at most {max_days} days fit from {SYNTH_START.date()}")
    return days


def _refuse_unless(accepts: Callable[[Any], bool], message: str) -> Callable[[Any], Any]:
    """A check that returns a value ``accepts`` takes and raises a
    ``UsageError`` of ``message`` for one it refuses."""

    def check(value: Any) -> Any:
        if not accepts(value):
            raise UsageError(message.format(value))
        return value
    return check


# each setting: its flag, --name with "_" as "-", and the check that
# refuses a value no data could make valid and returns the value it
# parsed; main parses a command's flags in this order, before it reads
# the data or makes --out
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
    "days": (dict(type=int, required=True), synth_days),
    "regime": (dict(choices=REGIMES, default="mixed"), None),
    # the PACF starts at lag 1
    "max_lag": (dict(type=int, default=24),
                _refuse_unless(lambda lag: lag >= 1, "--max-lag must be >= 1, got {}")),
    "domain": (dict(choices=("ens", "z"), default="ens",
                    help="correlate ensemble-deducted (default) or standardized data"), None),
    "model_file": (dict(required=True), None),
}


def _header(given: dict[str, object], **fixed: str) -> dict[str, object]:
    """An output's header comments: the command and its flags as given,
    then the settings a model file fixes; whether the ensemble step ran
    where the model is known: for MAR only, not AR or a network."""
    header = {**given, **fixed}
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
        raise SystemExit(FAILURES[UsageError][1])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="solarcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for flag in flags:
            name, kwargs = (flag, SETTINGS[flag][0]) if isinstance(flag, str) else flag
            command_parser.add_argument(f"--{name.replace('_', '-')}", **kwargs)
    return parser


def cmd_synth(header: dict[str, object], *, days: int, regime: str, data: str,
              daylight: DaylightWindow, seed: int, out: str) -> None:
    blocks = synthetic_days(days, regime, seed, daylight=daylight)
    # --out is made only when the series is written into it
    path = data or os.path.join(_ensure_out(out), f"synthetic_{regime}_{days}d.csv")
    write_text(path, csv_text(SYNTH_START, SYNTH_STEP, blocks, header))  # no array of the series
    print(path)


def cmd_diagnose(header: dict[str, object], *, halves: tuple[IrradianceSeries, IrradianceSeries],
                 daylight: DaylightWindow, out: str, max_lag: int, domain: str) -> None:
    train, _ = halves
    series = standardize(train, fit_scaler(train))
    if domain == "ens":
        series = training_residual(series, ensemble_profile(series))
    acf = autocorrelation(daylight_values(series, daylight), max_lag)
    pacf = pacf_from_autocorrelation(acf)
    order = select_order(pacf)

    body_lines = ["lag,acf,pacf"]
    for lag in range(max_lag + 1):
        body_lines.append(f"{lag},{acf.values[lag]:.10g},{pacf.values[lag]:.10g}")
    path = os.path.join(_ensure_out(out), "diagnostics.csv")
    _write_text(path, header, ("\n".join(body_lines) + "\n",))
    print(f"recommended order: {order}")
    print(path)


def _fit_mar(train: IrradianceSeries, model: str, order: int | None, horizons: tuple[int, ...],
             daylight: DaylightWindow) -> MarModel:
    mar_config = MarConfig(order=order, horizons=horizons, daylight=daylight, ensemble_enabled=model != "ar")
    return fit_all_horizons(train, mar_config)


def cmd_fit(header: dict[str, object], *, halves: tuple[IrradianceSeries, IrradianceSeries],
            order: int | None, horizons: tuple[int, ...], daylight: DaylightWindow, model: str,
            seed: int, out: str) -> None:
    train, _ = halves
    path = os.path.join(_ensure_out(out), f"{model}.model")
    if model in ("mar", "ar"):  # the networks train in a pool of worker processes
        save_mar_model(_fit_mar(train, model, order, horizons, daylight), path)
    else:
        models = train_networks([SPECS[model]()], train, horizons, daylight, seed)
        save_nn_models(models, path)
        for m in models:
            _write_text(os.path.join(out, f"{model}_h{m.horizon}_loss.csv"), header, (loss_curve_csv(m),))
    print(path)


def _write_reports(
    reports: Iterable[ForecastReport],
    header: dict[str, object],
    out: str,
    mape_threshold: float,
    step: int,
    prefix: str = "",
) -> None:
    """Score each report and stream its rows into the forecasts file before
    the next is taken. A fault leaves that file as it was and writes no summary."""
    cells = []

    def rows() -> Iterator[str]:
        for report in reports:
            cells.extend(summarize([report], min_actual=mape_threshold))
            # each report's header-then-rows text, the header only once
            yield from islice(report_rows_csv([report]), len(cells) > 1, None)
            del report  # not held while the next report is made

    _write_text(os.path.join(out, f"{prefix}forecasts.csv"), header, rows())
    cells.sort()  # comparison order
    _write_text(os.path.join(out, f"{prefix}summary.csv"), header, (summary_csv(cells),))
    print(summary_table(cells, step=step), end="")


def cmd_evaluate(header: dict[str, object], *, halves: tuple[IrradianceSeries, IrradianceSeries],
                 model_file: str, horizons: tuple[int, ...], out: str, mape_threshold: float,
                 recursive: bool) -> None:
    _, test = halves
    _ensure_out(out)
    model = load_model(model_file, horizons, recursive)

    def reports() -> Iterator[ForecastReport]:  # forecast with the saved model, one horizon at a time
        for h in horizons:
            try:
                report = model.forecast(test, h, recursive)
            except DataValidationError as exc:  # the file's values do not fit the data
                raise DataValidationError(f"{model_file}: {exc}") from None
            yield report
            del report  # not held while the next horizon is forecast

    # the header adds the settings the model file fixes to the flags, so it records what ran
    _write_reports(reports(), _header(header, **model.settings()), out, mape_threshold, step=test.step)


def _overlay_charts(
    reports: list[ForecastReport],
    test: IrradianceSeries,
    header: dict[str, object],
    out: str,
) -> None:
    """One SVG per horizon: the first test day's observed curve with
    every model's predictions overlaid, each at its own report's hours."""
    by_horizon: dict[int, list[ForecastReport]] = {}
    for report in reports:
        by_horizon.setdefault(report.horizon, []).append(report)
    comment = " ".join(f"{k}={v}" for k, v in header.items())
    for horizon, horizon_reports in sorted(by_horizon.items()):
        curves = []
        for report in horizon_reports:
            # the first test day's slots are the indices below one day
            on_first_day = report.sample_index < test.samples_per_day
            minutes = report.sample_index[on_first_day] * test.step
            hours = minutes // 60 + (minutes % 60) / 60.0
            if not curves:  # the observed curve at the first report's rows
                curves.append(("observed", hours, report.actual[on_first_day]))
            curves.append((report.model, hours, report.predicted[on_first_day]))
        title = (
            f"Observed vs predicted, {horizon * test.step}-minute horizon, {test.start.date()}"
        )
        svg = render_line_chart(
            curves, title=title, x_label="hour of day", y_label="irradiance W/m2", comment=comment
        )
        write_text(os.path.join(out, f"overlay_h{horizon}.svg"), (svg,))


def cmd_compare(header: dict[str, object], *, halves: tuple[IrradianceSeries, IrradianceSeries],
                order: int | None, horizons: tuple[int, ...], daylight: DaylightWindow, seed: int,
                out: str, mape_threshold: float) -> None:
    train, test = halves
    _ensure_out(out)
    models = [_fit_mar(train, name, order, horizons, daylight) for name in ("mar", "ar")]
    reports = [model.forecast(test, h) for h in horizons for model in models]
    # the networks forecast the same target slots, so a MAPE threshold
    # that no actual reaches fails here, before any training
    summarize(reports, min_actual=mape_threshold)
    networks = train_networks([spec() for spec in SPECS.values()], train, horizons, daylight, seed)
    reports.extend(nn_forecast(model, test) for model in networks)

    _write_reports(reports, header, out, mape_threshold, step=test.step, prefix="compare_")
    _overlay_charts(reports, test, header, out)


# each command: its function, its help, and the settings it takes a flag
# for, in --help order, each by name or as (name, the command's own flag
# text); any other flag is a usage error
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic irradiance CSV", (
        "days", "regime", ("data", dict(default="", help="output CSV path "
                                        "(default synthetic_<regime>_<days>d.csv in the output directory)")),
        "daylight", "seed", "out")),
    "diagnose": (cmd_diagnose, "ACF/PACF diagnostics and order recommendation",
                 ("max_lag", "domain", "data", "split", "daylight", "out")),
    "fit": (cmd_fit, "fit a model and persist it",
            ("data", "split", "order", "horizons", "daylight", "model", "seed", "out")),
    "evaluate": (cmd_evaluate, "forecast the test split with a saved model",
                 ("model_file", "data", "split", "horizons", "out", "mape_threshold", "recursive")),
    "compare": (cmd_compare, "fit and evaluate all four models on one split",
                ("data", "split", "order", "horizons", "daylight", "seed", "out", "mape_threshold")),
}
# each refusal's stderr prefix and exit code
FAILURES = {UsageError: ("error", 1), DataValidationError: ("data error", 2),
            NumericalError: ("numerical error", 3)}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:  # each flag parsed once, in SETTINGS order, before the data is read or --out made
        settings = {name: check(getattr(args, name)) if check else getattr(args, name)
                    for name, (_, check) in SETTINGS.items() if hasattr(args, name)}
        if "split" in settings:  # the four commands that read --data get its halves
            settings["halves"] = split(load_csv(settings.pop("data")), settings.pop("split"))
        COMMANDS[args.command][0](_header(vars(args)), **settings)
        return 0
    except tuple(FAILURES) as exc:
        prefix, code = FAILURES[type(exc)]
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
