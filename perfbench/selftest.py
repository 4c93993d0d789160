"""The benchmark's own arithmetic and wrapper placement. Fast: no
timing pass runs here. The file name keeps it out of the repository's
default pytest collection, so the test suite's wall time does not grow;
run it by name:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys

import pytest

from spantree import (
    Span,
    count_csv_rows,
    coverage,
    layer_metrics,
    percentile,
    rows_per_s,
    self_times,
    supported_percentile,
    timing_summary,
    union_length,
    windows_per_s,
)
from tracer import Layer
from workloads import SRC, compare_numeric_csv


def tree() -> list[Span]:
    """cli.main [0, 10] with children load [1, 3] and fit [4, 9]; fit
    has children design [4, 5] and lstsq [6, 8]; then a second command
    whose main [20, 22] has no children."""
    return [
        Span("cli.main", 0.0, 10.0, None, 0, None),
        Span("io.load_csv", 1.0, 3.0, 0, 0, 100),
        Span("mar.fit", 4.0, 9.0, 0, 0, None),
        Span("mar.design", 4.0, 5.0, 2, 0, 40),
        Span("mar.lstsq", 6.0, 8.0, 2, 0, None),
        Span("cli.main", 20.0, 22.0, None, 1, None),
    ]


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2
    assert union_length([], 0, 1) == 0


def test_self_time_is_duration_minus_child_coverage():
    assert self_times(tree()) == [10 - 2 - 5, 2, 5 - 1 - 2, 1, 2, 2]


def test_self_times_sum_to_root_durations():
    assert sum(self_times(tree())) == pytest.approx(10 + 2)


def test_coverage_counts_layer_spans_against_wall():
    # layer spans cover [1, 3] and [4, 9] = 7 s of a 12 s traced wall
    assert coverage(tree(), 12.0, root="cli.main") == pytest.approx(7 / 12)
    with pytest.raises(ValueError):
        coverage(tree(), 0.0, root="cli.main")


def test_layer_metrics_sum_self_calls_and_counts():
    layers = [
        Layer("cli.main", "m", "main"),
        Layer("io.load_csv", "m", "f", "rows"),
        Layer("mar.fit", "m", "f", total=True),
        Layer("mar.design", "m", "f", "rows"),
        Layer("series.timestamp", "m", "f", spans=False),
        Layer("nn.unused", "m", "f"),
    ]
    m = layer_metrics(tree(), {"series.timestamp": 7}, {"io.load_csv": 1}, layers)
    assert m["cli.main.self_s"] == 5
    assert m["mar.fit.self_s"] == 2 and m["mar.fit.total_s"] == 5
    assert "cli.main.total_s" not in m
    assert m["cli.main.calls"] == 2
    assert m["io.load_csv.rows"] == 100
    assert m["io.load_csv.errors"] == 1
    assert m["mar.design.rows"] == 40
    assert m["series.timestamp.calls"] == 7
    assert "series.timestamp.self_s" not in m
    assert m["nn.unused.self_s"] == 0 and m["nn.unused.calls"] == 0


def test_windows_per_s_is_windows_times_epochs_over_training_time():
    spans = [
        Span("nn.train_cnn", 0.0, 2.0, None, 0, 30),     # 30 epochs
        Span("nn.build_windows", 0.0, 0.5, 0, 0, 1000),  # 1000 windows
        Span("nn.train_lstm", 2.0, 10.0, None, 0, 100),
        Span("nn.build_windows", 2.0, 2.5, 2, 0, 500),
        Span("nn.build_windows", 11.0, 12.0, None, 0, 9999),  # forecast windows, not training
    ]
    got = windows_per_s(spans, ("nn.train_cnn", "nn.train_lstm"), "nn.build_windows")
    assert got == pytest.approx((30 * 1000 + 100 * 500) / 10.0)
    assert windows_per_s([], ("nn.train_cnn",), "nn.build_windows") == 0.0


@pytest.mark.parametrize("n, expected", [(1, None), (19, None), (20, 50), (39, 50), (40, 75),
                                         (100, 90), (199, 90), (200, 95), (1000, 99)])
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([3.0], 99) == 3.0


def test_timing_summary_reports_median_percentile_and_count():
    few = timing_summary([3.0, 1.0, 2.0])
    assert few == {"median": 2.0, "percentile": None, "percentile_value": None, "count": 3}
    many = timing_summary([float(v) for v in range(100, 0, -1)])
    assert many["percentile"] == 90 and many["percentile_value"] == 90.0 and many["count"] == 100


def test_forecast_rows_per_s_from_a_known_csv(tmp_path):
    path = tmp_path / "forecasts.csv"
    path.write_text(
        "# command=evaluate\n# model=mar\n"
        "timestamp,model,horizon,actual_wm2,predicted_wm2\n"
        "2020-01-01T06:40:00,mar,1,10,11\n"
        "2020-01-01T06:50:00,mar,1,20,19\n"
        "2020-01-01T07:00:00,mar,1,30,31\n",
        encoding="utf-8",
    )
    assert count_csv_rows(str(path)) == 3
    assert rows_per_s(count_csv_rows(str(path)), 0.5) == 6.0
    with pytest.raises(ValueError):
        rows_per_s(3, 0.0)


def test_reference_check_tolerates_rounding_but_not_a_changed_model(tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("# out=a\nmodel,horizon,rmse\nmar,6,123.016406\n", encoding="utf-8")
    same = tmp_path / "same.csv"
    same.write_text("# out=b\nmodel,horizon,rmse\nmar,6,123.016407\n", encoding="utf-8")
    changed = tmp_path / "changed.csv"
    changed.write_text("model,horizon,rmse\nmar,6,123.020000\n", encoding="utf-8")
    relabelled = tmp_path / "relabelled.csv"
    relabelled.write_text("model,horizon,rmse\nar,6,123.016406\n", encoding="utf-8")
    assert compare_numeric_csv(str(same), str(ref)) is None
    assert compare_numeric_csv(str(changed), str(ref)) is not None
    assert compare_numeric_csv(str(relabelled), str(ref)) is not None


def test_wrappers_replace_every_binding_and_record_spans():
    """A wrapper on the defining module alone would miss calls made
    through ``from .x import y`` bindings such as ``solarcast.cli.forecast``."""
    sys.path.insert(0, SRC)
    try:
        import solarcast.cli
        import solarcast.mar
        import solarcast.nn.lstm
        import solarcast.nn.networks
        from tracer import Tracer

        originals = (solarcast.cli.forecast, solarcast.nn.networks.lstm_sequence_forward)
        tracer = Tracer()
        tracer.install()
        try:
            assert solarcast.cli.forecast is not originals[0]
            assert solarcast.cli.forecast is solarcast.mar.forecast
            assert solarcast.nn.networks.lstm_sequence_forward is solarcast.nn.lstm.lstm_sequence_forward
            assert solarcast.nn.networks.lstm_sequence_forward is not originals[1]
            import numpy as np

            x = np.zeros((2, 4, 1))
            net = solarcast.nn.networks.LstmNetwork(seed=0)
            net.predict(x)
            names = [s.name for s in tracer.spans]
            assert names[0] == "nn.lstm.lstm_sequence_forward"
            assert names.count("nn.lstm.sigmoid") == 3 * 4
            assert all(s.parent == 0 for s in tracer.spans[1:] if s.name == "nn.lstm.sigmoid")
        finally:
            tracer.uninstall()
        assert solarcast.cli.forecast is originals[0]
        assert solarcast.nn.networks.lstm_sequence_forward is originals[1]
    finally:
        sys.path.remove(SRC)


def test_every_layer_resolves():
    sys.path.insert(0, SRC)
    try:
        import importlib

        from tracer import LAYERS

        for layer in LAYERS:
            owner = importlib.import_module(layer.module)
            for part in layer.attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), layer.name
    finally:
        sys.path.remove(SRC)


def test_reference_outputs_are_committed_for_every_variant():
    from workloads import REFERENCE_DIR, VARIANT_SEEDS, WORKLOADS

    for name, make in WORKLOADS.items():
        for seed in VARIANT_SEEDS:
            ref_dir = os.path.join(REFERENCE_DIR, name, f"seed{seed}")
            for command in make(seed).passes:
                for rel, check in command.checks:
                    if check == "reference":
                        assert os.path.isfile(os.path.join(ref_dir, rel)), (name, seed, rel)
            assert os.path.isfile(os.path.join(ref_dir, "rows.json"))


def test_benchmark_json_declares_exactly_the_reported_metrics():
    import json

    from run import E2E_METRICS, per_layer_names, unit_of
    from workloads import ROOT, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(E2E_METRICS)
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"]), metric["name"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
