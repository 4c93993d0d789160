"""Error metrics against naive-loop oracles, plus table shape."""

from datetime import datetime

import numpy as np
import pytest

from solarcast import (
    DataValidationError,
    ForecastReport,
    mae,
    mape,
    rmse,
    summarize,
    summary_csv,
    summary_table,
)
from solarcast.metrics import report_rows_csv


def loop_rmse(actual, predicted):
    total = 0.0
    for a, p in zip(actual, predicted):
        total += (float(a) - float(p)) ** 2
    return (total / len(actual)) ** 0.5


def loop_mae(actual, predicted):
    total = 0.0
    for a, p in zip(actual, predicted):
        total += abs(float(a) - float(p))
    return total / len(actual)


def loop_mape(actual, predicted, min_actual):
    total, count = 0.0, 0
    for a, p in zip(actual, predicted):
        if a >= min_actual:
            total += abs(float(a) - float(p)) / float(a)
            count += 1
    return 100.0 * total / count


def random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    actual = rng.uniform(0, 1000, n)
    predicted = actual + rng.standard_normal(n) * 50
    return actual, predicted


class TestRmse:
    def test_perfect_prediction(self):
        x = np.array([10.0, 20.0, 30.0])
        assert rmse(x, x) == 0.0

    def test_hand_arithmetic(self):
        # errors {3, -4}: sqrt(25 / 2)
        assert rmse(np.array([3.0, 0.0]), np.array([0.0, 4.0])) == pytest.approx(
            3.5355339059327378, abs=1e-12
        )

    def test_matches_loop_oracle(self):
        actual, predicted = random_pairs(1000, seed=1)
        assert rmse(actual, predicted) == pytest.approx(
            loop_rmse(actual, predicted), abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            rmse(np.array([]), np.array([]))

    @pytest.mark.parametrize("actual, predicted, message", [
        (np.ones(3), np.ones(2), r"1-D and aligned, got \(3,\) vs \(2,\)"),
        (np.ones((2, 2)), np.ones((2, 2)), r"1-D and aligned, got \(2, 2\) vs \(2, 2\)"),
        (np.ones(2), np.array([1.0, np.nan]), "^metrics need finite inputs$"),
        (np.array([np.inf, 1.0]), np.ones(2), "^metrics need finite inputs$"),
    ], ids=["misaligned", "2-d", "nan-predicted", "inf-actual"])
    def test_pairs_must_be_aligned_and_finite(self, actual, predicted, message):
        with pytest.raises(DataValidationError, match=message):
            rmse(actual, predicted)


class TestMae:
    def test_perfect_prediction(self):
        x = np.array([1.0, 2.0])
        assert mae(x, x) == 0.0

    def test_hand_arithmetic(self):
        assert mae(np.array([3.0, 0.0]), np.array([0.0, 4.0])) == 3.5

    def test_matches_loop_oracle(self):
        actual, predicted = random_pairs(1000, seed=2)
        assert mae(actual, predicted) == pytest.approx(
            loop_mae(actual, predicted), abs=1e-12
        )


class TestMape:
    def test_hand_percentage(self):
        assert mape(np.array([200.0]), np.array([170.0])) == pytest.approx(15.0, abs=1e-12)

    def test_all_below_threshold_rejected(self):
        with pytest.raises(DataValidationError, match="no pairs"):
            mape(np.array([5.0, 10.0]), np.array([5.0, 10.0]), min_actual=20.0)

    def test_matches_filtered_loop_oracle(self):
        rng = np.random.default_rng(3)
        actual = rng.uniform(0, 400, 500)  # some rows below the threshold
        predicted = actual + rng.standard_normal(500) * 30
        assert mape(actual, predicted, min_actual=20.0) == pytest.approx(
            loop_mape(actual, predicted, 20.0), abs=1e-12
        )

    def test_threshold_boundary_included(self):
        assert mape(np.array([20.0]), np.array([10.0]), min_actual=20.0) == pytest.approx(50.0)

    def test_inflated_by_15_percent(self):
        actual = np.array([100.0, 250.0, 400.0, 640.0])
        assert mape(actual, actual * 1.15) == pytest.approx(15.0, rel=1e-12)


def make_report(model, horizon, n=50, seed=0):
    rng = np.random.default_rng(seed)
    actual = rng.uniform(30, 900, n)
    predicted = actual + rng.standard_normal(n) * 40
    # 10-minute slots from 08:00 on
    return ForecastReport(model=model, horizon=horizon, start=datetime(2024, 3, 1), step=10,
                          sample_index=np.arange(48, 48 + n), actual=actual, predicted=predicted)


class TestSummaries:
    def test_report_rows_must_align(self):
        with pytest.raises(DataValidationError, match="^report rows must align sample"):
            ForecastReport(model="mar", horizon=1, start=datetime(2024, 3, 1), step=10,
                           sample_index=np.arange(48, 51), actual=np.ones(3), predicted=np.ones(2))

    def test_single_report_shape(self):
        cells = summarize([make_report("mar", 1)])
        assert len(cells) == 1
        cell = cells[0]
        assert (cell.model, cell.horizon) == ("mar", 1)
        assert cell.rmse > 0 and cell.mae > 0 and cell.mape > 0

    def test_four_models_three_horizons_is_36_values(self):
        reports = [
            make_report(m, h, seed=i)
            for i, (m, h) in enumerate(
                (m, h) for m in ("cnn", "ar", "lstm", "mar") for h in (1, 3, 6)
            )
        ]
        cells = summarize(reports)
        assert len(cells) == 12
        values = [v for c in cells for v in (c.rmse, c.mae, c.mape)]
        assert len(values) == 36

    def test_cells_recomputable_from_rows(self):
        report = make_report("mar", 3, seed=5)
        cell = summarize([report])[0]
        assert cell.rmse == rmse(report.actual, report.predicted)
        assert cell.mae == mae(report.actual, report.predicted)
        assert cell.mape == mape(report.actual, report.predicted)

    def test_reordering_invariance(self):
        report = make_report("mar", 1, seed=6)
        perm = np.random.default_rng(7).permutation(len(report))
        shuffled = ForecastReport(
            model="mar",
            horizon=1,
            start=report.start,
            step=report.step,
            sample_index=report.sample_index[perm],
            actual=report.actual[perm],
            predicted=report.predicted[perm],
        )
        a, b = summarize([report])[0], summarize([shuffled])[0]
        assert a.rmse == pytest.approx(b.rmse, rel=1e-12)
        assert a.mae == pytest.approx(b.mae, rel=1e-12)
        assert a.mape == pytest.approx(b.mape, rel=1e-12)

    def test_rmse_at_least_mae(self):
        for seed in range(10):
            actual, predicted = random_pairs(200, seed=seed)
            assert rmse(actual, predicted) >= mae(actual, predicted)

    def test_rmse_equals_mae_when_errors_equal_magnitude(self):
        actual = np.array([100.0, 200.0, 300.0])
        predicted = actual + np.array([7.0, -7.0, 7.0])
        assert rmse(actual, predicted) == pytest.approx(mae(actual, predicted), rel=1e-12)

    def test_csv_layout(self):
        cells = summarize([make_report("mar", 1), make_report("ar", 1, seed=9)])
        text = summary_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == "model,horizon,rmse,mae,mape"
        assert len(lines) == 3

    def test_table_layout(self):
        reports = [make_report(m, h, seed=3) for m in ("cnn", "ar", "lstm", "mar") for h in (1, 3, 6)]
        table = summary_table(summarize(reports), step=10)
        assert "CNN" in table and "MAR" in table
        assert "10 min" in table and "30 min" in table and "1 h" in table
        assert "RMSE" in table and "MAE" in table and "MAPE" in table

    def test_rows_csv_round_trip_values(self):
        report = make_report("mar", 1, n=5, seed=11)
        text = "".join(report_rows_csv([report]))
        lines = text.strip().split("\n")
        assert lines[0] == "timestamp,model,horizon,actual_wm2,predicted_wm2"
        parsed = [line.split(",") for line in lines[1:]]
        assert [float(p[3]) for p in parsed] == list(report.actual)
        assert [float(p[4]) for p in parsed] == list(report.predicted)
