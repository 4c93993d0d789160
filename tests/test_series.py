"""Dataset layer: CSV ingestion, splitting, scaling, differencing."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from solarcast import (
    DataValidationError,
    DaylightWindow,
    IrradianceSeries,
    destandardize,
    difference_transform,
    ensemble_deduct,
    ensemble_profile,
    fit_scaler,
    generate_synthetic,
    inverse_difference,
    load_csv,
    split,
    standardize,
    write_csv,
)
from solarcast.series import Scaler

from conftest import make_series


def write_rows(path, rows, header="timestamp,irradiance_wm2"):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def grid_rows(n, start=datetime(2024, 1, 1), step=10, value=100.0, skip=None):
    rows = []
    ts = start
    for i in range(n):
        if skip is None or i not in skip:
            rows.append(f"{ts.isoformat()},{value}")
        ts += timedelta(minutes=step)
    return rows


class TestLoadCsv:
    def test_two_day_file(self, tmp_path):
        path = tmp_path / "two_days.csv"
        write_rows(path, grid_rows(288))
        series = load_csv(path)
        assert len(series) == 288
        assert series.n_days == 2
        assert series.step == 10

    def test_missing_slot_names_gap_timestamp(self, tmp_path):
        path = tmp_path / "gap.csv"
        write_rows(path, grid_rows(288, skip={100}))
        expected = (datetime(2024, 1, 1) + timedelta(minutes=1000)).isoformat()
        with pytest.raises(DataValidationError, match=expected):
            load_csv(path)

    def test_gap_after_the_calendars_last_slot(self, tmp_path):
        # the expected next sample lies past datetime.max
        path = tmp_path / "end.csv"
        path.write_text("timestamp,irradiance_wm2\n" + "".join(
            f"9999-12-31T23:{m}:00,1\n" for m in (30, 40, 50, 55)))
        with pytest.raises(DataValidationError, match="no sample after 9999-12-31T23:50:00"):
            load_csv(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = tmp_path / "dup.csv"
        rows = grid_rows(288)
        rows.insert(5, rows[4])
        write_rows(path, rows)
        with pytest.raises(DataValidationError, match="duplicate"):
            load_csv(path)

    def test_negative_value(self, tmp_path):
        path = tmp_path / "neg.csv"
        rows = grid_rows(288)
        rows[10] = rows[10].rsplit(",", 1)[0] + ",-5.0"
        write_rows(path, rows)
        with pytest.raises(DataValidationError, match="negative irradiance"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = grid_rows(288)
        rows[6] = rows[6].rsplit(",", 1)[0] + ",abc"
        write_rows(path, rows)
        with pytest.raises(DataValidationError, match="line 8"):
            load_csv(path)

    def test_malformed_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "badts.csv"
        rows = grid_rows(288)
        rows[0] = "not-a-time,5.0"
        with open(path, "w") as fh:
            fh.write("timestamp,irradiance_wm2\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        write_rows(path, grid_rows(288), header="time,value")
        with pytest.raises(DataValidationError, match="header"):
            load_csv(path)

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "meta.csv"
        with open(path, "w") as fh:
            fh.write("# seed=3\n# command=synth\n")
            fh.write("timestamp,irradiance_wm2\n")
            for row in grid_rows(144):
                fh.write(row + "\n")
        assert len(load_csv(path)) == 144

    def test_partial_day_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        write_rows(path, grid_rows(200))
        with pytest.raises(DataValidationError, match="whole number of days"):
            load_csv(path)

    def test_non_midnight_start_rejected(self, tmp_path):
        path = tmp_path / "offset.csv"
        write_rows(path, grid_rows(144, start=datetime(2024, 1, 1, 6, 0)))
        with pytest.raises(DataValidationError, match="midnight"):
            load_csv(path)

    def test_round_trip_preserves_values(self, tmp_path, mixed_30d):
        path = tmp_path / "rt.csv"
        write_csv(mixed_30d, path)
        back = load_csv(path)
        assert back.start == mixed_30d.start
        assert back.step == mixed_30d.step
        assert np.array_equal(back.values, mixed_30d.values)


class TestSplit:
    def test_ten_days(self):
        series = generate_synthetic(10, "clear", seed=0)
        train, test = split(series, 0.70)
        assert (train.n_days, test.n_days) == (7, 3)

    def test_year_gives_110_test_days(self):
        series = generate_synthetic(365, "clear", seed=0)
        train, test = split(series, 0.70)
        assert (train.n_days, test.n_days) == (255, 110)

    def test_three_days_floor(self):
        series = generate_synthetic(3, "clear", seed=0)
        train, test = split(series, 0.70)
        assert (train.n_days, test.n_days) == (2, 1)

    def test_chronological_and_disjoint(self, mixed_30d):
        train, test = split(mixed_30d, 0.70)
        assert train.timestamp(len(train) - 1) < test.timestamp(0)
        assert len(train) + len(test) == len(mixed_30d)
        assert np.array_equal(
            np.concatenate([train.values, test.values]), mixed_30d.values
        )

    def test_bad_fraction(self, mixed_30d):
        for fraction in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DataValidationError):
                split(mixed_30d, fraction)

    def test_too_short(self):
        series = generate_synthetic(1, "clear", seed=0)
        with pytest.raises(DataValidationError):
            split(series, 0.7)

    def test_split_index_metadata(self, mixed_30d):
        train, test = split(mixed_30d, 0.70)
        assert train.n_days == 21
        assert test.start == mixed_30d.timestamp(21 * mixed_30d.samples_per_day)


class TestScaler:
    def test_two_point(self):
        spd = 2  # step 720: two samples per day
        scaler = fit_scaler(make_series([0.0, 1000.0], step=720))
        assert scaler.mu == 500.0
        assert scaler.sigma == 500.0

    def test_matches_two_pass_oracle(self, mixed_30d):
        scaler = fit_scaler(mixed_30d)
        # independent two-pass oracle: sum, then squared deviations
        total = 0.0
        for v in mixed_30d.values:
            total += float(v)
        mean = total / len(mixed_30d)
        sq = 0.0
        for v in mixed_30d.values:
            sq += (float(v) - mean) ** 2
        std = (sq / len(mixed_30d)) ** 0.5
        assert scaler.mu == pytest.approx(mean, rel=1e-9)
        assert scaler.sigma == pytest.approx(std, rel=1e-9)

    def test_constant_series_rejected(self):
        with pytest.raises(DataValidationError, match="constant"):
            fit_scaler(make_series(np.full(144, 42.0)))

    @pytest.mark.parametrize("mu, sigma", [(np.nan, 1.0), (0.0, np.inf)])
    def test_parameters_must_be_finite(self, mu, sigma):
        with pytest.raises(DataValidationError, match="^scaler parameters must be finite$"):
            Scaler(mu=mu, sigma=sigma)

    def test_sigma_must_be_positive(self):
        with pytest.raises(DataValidationError):
            Scaler(mu=1.0, sigma=0.0)

    def test_sigma_needs_a_finite_reciprocal(self):
        with pytest.raises(DataValidationError, match="no finite reciprocal"):
            Scaler(mu=0.0, sigma=1e-320)
        assert Scaler(mu=0.0, sigma=1e-300).sigma == 1e-300


class TestStandardize:
    def test_mean_maps_to_zero(self):
        scaler = Scaler(mu=500.0, sigma=200.0)
        series = make_series(np.full(144, 500.0))
        assert np.all(standardize(series, scaler).values == 0.0)

    def test_hand_value(self):
        scaler = Scaler(mu=500.0, sigma=200.0)
        series = make_series(np.full(144, 700.0))
        assert np.all(standardize(series, scaler).values == 1.0)

    def test_destandardize_hand_values(self):
        scaler = Scaler(mu=500.0, sigma=200.0)
        zeros = make_series(np.zeros(144))
        assert np.all(destandardize(zeros, scaler).values == 500.0)
        ones = make_series(np.ones(144))
        assert np.all(destandardize(ones, scaler).values == 700.0)

    def test_round_trip_on_synthetic(self, mixed_30d):
        scaler = fit_scaler(mixed_30d)
        back = destandardize(standardize(mixed_30d, scaler), scaler)
        assert np.abs(back.values - mixed_30d.values).max() < 1e-9

    def test_round_trip_single_day(self):
        rng = np.random.default_rng(4)
        series = make_series(rng.uniform(0, 900, 144))
        scaler = fit_scaler(series)
        back = destandardize(standardize(series, scaler), scaler)
        assert np.abs(back.values - series.values).max() < 1e-9


class TestDifference:
    def test_hand_example(self):
        d = difference_transform(np.array([3.0, 5.0, 4.0]))
        assert np.array_equal(d.deltas, [3.0, 2.0, -1.0])

    def test_constant_series(self):
        d = difference_transform(np.full(10, 7.0))
        assert d.deltas[0] == 7.0
        assert np.all(d.deltas[1:] == 0.0)

    def test_reconstruct_is_exact_for_integers(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 1000, size=288).astype(np.float64)
        assert np.array_equal(difference_transform(x).reconstruct(), x)

    def test_inverse_hand_examples(self):
        assert inverse_difference(np.array([2.0]), np.array([5.0]))[0] == 7.0
        assert inverse_difference(np.array([0.0]), np.array([123.0]))[0] == 123.0

    def test_full_day_reconstruction_matches_cumsum_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 900, 144)
        d = difference_transform(x)
        # oracle: running total accumulated in a plain loop
        acc, oracle = 0.0, []
        for delta in d.deltas:
            acc += float(delta)
            oracle.append(acc)
        assert np.allclose(d.reconstruct(), oracle, rtol=0, atol=1e-12)

    def test_anchor_count_mismatch(self):
        with pytest.raises(DataValidationError, match="anchor"):
            inverse_difference(np.array([1.0, 2.0]), np.array([1.0]))

    def test_too_short(self):
        with pytest.raises(DataValidationError):
            difference_transform(np.array([1.0]))

    def test_series_input(self, mixed_30d):
        d = difference_transform(mixed_30d)
        assert np.allclose(d.reconstruct(), mixed_30d.values, rtol=0, atol=1e-9)


class TestSynthetic:
    def test_clear_peak_at_solar_noon(self):
        series = generate_synthetic(5, "clear", seed=1)
        window = DaylightWindow()
        noon_minute = (window.start_minute + window.end_minute) / 2
        for day in series.day_matrix():
            peak_minute = int(np.argmax(day)) * series.step
            assert abs(peak_minute - noon_minute) <= series.step

    def test_deterministic(self):
        a = generate_synthetic(20, "mixed", seed=77)
        b = generate_synthetic(20, "mixed", seed=77)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_cloudy_output(self):
        a = generate_synthetic(5, "cloudy", seed=1)
        b = generate_synthetic(5, "cloudy", seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_cloudy_midday_variance_exceeds_clear(self):
        midday_slot = 75  # 12:30
        clear = generate_synthetic(100, "clear", seed=5).day_matrix()[:, midday_slot]
        cloudy = generate_synthetic(100, "cloudy", seed=5).day_matrix()[:, midday_slot]
        assert np.var(cloudy) > np.var(clear)

    def test_night_is_zero_and_values_nonnegative(self):
        series = generate_synthetic(10, "cloudy", seed=3)
        lo, hi = DaylightWindow().slot_bounds(series.step)
        days = series.day_matrix()
        assert np.all(days[:, :lo] == 0.0)
        assert np.all(days[:, hi + 1 :] == 0.0)
        assert np.all(series.values >= 0.0)

    def test_invalid_args(self):
        with pytest.raises(DataValidationError):
            generate_synthetic(0, "clear", seed=1)
        with pytest.raises(DataValidationError):
            generate_synthetic(5, "stormy", seed=1)


class TestDaylightWindow:
    def test_parse(self):
        window = DaylightWindow.parse("06:00-18:30")
        assert (window.start_minute, window.end_minute) == (360, 1110)
        assert str(window) == "06:00-18:30"

    def test_slot_bounds(self):
        lo, hi = DaylightWindow().slot_bounds(10)
        assert (lo, hi) == (36, 111)
        assert hi - lo + 1 == 76

    def test_off_grid_rejected(self):
        with pytest.raises(DataValidationError):
            DaylightWindow(365, 1110).slot_bounds(10)

    def test_bad_parse(self):
        # a minute past 59 would carry into the hour: 06:60 read as 07:00
        for text in ("6am to 7pm", "06:60-18:00", "00:400-18:00", "06:00-18:75"):
            with pytest.raises(DataValidationError, match="cannot parse daylight window"):
                DaylightWindow.parse(text)

    def test_inverted_interval(self):
        with pytest.raises(DataValidationError):
            DaylightWindow(700, 300)


class TestSeriesType:
    def test_rejects_nan(self):
        values = np.zeros(144)
        values[3] = np.nan
        with pytest.raises(DataValidationError):
            make_series(values)

    @pytest.mark.parametrize("values, message", [
        (np.zeros((2, 144)), "series values must be one-dimensional"),
        (np.zeros(0), "series must contain at least one sample"),
    ], ids=["2-d", "empty"])
    def test_rejects_values_that_are_not_one_flat_vector(self, values, message):
        with pytest.raises(DataValidationError, match=f"^{message}$"):
            make_series(values)

    def test_with_values_keeps_the_grid_shape(self, mixed_30d):
        with pytest.raises(DataValidationError, match=r"shape \(144,\), expected \(4320,\)"):
            mixed_30d.with_values(np.zeros(144))

    def test_rejects_bad_step(self):
        with pytest.raises(DataValidationError):
            make_series(np.zeros(144), step=7)

    def test_values_are_immutable(self, mixed_30d):
        with pytest.raises(ValueError):
            mixed_30d.values[0] = 1.0

    def test_day_matrix_shape(self, mixed_30d):
        assert mixed_30d.day_matrix().shape == (30, 144)

    def test_writable_values_are_copied(self):
        values = np.arange(288.0)
        series = make_series(values)
        assert not np.shares_memory(series.values, values) and values.flags.writeable
        view = values.view()  # read-only itself, but its owner can still change
        view.setflags(write=False)
        assert not np.shares_memory(make_series(view).values, values)

    def test_read_only_values_are_kept(self, mixed_30d):
        """A split half, a standardized series and an ensemble-deducted one
        read the values they were given, with no copy of their own."""
        train, test = split(mixed_30d, 0.5)
        assert np.shares_memory(train.values, mixed_30d.values)
        assert np.shares_memory(test.values, mixed_30d.values)
        z = standardize(train, fit_scaler(train))
        assert make_series(z.values).values is z.values
        residual = ensemble_deduct(z, ensemble_profile(z))
        assert residual.with_values(residual.values).values is residual.values
        assert not (z.values.flags.writeable or residual.values.flags.writeable)
