"""The paper's claims, read from the committed ``compare-100d`` references
(data seeds 7-10, horizons 1, 3 and 6, so 12 cells): each claim pinned
here holds in every cell. The reference files are read, never written.

The abstract gives MAR's MAPE as 14.2, 19.9 and 22.4 % at 10 min, 30 min
and 1 h. At 10 min the references lie below it and at 1 h above it, at
every seed. At 30 min they straddle 19.9 % (17.7-24.0 %), so that
comparison is not pinned."""

from pathlib import Path

import pytest

from conftest import data_lines

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "compare-100d"
SEEDS = (7, 8, 9, 10)


def metric_cells(seed: int, metric: str) -> dict[int, dict[str, float]]:
    """One seed's compare summary as {horizon: {model: metric}}."""
    lines = data_lines(REFERENCE / f"seed{seed}" / "pass" / "compare_summary.csv")
    columns = lines[0].split(",")
    assert columns == ["model", "horizon", "rmse", "mae", "mape"]
    cells: dict[int, dict[str, float]] = {}
    for line in lines[1:]:
        row = dict(zip(columns, line.split(",")))
        cells.setdefault(int(row["horizon"]), {})[row["model"]] = float(row[metric])
    assert sorted(cells) == [1, 3, 6]
    assert all(sorted(values) == ["ar", "cnn", "lstm", "mar"] for values in cells.values())
    return cells


@pytest.mark.parametrize("seed", SEEDS)
def test_mar_has_the_lowest_rmse(seed):
    for horizon, rmse in metric_cells(seed, "rmse").items():
        assert min(rmse, key=rmse.get) == "mar", (horizon, rmse)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_ensemble_step_lowers_rmse(seed):
    """MAR is AR plus the ensemble step, so this is that step's gain."""
    for horizon, rmse in metric_cells(seed, "rmse").items():
        assert rmse["mar"] < rmse["ar"], (horizon, rmse)


@pytest.mark.parametrize("seed", SEEDS)
def test_mar_mape_against_the_abstract(seed):
    """Below the paper's 14.2 % at 10 min (h = 1), above its 22.4 % at 1 h (h = 6)."""
    mape = metric_cells(seed, "mape")
    assert mape[1]["mar"] < 14.2, mape[1]
    assert mape[6]["mar"] > 22.4, mape[6]
