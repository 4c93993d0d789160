"""The paper's claims, read from the committed ``compare-100d`` references
(data seeds 7-10, horizons 1, 3 and 6, so 12 cells): each claim pinned
here holds in every cell. The reference files are read, never written."""

from pathlib import Path

import pytest

from conftest import data_lines

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "compare-100d"
SEEDS = (7, 8, 9, 10)


def rmse_cells(seed: int) -> dict[int, dict[str, float]]:
    """One seed's compare summary as {horizon: {model: rmse}}."""
    lines = data_lines(REFERENCE / f"seed{seed}" / "pass" / "compare_summary.csv")
    assert lines[0] == "model,horizon,rmse,mae,mape"
    cells: dict[int, dict[str, float]] = {}
    for line in lines[1:]:
        model, horizon, rmse, *_ = line.split(",")
        cells.setdefault(int(horizon), {})[model] = float(rmse)
    assert sorted(cells) == [1, 3, 6]
    assert all(sorted(rmse) == ["ar", "cnn", "lstm", "mar"] for rmse in cells.values())
    return cells


@pytest.mark.parametrize("seed", SEEDS)
def test_mar_has_the_lowest_rmse(seed):
    for horizon, rmse in rmse_cells(seed).items():
        assert min(rmse, key=rmse.get) == "mar", (horizon, rmse)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_ensemble_step_lowers_rmse(seed):
    """MAR is AR plus the ensemble step, so this is that step's gain."""
    for horizon, rmse in rmse_cells(seed).items():
        assert rmse["mar"] < rmse["ar"], (horizon, rmse)
