"""Reference experiments: a synthetic surface and the LA ozone data.

The synthetic benchmark fits a known bivariate test surface observed with
noise on a regular grid and scores the fit by mean absolute error against
the clean surface on a fine interior grid. The ozone benchmark reruns the
classical 330-day LA dataset: a full-data fit, repeated random train/test
splits, and greedy variable selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .crossval import CvPlan, make_splits
from .data import Dataset, load_csv
from .fitting import IbrFit, SmootherConfig, fit
from .selection import SelectionPlan
from .smoothers import DesignMatrix

__all__ = [
    "wendelberger",
    "make_wendelberger_data",
    "interior_grid",
    "WendelbergerRun",
    "run_wendelberger",
    "OZONE_COLUMNS",
    "load_ozone",
    "OzoneSplitRun",
    "run_ozone_splits",
]


def wendelberger(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bivariate bump-mixture test surface on the unit square."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4.0)
        + 0.75 * np.exp(-((9 * x + 1) ** 2 / 49.0 + (9 * y + 1) ** 2 / 10.0))
        + 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4.0)
        - 0.2 * np.exp(-((9 * x - 4) ** 2 + (9 * y - 7) ** 2))
    )


def make_wendelberger_data(
    n_axis: int = 10, noise: float = 0.2, seed: int = 0
) -> tuple[DesignMatrix, np.ndarray, np.ndarray]:
    """Noisy surface observations on the n_axis x n_axis cell-center grid.

    The noise standard deviation is sqrt(noise * var(surface on the grid)),
    so ``noise`` is the inverse signal-to-noise variance ratio.

    Returns (design, y, clean_values).
    """
    if n_axis < 2:
        raise ValueError("need at least a 2 x 2 grid")
    axis = (np.arange(n_axis) + 0.5) / n_axis
    xc = np.tile(axis, n_axis)
    yc = np.repeat(axis, n_axis)
    clean = wendelberger(xc, yc)
    design = DesignMatrix(np.column_stack([xc, yc]), ["x1", "x2"])
    if noise < 0:
        raise ValueError("noise ratio must be >= 0")
    if noise == 0:
        return design, clean.copy(), clean
    std = float(np.sqrt(noise * np.var(clean, ddof=1)))
    rng = np.random.default_rng(seed)
    y = clean + rng.normal(0.0, std, clean.size)
    return design, y, clean


def interior_grid(ngrid: int = 50) -> np.ndarray:
    """ngrid x ngrid interior evaluation points (endpoints excluded)."""
    axis = np.arange(1, ngrid + 1) / (ngrid + 1)
    return np.column_stack([np.tile(axis, ngrid), np.repeat(axis, ngrid)])


@dataclass
class WendelbergerRun:
    """Outcome of one synthetic-surface fit: its seed, the fit, and the mean
    absolute error of the fit's predictions against the true surface."""

    seed: int
    mae: float
    fit: IbrFit


def run_wendelberger(
    seed: int = 0,
    noise: float = 0.2,
    n_axis: int = 10,
    smoother: SmootherConfig | None = None,
    plan: SelectionPlan | None = None,
    ngrid: int = 50,
) -> WendelbergerRun:
    smoother = smoother if smoother is not None else SmootherConfig(family="tps", df=1.1)
    plan = plan if plan is not None else SelectionPlan()
    design, y, _ = make_wendelberger_data(n_axis=n_axis, noise=noise, seed=seed)
    result = fit(design, y, smoother=smoother, plan=plan)
    grid = interior_grid(ngrid)
    truth = wendelberger(grid[:, 0], grid[:, 1])
    mae = float(np.mean(np.abs(result.predict(grid) - truth)))
    return WendelbergerRun(seed=seed, mae=mae, fit=result)


# expected layout of the converted ozone table: response first
OZONE_COLUMNS = ("ozone", "vh", "wind", "humidity", "temp", "ibh", "dpg", "ibt", "vis")
_OZONE_ROWS = 330
_OZONE_COLS = 9


def load_ozone(path: str | Path) -> Dataset:
    """Load and shape-check the converted ozone CSV.

    Only the shape is checked (330 numeric rows, 9 columns, response
    first); where the file came from is the caller's business.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(
            f"ozone data not found at {path}. The dataset is not "
            "redistributed with this package; run scripts/fetch_ozone.py "
            "(or pass --data with your own converted copy)"
        )
    data = load_csv(path)
    if data.n != _OZONE_ROWS or data.d != _OZONE_COLS:
        raise ValueError(
            f"{path}: expected {_OZONE_ROWS} rows x {_OZONE_COLS} columns "
            f"with the response first, found {data.n} x {data.d}"
        )
    return data


@dataclass
class OzoneSplitRun:
    """Pooled prediction error over repeated random train/test splits."""

    pooled_mse: float
    split_mses: list[float]
    ntrain: int
    ntest: int


def run_ozone_splits(
    data: Dataset,
    repeats: int = 50,
    seed: int = 0,
    smoother: SmootherConfig | None = None,
    plan: SelectionPlan | None = None,
    ntest: int | None = None,
) -> OzoneSplitRun:
    """Refit on random train subsets and score squared error on the rest.

    The splits are :func:`~ibrsmooth.crossval.make_splits` data splitting:
    ``repeats`` test sets of ``ntest`` rows (n // 10 by default).
    """
    smoother = smoother if smoother is not None else SmootherConfig()
    plan = plan if plan is not None else SelectionPlan()
    y_all = data.values[:, 0]
    x_all = data.values[:, 1:]
    names = data.names[1:]
    splits = make_splits(data.n, CvPlan(npermut=repeats, ntest=ntest, seed=seed))
    split_mses = []
    squares = []
    for train, test in splits:
        model = fit(
            DesignMatrix(x_all[train], list(names)), y_all[train],
            smoother=smoother, plan=plan,
        )
        err = model.predict(x_all[test]) - y_all[test]
        squares.append(err**2)
        split_mses.append(float(np.mean(err**2)))
    pooled = float(np.mean(np.concatenate(squares)))
    return OzoneSplitRun(
        pooled_mse=pooled,
        split_mses=split_mses,
        ntrain=splits[0][0].size,
        ntest=splits[0][1].size,
    )
