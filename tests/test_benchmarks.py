"""Benchmark helpers: test surface, data generators, ozone loader."""

import numpy as np
import pytest

from ibrsmooth import SelectionPlan
from ibrsmooth.data import Dataset
from ibrsmooth.benchmarks import (
    OZONE_COLUMNS,
    interior_grid,
    load_ozone,
    make_wendelberger_data,
    run_ozone_splits,
    run_wendelberger,
    wendelberger,
)


def test_surface_value_at_center():
    # frozen from a direct evaluation of the four-bump sum
    assert wendelberger(0.5, 0.5) == pytest.approx(0.11201159918660236, abs=1e-15)


def test_surface_vectorizes():
    x = np.array([0.1, 0.5, 0.9])
    y = np.array([0.2, 0.5, 0.8])
    out = wendelberger(x, y)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(wendelberger(0.5, 0.5))


def test_surface_peak_region():
    # the dominant bump sits near (2/9, 2/9)
    assert wendelberger(2 / 9, 2 / 9) > wendelberger(0.9, 0.1)


def test_grid_layout_x_fast():
    design, y, clean = make_wendelberger_data(n_axis=4, noise=0.0)
    assert design.n == 16
    axis = (np.arange(4) + 0.5) / 4
    assert np.allclose(design.x[:4, 0], axis)  # x sweeps within a row
    assert np.allclose(design.x[:4, 1], axis[0])  # y constant within a row
    assert np.array_equal(y, clean)
    assert np.allclose(clean, wendelberger(design.x[:, 0], design.x[:, 1]))


def test_noise_scale_follows_variance_ratio():
    design, y, clean = make_wendelberger_data(n_axis=10, noise=0.2, seed=5)
    # same draw reproduced
    _, y2, _ = make_wendelberger_data(n_axis=10, noise=0.2, seed=5)
    assert np.array_equal(y, y2)
    _, y3, _ = make_wendelberger_data(n_axis=10, noise=0.2, seed=6)
    assert not np.array_equal(y, y3)
    # noise present and roughly at the requested scale
    sd = np.sqrt(0.2 * np.var(clean, ddof=1))
    resid = y - clean
    assert 0.2 * sd < resid.std() < 3.0 * sd


def test_interior_grid_excludes_endpoints():
    grid = interior_grid(50)
    assert grid.shape == (2500, 2)
    assert grid.min() == pytest.approx(1 / 51)
    assert grid.max() == pytest.approx(50 / 51)


def test_run_wendelberger_smoke():
    run = run_wendelberger(seed=0)
    assert run.mae > 0
    assert np.isfinite(run.fit.selection.value)
    assert run.fit.initial_df == pytest.approx(3.3, abs=1e-3)


def test_ozone_loader_missing_file_points_at_fetcher(tmp_path):
    with pytest.raises(FileNotFoundError, match="fetch_ozone"):
        load_ozone(tmp_path / "ozone.csv")


def test_ozone_loader_validates_shape(tmp_path):
    path = tmp_path / "ozone.csv"
    path.write_text(",".join(OZONE_COLUMNS) + "\n" + ",".join(["1"] * 9) + "\n")
    with pytest.raises(ValueError, match="330"):
        load_ozone(path)


def test_ozone_loader_accepts_well_shaped_file(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.uniform(1, 100, size=(330, 9))
    lines = [",".join(OZONE_COLUMNS)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path = tmp_path / "ozone.csv"
    path.write_text("\n".join(lines) + "\n")
    data = load_ozone(path)
    assert data.n == 330
    assert list(data.names) == list(OZONE_COLUMNS)


def test_ozone_splits_on_a_synthetic_table():
    """The split protocol without the ozone data: 60 rows, three 6-row test
    sets. pooled_mse is pinned to the value of the first implementation,
    which drew its own permutations instead of calling make_splits; the
    integer sweep keeps k off the numeric minimizer's tolerance."""
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=(60, 2))
    y = np.sin(4 * x[:, 0]) + x[:, 1] + rng.normal(0, 0.1, 60)
    data = Dataset(names=["y", "a", "b"], values=np.column_stack([y, x]))
    run = run_ozone_splits(data, repeats=3, seed=2, plan=SelectionPlan(mode="exhaustive"))
    assert (run.ntrain, run.ntest, len(run.split_mses)) == (54, 6, 3)
    assert run.pooled_mse == pytest.approx(0.014303491600885716, rel=1e-12)
    assert run.pooled_mse == pytest.approx(np.mean(run.split_mses), rel=1e-12)
