"""Acceptance checks for the whole pipeline.

Every check prints one PASS / FAIL line (or SKIP with the reason) straight
to the terminal, then asserts. Checks that need the LA ozone dataset skip
when data/ozone.csv is absent; scripts/fetch_ozone.py documents how to
produce it on a machine with network access.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

from ibrsmooth import (
    CvPlan,
    DesignMatrix,
    KPath,
    KernelSmootherSpec,
    SelectionPlan,
    SmootherConfig,
    build_calibrated_tps,
    build_kernel_smoother,
    build_smoother,
    fit,
    forward_select,
    make_splits,
    search_k_exhaustive,
    search_k_numeric,
)
from ibrsmooth.benchmarks import load_ozone, run_ozone_splits, run_wendelberger
from ibrsmooth.selection import RSS_FLOOR, df_ceiling

OZONE_PATH = Path(__file__).resolve().parent.parent / "data" / "ozone.csv"
OZONE_SKIP = "data/ozone.csv not present; run scripts/fetch_ozone.py on a networked machine"


def report(capsys, ok, label, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def skip_without_ozone(capsys, label):
    if not OZONE_PATH.exists():
        with capsys.disabled():
            print(f"SKIP: {label} [{OZONE_SKIP}]")
        pytest.skip(OZONE_SKIP)


# ---------------------------------------------------------------------------
# spectral fast path vs dense residual recursion


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    d = int(rng.integers(1, 4))
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    design = DesignMatrix.from_array(x)
    if seed % 2 == 0:
        h = tuple(float(v) for v in rng.uniform(0.5, 2.0, d))
        sm = build_kernel_smoother(
            design, KernelSmootherSpec(kind="gaussian", bandwidths=h)
        )
    else:
        sm = build_calibrated_tps(design, df_multiplier=1.1)
    return sm, y


def test_spectral_path_matches_dense_recursion(capsys):
    started = time.perf_counter()
    worst = 0.0
    for seed in range(60):
        sm, y = _random_problem(seed)
        s = sm.matrix
        path = KPath(sm.spectral(), y)
        r = y.copy()
        for k in range(1, 201):
            r = r - s @ r
            diff = np.max(np.abs(path.fitted(k) - (y - r)))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    report(
        capsys,
        worst <= 1e-8 and elapsed < 60.0,
        "eigendecomposition path reproduces the dense residual recursion",
        f"60 problems x k=1..200, worst |diff| {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# base smoother calibration hits its df targets


def test_spline_grid_calibration_trace(capsys):
    axis = (np.arange(10) + 0.5) / 10
    x = np.column_stack([np.tile(axis, 10), np.repeat(axis, 10)])
    sm = build_calibrated_tps(DesignMatrix.from_array(x), df_multiplier=1.1)
    trace = sm.initial_df
    report(
        capsys,
        abs(trace - 3.3) <= 1e-3,
        "spline base smoother on the 10x10 grid carries 3.3 df",
        f"trace {trace:.6f}",
    )


def test_kernel_per_variable_calibration(capsys):
    """Synthetic table with the ozone benchmark's shape (330 rows, 8
    covariates on wildly different scales); each univariate trace must sit
    on the 1.1 target."""
    rng = np.random.default_rng(42)
    n, d = 330, 8
    scales = np.array([500.0, 5.0, 30.0, 25.0, 1800.0, 60.0, 80.0, 100.0])
    offsets = np.array([5000.0, 5.0, 30.0, 50.0, 1000.0, 0.0, 150.0, 120.0])
    x = rng.normal(size=(n, d)) * scales + offsets
    sm = build_smoother(x, SmootherConfig(df=1.1))
    worst = 0.0
    for j in range(d):
        u = (x[:, j, None] - x[None, :, j]) / sm.spec.bandwidths[j]
        gauss = np.exp(-0.5 * u**2)
        trace = float(np.sum(1.0 / gauss.sum(axis=1)))
        worst = max(worst, abs(trace - 1.1))
    report(
        capsys,
        worst <= 1e-4,
        "kernel bandwidths hit the per-variable 1.1 df target",
        f"330x8 synthetic table, worst |trace - 1.1| = {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# synthetic surface benchmark


@functools.cache
def _surface_runs(criterion):
    plan = SelectionPlan(criterion=criterion)
    return [run_wendelberger(seed=s, plan=plan) for s in range(10)]


def test_synthetic_surface_benchmark_bands(capsys):
    """Ten seeds of the noisy bump-mixture surface, spline base, gcv.

    Individual seeds wander well outside any tight band (the gcv curve is
    almost flat past its minimum, so the argmin has huge sampling
    variance); the medians are the stable quantities and are what the
    bands constrain. Per-seed numbers are printed for inspection.
    """
    started = time.perf_counter()
    runs = _surface_runs("gcv")
    elapsed = time.perf_counter() - started
    ks = np.array([r.k for r in runs])
    dfs = np.array([r.final_df for r in runs])
    maes = np.array([r.mae for r in runs])
    with capsys.disabled():
        for r in runs:
            print(
                f"    seed {r.seed}: k = {r.k:7.1f}  final df = {r.final_df:5.2f} "
                f" mae = {r.mae:.4f}"
            )
    k_med, df_med, mae_med = np.median(ks), np.median(dfs), np.median(maes)
    ok = (
        150.0 <= k_med <= 900.0
        and 18.0 <= df_med <= 35.0
        and 0.04 <= mae_med <= 0.10
        and elapsed < 30.0
    )
    report(
        capsys,
        ok,
        "surface benchmark medians: gcv iterations in [150, 900], "
        "final df in [18, 35], grid MAE in [0.04, 0.10]",
        f"medians k {k_med:.0f}, df {df_med:.1f}, mae {mae_med:.4f}, {elapsed:.1f}s",
    )


def test_aicc_chooses_fewer_iterations_than_gcv(capsys):
    gcv_ks = np.array([r.k for r in _surface_runs("gcv")])
    aicc_ks = np.array([r.k for r in _surface_runs("aicc")])
    wins = int(np.sum(aicc_ks < gcv_ks))
    report(
        capsys,
        wins >= 7,
        "aicc stops earlier than gcv on at least 7 of 10 surface seeds",
        f"{wins}/10 seeds, median k aicc {np.median(aicc_ks):.0f} "
        f"vs gcv {np.median(gcv_ks):.0f}",
    )


# ---------------------------------------------------------------------------
# ozone benchmark (needs the dataset)


def test_ozone_benchmark_reproduction(capsys):
    label = "ozone fit: gcv iterations in [30, 120], final df in [15, 28], 50-split MSE <= 17"
    skip_without_ozone(capsys, label)
    started = time.perf_counter()
    data = load_ozone(OZONE_PATH)
    y = data.values[:, 0]
    x = data.values[:, 1:]
    config = SmootherConfig(df=1.1)
    base = build_smoother(x, config)
    spectral = base.spectral()
    num = search_k_numeric(spectral, y, SelectionPlan())
    exh = search_k_exhaustive(spectral, y, SelectionPlan(mode="exhaustive"))
    splits = run_ozone_splits(data, repeats=50, seed=0, smoother=config)
    elapsed = time.perf_counter() - started
    ok = (
        30.0 <= num.k <= 120.0
        and 15.0 <= num.df <= 28.0
        and num.k_rounded == exh.k_rounded
        and splits.pooled_mse <= 17.0
        and elapsed < 600.0
    )
    report(
        capsys,
        ok,
        label,
        f"k {num.k:.1f} (exhaustive {exh.k:.0f}), df {num.df:.2f}, "
        f"pooled MSE {splits.pooled_mse:.2f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# interpolation guards on every evaluated candidate


def test_search_traces_respect_interpolation_guards(capsys):
    """No evaluated candidate may exceed the df ceiling (user dfmaxi, 2n/3
    default, always below n by a relative 1e-10) or dip to the 1e-10
    residual floor."""
    cases = []
    rng = np.random.default_rng(7)

    x1 = np.sort(rng.uniform(0, 4, 40))
    y1 = np.sin(2 * x1) + rng.normal(0, 0.3, 40)
    sm1 = build_kernel_smoother(
        DesignMatrix.from_array(x1), KernelSmootherSpec(kind="gaussian", bandwidths=(0.8,))
    )
    cases.append((sm1.spectral(), y1, None, 40))
    cases.append((sm1.spectral(), y1, 9.0, 40))

    x2 = rng.normal(size=(30, 2))
    y2 = x2[:, 0] + rng.normal(0, 0.2, 30)
    sm2 = build_calibrated_tps(DesignMatrix.from_array(x2), df_multiplier=1.2)
    cases.append((sm2.spectral(), y2, None, 30))
    cases.append((sm2.spectral(), y2, 14.5, 30))

    # near-interpolating base: the residual floor must cut the search off
    x3 = np.linspace(0, 1, 8)
    y3 = np.sin(3 * x3)
    sm3 = build_kernel_smoother(
        DesignMatrix.from_array(x3), KernelSmootherSpec(kind="gaussian", bandwidths=(0.05,))
    )
    cases.append((sm3.spectral(), y3, 7.9999, 8))

    checked = 0
    ok = True
    for spectral, y, dfmaxi, n in cases:
        plan_n = SelectionPlan(dfmaxi=dfmaxi)
        plan_e = SelectionPlan(mode="exhaustive", dfmaxi=dfmaxi, kmax=20000)
        for res in (
            search_k_numeric(spectral, y, plan_n),
            search_k_exhaustive(spectral, y, plan_e),
        ):
            limit = df_ceiling(n, dfmaxi)
            ok &= bool(res.trace_df.max() <= limit + 1e-9)
            ok &= bool(res.trace_df.max() < n * (1 - 1e-10) + 1e-9)
            ok &= bool(res.trace_rss.min() > RSS_FLOOR)
            checked += res.trace_k.size
    report(
        capsys,
        ok and checked > 0,
        "every evaluated candidate respects the df ceiling and the residual floor",
        f"{checked} candidate evaluations across {2 * len(cases)} searches",
    )


# ---------------------------------------------------------------------------
# numeric search at least as good as the integer sweep


def test_numeric_search_never_worse_than_exhaustive(capsys):
    worst_gap = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(25, 60))
        x = rng.uniform(0, 4, size=(n, 1))
        y = np.sin(2 * x[:, 0]) + rng.normal(0, 0.3, n)
        if seed % 2 == 0:
            sm = build_kernel_smoother(
                DesignMatrix.from_array(x),
                KernelSmootherSpec(kind="gaussian", bandwidths=(float(rng.uniform(0.5, 1.5)),)),
            )
        else:
            sm = build_calibrated_tps(DesignMatrix.from_array(x), df_multiplier=1.1)
        crit = ("gcv", "aicc", "bic")[seed % 3]
        spectral = sm.spectral()
        num = search_k_numeric(spectral, y, SelectionPlan(criterion=crit, kmax=3000))
        exh = search_k_exhaustive(
            spectral, y, SelectionPlan(criterion=crit, mode="exhaustive", kmax=3000)
        )
        worst_gap = max(worst_gap, num.value - exh.value)
    report(
        capsys,
        worst_gap <= 1e-6,
        "continuous search is never worse than the integer sweep",
        f"20 problems, worst (numeric - exhaustive) = {worst_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# split soundness


def test_fold_plans_partition_and_match_reference_layouts(capsys):
    ok = True
    for n in (12, 30, 47):
        for k in (2, 5, 6):
            for kind in ("random", "consecutive", "interleaved"):
                splits = make_splits(n, CvPlan(kfold=k, type=kind, seed=n + k))
                covered = np.concatenate([test for _, test in splits])
                ok &= sorted(covered.tolist()) == list(range(n))
                ok &= all(
                    set(tr) | set(te) == set(range(n)) and not set(tr) & set(te)
                    for tr, te in splits
                )
    consec = [set(t.tolist()) for _, t in make_splits(12, CvPlan(kfold=6, type="consecutive"))]
    inter = [set(t.tolist()) for _, t in make_splits(12, CvPlan(kfold=6, type="interleaved"))]
    ok &= consec == [{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}]
    ok &= inter == [{0, 6}, {1, 7}, {2, 8}, {3, 9}, {4, 10}, {5, 11}]
    report(
        capsys,
        ok,
        "K-fold plans partition the rows; 12-row 6-fold layouts match the "
        "consecutive {1,2}.. and interleaved {1,7}.. patterns",
    )


# ---------------------------------------------------------------------------
# forward selection


def test_forward_selection_finds_the_relevant_variable(capsys):
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        relevant = seed % 3
        x = rng.uniform(-1, 1, size=(60, 3))
        y = 2.0 * np.sin(3 * x[:, relevant]) + rng.normal(0, 0.3, 60)
        result = forward_select(x, y)
        hits += int(result.order[0] == relevant)
    report(
        capsys,
        hits >= 9,
        "forward selection picks the informative covariate first",
        f"{hits}/10 seeds",
    )


def test_forward_selection_on_ozone_splits(capsys):
    label = "ozone forward selection: <= 6 covariates and no worse test MSE than the full model"
    skip_without_ozone(capsys, label)
    data = load_ozone(OZONE_PATH)
    y_all = data.values[:, 0]
    x_all = data.values[:, 1:]
    names = list(data.names[1:])
    n = y_all.size
    config = SmootherConfig(df=1.1)
    successes = 0
    details = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        test_idx, train_idx = perm[: n // 10], perm[n // 10 :]
        x_tr, y_tr = x_all[train_idx], y_all[train_idx]
        x_te, y_te = x_all[test_idx], y_all[test_idx]
        walk = forward_select(
            DesignMatrix(x_tr, names), y_tr, smoother=config
        )
        cols = walk.order
        fwd_fit = fit(x_tr[:, cols], y_tr, smoother=config)
        full_fit = fit(x_tr, y_tr, smoother=config)
        mse_fwd = float(np.mean((fwd_fit.predict(x_te[:, cols]) - y_te) ** 2))
        mse_full = float(np.mean((full_fit.predict(x_te) - y_te) ** 2))
        good = len(cols) <= 6 and mse_fwd <= mse_full
        successes += int(good)
        details.append(f"seed {seed}: {len(cols)} vars, {mse_fwd:.2f} vs {mse_full:.2f}")
    with capsys.disabled():
        for line in details:
            print(f"    {line}")
    report(
        capsys,
        successes >= 6,
        label,
        f"{successes}/10 splits",
    )


# ---------------------------------------------------------------------------
# spline null space


def test_polynomials_reproduced_exactly_by_spline_base(capsys):
    worst = 0.0
    for d in (1, 2):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(30, d)) * 2.0
        design = DesignMatrix.from_array(x)
        sm = build_calibrated_tps(design, df_multiplier=1.4)
        polys = [np.ones(30)] + [x[:, j] for j in range(d)]
        x_new = rng.normal(size=(9, d))
        polys_new = [np.ones(9)] + [x_new[:, j] for j in range(d)]
        for p, p_new in zip(polys, polys_new):
            worst = max(worst, float(np.max(np.abs(sm.matrix @ p - p))))
            worst = max(worst, float(np.max(np.abs(sm.evaluate(x_new, p) - p_new))))
    report(
        capsys,
        worst <= 1e-8,
        "degree-zero and degree-one polynomials pass through the spline "
        "base unchanged, in sample and out",
        f"d in {{1, 2}}, worst |error| = {worst:.2e}",
    )
