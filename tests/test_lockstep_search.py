"""The numeric k search: the ported bounded Brent and the batched scores.

:func:`~ibrsmooth.selection.minimize_on_breaks` runs one bounded Brent
minimizer per stretch between breakpoints and advances them together, so
each round scores a vector of counts in one call. The port must step as
scipy's ``minimize_scalar(method="bounded")`` does, bit for bit, and a row
of a batched score must agree with the single-count path quantities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from ibrsmooth import (
    KPath,
    SelectionPlan,
    SmootherConfig,
    build_calibrated_tps,
    build_smoother,
    kernel_smoother,
    make_splits,
    search_k_numeric,
)
from ibrsmooth import selection
from ibrsmooth.crossval import CvPlan, _CvScore, _FoldScorer, _pooled_loss
from ibrsmooth.engine import IterationDomainError
from ibrsmooth.selection import _K_TOL, criterion_value
from ibrsmooth.smoothers import SpectralForm

# integer and fractional counts, small and large, in one batch
COUNTS = np.array([1.0, 2.5, 7.0, 123.456, 5000.0, 31622.7766, 99999.99])


def drive(a, b, objective):
    """Run the generator Brent on [a, b]: the k it asked for and its end point."""
    asked = []
    run = selection._bounded_brent(a, b)
    k = next(run)
    try:
        while True:
            asked.append(k)
            k = run.send(objective(k))
    except StopIteration as stop:
        return asked, stop.value


@st.composite
def stretches(draw):
    """A stretch [a, a + width] and a deterministic objective on it: a sum of
    sines over a parabola (several local minima), inf past a cap for some."""
    a = draw(st.floats(1.0, 1e6))
    width = math.exp(draw(st.floats(math.log(0.02), math.log(1e5))))
    waves = draw(
        st.lists(
            st.tuples(st.floats(0.01, 2.0), st.floats(1.0, 40.0), st.floats(0.0, 6.3)),
            max_size=4,
        )
    )
    centre = draw(st.floats(-0.5, 1.5))
    curve = draw(st.floats(0.0, 5.0))
    cap = draw(st.one_of(st.none(), st.floats(0.05, 1.0)))

    def objective(k):
        t = (float(k) - a) / width
        if cap is not None and t > cap:
            return math.inf
        return curve * (t - centre) ** 2 + sum(amp * math.sin(w * t + ph) for amp, w, ph in waves)

    return a, a + width, objective


@settings(max_examples=300, deadline=None)
@given(stretches())
def test_generator_brent_steps_as_scipy_does(stretch):
    a, b, objective = stretch
    asked, (k, value) = drive(a, b, objective)
    seen = []

    def logged(k):
        seen.append(float(k))
        return objective(k)

    # scipy's steps take inf - inf in numpy scalars, which warns
    with np.errstate(invalid="ignore"):
        res = minimize_scalar(logged, bounds=(a, b), method="bounded", options={"xatol": _K_TOL})
    assert asked == seen
    assert (k, value) == (float(res.x), float(res.fun))
    assert len(asked) == res.nfev


def test_a_stretch_no_wider_than_the_tolerance_is_skipped():
    calls = []

    def objective(ks):
        calls.append(ks.copy())
        return (ks - 150.0) ** 2

    lo = 100.0 - _K_TOL / 2
    k, value = selection.minimize_on_breaks(objective, lo, 300.0)
    # breaks lo, 100, 200, 300: the first stretch gets no run
    np.testing.assert_array_equal(calls[0], [lo, 100.0, 200.0, 300.0])
    asked = np.concatenate(calls[1:])
    assert not np.any((asked > lo) & (asked < 100.0))
    assert abs(k - 150.0) <= _K_TOL and value == (k - 150.0) ** 2
    # one stretch, no wider than the tolerance: the breakpoints alone
    calls.clear()
    hi = 1.0 + _K_TOL / 2
    assert selection.minimize_on_breaks(objective, 1.0, hi) == (hi, (hi - 150.0) ** 2)
    assert len(calls) == 1


def test_lockstep_runs_end_where_sequential_runs_do():
    """The same evaluated set and the same optimum as one run per stretch."""

    def scalar(k):
        return math.sin(k / 37.0) + 1e-4 * (math.log(k) - 7.0) ** 2

    calls = []

    def batched(ks):
        calls.append(ks.size)
        return np.array([scalar(k) for k in ks])

    k, value = selection.minimize_on_breaks(batched, 1.0, 2e5)
    breaks = [1.0, *[b for b in selection._BREAKS if b < 2e5], 2e5]
    best = min((scalar(b), i, b) for i, b in enumerate(breaks))
    best = (best[2], best[0])
    runs = [drive(lo, hi, scalar) for lo, hi in zip(breaks[:-1], breaks[1:])]
    for _, (run_k, run_value) in runs:
        if run_value < best[1]:
            best = (run_k, run_value)
    assert (k, value) == best
    assert sum(calls) == len(breaks) + sum(len(asked) for asked, _ in runs)
    # the breakpoints, then one call per step of the longest run
    assert len(calls) == 1 + max(len(asked) for asked, _ in runs)


def wave(n, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, -1] + rng.normal(0, 0.1, n)
    return x, y


def tps_path(monkeypatch=None):
    x, y = wave(80, 2, seed=1)
    path = KPath(build_calibrated_tps(x).spectral(), y)
    assert path.spectral.symmetric and path.spectral.rank == path.n
    return path


def dense_kernel_path(monkeypatch):
    monkeypatch.setattr(kernel_smoother, "_FACTOR_RANK_GATE", 10**9)
    x, y = wave(150, 2, seed=2)
    path = KPath(build_smoother(x, SmootherConfig()).spectral(), y)
    assert not path.spectral.symmetric and path.spectral.rank == path.n
    return path


def truncated_kernel_path(monkeypatch):
    x, y = wave(300, 1, seed=3)
    path = KPath(build_smoother(x, SmootherConfig(df=1.5)).spectral(), y)
    assert path.spectral.rank < path.n
    return path


@pytest.mark.parametrize("case", [tps_path, dense_kernel_path, truncated_kernel_path])
@pytest.mark.parametrize("criterion", ["gcv", "gmdl"])
def test_batched_criterion_rows_match_single_counts(case, criterion, monkeypatch):
    path = case(monkeypatch)
    # no guard may fire: every row is a value to compare
    plan = SelectionPlan(criterion=criterion, dfmaxi=path.n - 3.0)
    score = selection._CriterionScore(path, plan)
    ks = COUNTS[COUNTS <= score.upper(1.0, 1e5)]
    assert ks.size >= 4
    value, df, rss = score.batch(ks)
    _, _, energy = path.batch_stats(ks)
    for j, k in enumerate(ks):
        ref = path.stats(k)
        np.testing.assert_allclose([df[j], rss[j], energy[j]], ref, rtol=1e-13, atol=0)
        ref_value = criterion_value(criterion, path.n, ref[1], ref[0], ref[2])
        assert value[j] == pytest.approx(ref_value, rel=1e-13, abs=0)


def test_batched_cv_rows_match_held_out_errors():
    """Each row is the pooled loss of the held-out errors of w(x)' beta_k.

    At k = 1e5 beta_k reaches 4e4 against predictions near 1, so the direct
    route W beta_k rounds at eps |W| |beta_k|; the errors are compared at
    that scale (the kernel weights are positive, so |W| |beta| = W |beta|).
    """
    x, y = wave(120, 2, seed=4)
    folds = []
    for train, test in make_splits(y.size, CvPlan(kfold=4)):
        smoother = build_smoother(x[train], SmootherConfig())
        folds.append((smoother, x[test], _FoldScorer(smoother, y[train], x[test], y[test])))
    errors = np.concatenate([f.batch_errors(COUNTS) for *_, f in folds], axis=1)
    for j, k in enumerate(COUNTS):
        betas = [f.kpath.coefficients(k) for *_, f in folds]
        direct = np.concatenate(
            [sm.evaluate(x_test, b) - f.y_test for (sm, x_test, f), b in zip(folds, betas)]
        )
        scale = np.concatenate([sm.evaluate(x_test, np.abs(b)) for (sm, x_test, _), b in zip(folds, betas)])
        assert np.all(np.abs(errors[j] - direct) <= 1e-13 * scale)
    for loss in ("rmse", "map"):
        value, df, rss = _CvScore([f for *_, f in folds], loss).batch(COUNTS)
        np.testing.assert_array_equal(value, _pooled_loss(errors, loss))
        assert np.isnan(df).all() and np.isnan(rss).all()


def negative_spectrum_path():
    rng = np.random.default_rng(5)
    n = 20
    lam = np.sort(np.concatenate([rng.uniform(0.0, 1.0, n - 1), [-0.3]]))[::-1]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spectral = SpectralForm(d_half=np.ones(n), u=q, lam=lam, pd_family=False)
    assert not spectral.real_k_ok
    return KPath(spectral, rng.normal(size=n))


def test_mixed_batches_on_a_negative_eigenvalue():
    path = negative_spectrum_path()
    ks = np.array([1.0, 2.0, 9.0, 40.0])
    df, rss, energy = path.batch_stats(ks)
    for j, k in enumerate(ks):
        np.testing.assert_allclose([df[j], rss[j], energy[j]], path.stats(k), rtol=1e-13, atol=0)
    with pytest.raises(IterationDomainError):
        path.batch_stats(np.array([1.0, 2.5, 9.0]))
    with pytest.raises(IterationDomainError):
        path.batch_coef_factors(np.array([2.5]))
    np.testing.assert_allclose(
        path.batch_coef_factors(ks)[2], path.coef_factors(9.0), rtol=1e-13, atol=0
    )


def test_batch_of_one_count_keeps_the_single_count_bits():
    path = tps_path()
    for k in (1.0, 17.0, 4321.0, 2.75, 812.125):
        batched = [float(c[0]) for c in path.batch_stats(np.array([k]))]
        assert batched == list(path.stats(k))


def test_numeric_search_makes_few_batched_calls(monkeypatch):
    """A search of the forward-selection size: one call per round, and as
    many evaluated k as one scipy run per stretch makes."""
    x, y = wave(330, 3, seed=6)
    path = KPath(build_smoother(x, SmootherConfig()).spectral(), y)
    plan = SelectionPlan()
    sizes = []
    batch = selection._CriterionScore.batch

    def counted(self, ks):
        sizes.append(ks.size)
        return batch(self, ks)

    monkeypatch.setattr(selection._CriterionScore, "batch", counted)
    res = search_k_numeric(path, plan)
    assert len(sizes) <= 40
    assert res.trace_k.size == sum(sizes)
    # the same search as one scipy run per stretch, one count per call
    score = selection._CriterionScore(path, plan)
    hi = score.upper(plan.kmin, plan.kmax)
    breaks = [plan.kmin, *[b for b in selection._BREAKS if plan.kmin < b < hi], hi]

    def scalar(k):
        value = batch(score, np.array([float(k)]))[0][0]
        return value if np.isfinite(value) else np.inf

    runs = [
        minimize_scalar(scalar, bounds=(a, b), method="bounded", options={"xatol": _K_TOL})
        for a, b in zip(breaks[:-1], breaks[1:])
        if b - a > _K_TOL
    ]
    assert res.trace_k.size == len(breaks) + sum(r.nfev for r in runs)
