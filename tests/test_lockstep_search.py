"""The numeric k search: the slope-bracketed driver and the batched scores.

:func:`~ibrsmooth.selection.minimize_by_slope` scores a log grid of counts
in one call, then solves slope = 0 in the grid cells where the slope turns
from negative to positive or a cubic Hermite through the cell's ends dips
below both. It runs in rounds: each round scores the counts of every live
cell in one call and splits each cell at its new points, so it scores what
a search of each cell alone would, in one call per round of the deepest
chain of splits. Its answer must be a certified local minimum
and never worse than scipy's bounded Brent (the engine it replaced) run on
each stretch between that engine's breakpoints. A row of a batched score
must agree with the single-count path quantities, and its slope in log k
with a central difference of the values.
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
    fit,
    kernel_smoother,
    make_splits,
    search_k_numeric,
)
from ibrsmooth import selection
from ibrsmooth.crossval import CvPlan, _CvScore, _FoldScorer, _pooled_loss
from ibrsmooth.engine import IterationDomainError
from ibrsmooth.selection import _K_TOL, RSS_FLOOR, criterion_value
from ibrsmooth.smoothers import SpectralForm

# integer and fractional counts, small and large, in one batch
COUNTS = np.array([1.0, 2.5, 7.0, 123.456, 5000.0, 31622.7766, 99999.99])
# the replaced engine's fixed breakpoints and its absolute tolerance in k
BRENT_BREAKS = (100.0, 200.0, 500.0, 1000.0, 5000.0, 1e4, 5e4, 1e5, 5e5, 1e6)
BRENT_XATOL = 0.01


def batched(scalar):
    """A vector objective (values, slopes in log k, no kinks) from a scalar
    (value, slope)."""

    def objective(ks):
        return (*(np.array(c, dtype=float) for c in zip(*(scalar(k) for k in ks))), None)

    return objective


def alone(a, b, halved, scalar):
    """Search the cell [a, b] alone, one piece after another, by the round
    loop's rules: the points it scores, the depth of its deepest chain of
    rounds and the number of rounds it takes one piece at a time."""
    ks = selection._cell_counts(a, b, halved)
    if not ks:
        return [], 0, 0
    new = [(k, *scalar(k), None) for k in ks]
    found, depth, rounds = list(new), 0, 1
    for cell in selection._split(a, b, new):
        more, below, steps = alone(*cell, scalar)
        found += more
        depth = max(depth, below)
        rounds += steps
    return found, depth + 1, rounds


def dip(lo, hi):
    """A value falling slowly in t = log(k / lo) over [lo, hi], with a narrow
    Gaussian dip near its left end, and its slope in t. Its slope is negative
    at lo, where the dip starts, and at every count a grid of [lo, hi] holds
    beyond it, but the dip bottoms out below every one of them."""
    scale = math.log(hi / lo) / math.log(2.0)

    def scalar(k):
        t = math.log(k / lo) / scale
        bump = 0.01 * math.exp(-(((t - 0.05) / 0.03) ** 2))
        return -0.001 * t - bump, (-0.001 + bump * 2.0 * (t - 0.05) / 0.03**2) / scale

    return scalar


@st.composite
def stretches(draw):
    """A stretch [a, a + width] and a deterministic objective on it with its
    slope in log k: a sum of sines over a parabola (several local minima),
    inf past a cap for some."""
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
            return math.inf, math.nan
        value = curve * (t - centre) ** 2 + sum(amp * math.sin(w * t + ph) for amp, w, ph in waves)
        dvalue = 2.0 * curve * (t - centre) + sum(amp * w * math.cos(w * t + ph) for amp, w, ph in waves)
        return value, k * dvalue / width

    return a, a + width, objective


def certified(k, lo, hi, objective):
    """Whether k is an end of [lo, hi] whose slope points outward, or lies
    within 2 _K_TOL k of a slope turning from negative to non-negative. A count
    that scores no finite value (past a cap) takes an infinite slope rising
    into it from below and falling into it from above: the value jumps to
    inf there. A subnormal slope is within rounding of 0 and has no sign."""
    if (k == lo and objective(lo)[1] >= 0.0) or (k == hi and objective(hi)[1] <= 0.0):
        return True
    near = np.linspace(max(lo, k - 2 * _K_TOL * k), min(hi, k + 2 * _K_TOL * k), 2001)
    values, slopes = (np.array(c) for c in zip(*(objective(c) for c in near)))
    slopes = np.where(np.isfinite(values), slopes, np.where(near > k, np.inf, -np.inf))
    slopes[np.abs(slopes) < np.finfo(float).tiny] = 0.0
    return bool(np.any((slopes[:-1] < 0.0) & (slopes[1:] >= 0.0)) or np.any(slopes == 0.0))


@settings(max_examples=300, deadline=None)
@given(stretches())
def test_slope_search_ends_at_a_certified_local_minimum(stretch):
    lo, hi, objective = stretch
    k, value = selection.minimize_by_slope(batched(objective), lo, hi)
    assert lo <= k <= hi and value == objective(k)[0]
    assert certified(k, lo, hi, objective)


def test_a_stretch_no_wider_than_the_tolerance_is_skipped():
    """A grid cell no wider than 2 _K_TOL times its right end gets no Hermite
    probe, and one whose slope turns from negative to positive is only
    closed."""
    calls = []

    def counted(scalar):
        def objective(ks):
            calls.append(ks.tolist())
            return batched(scalar)(ks)

        return objective

    # one cell 0.015 wide at k = 1e5, where 2 _K_TOL k is 0.02, whose ends
    # hide a dip: the grid alone, the better end
    lo, hi = 1e5, 1e5 + 0.015
    scalar = dip(lo, hi)
    assert selection._hermite_dip((lo, *scalar(lo)), (hi, *scalar(hi)))
    assert selection.minimize_by_slope(counted(scalar), lo, hi) == (hi, scalar(hi)[0])
    assert calls == [[lo, hi]]
    # grid lo, sqrt(300 lo), 300; the first cell brackets the minimum at
    # 99.998 and is closed by rounds of two counts inside it
    calls.clear()
    lo = 99.995

    def bowl(k):
        return (k - 99.998) ** 2, 2.0 * k * (k - 99.998)

    k, value = selection.minimize_by_slope(counted(bowl), lo, 300.0)
    assert len(calls[0]) == 3 and calls[0][::2] == [lo, 300.0]
    assert calls[0][1] == pytest.approx(math.sqrt(300.0 * lo), rel=1e-15)
    assert len(calls) > 1 and all(len(ks) == 2 and lo < min(ks) < max(ks) < calls[0][1] for ks in calls[1:])
    assert abs(k - 99.998) < 1e-6 and value == bowl(k)[0]


def test_lockstep_runs_end_where_sequential_runs_do():
    """The round loop scores the same counts, and reaches the same optimum,
    as a search of each grid cell alone, and makes 1 call plus one per
    round of its deepest chain of rounds."""

    def scalar(k):
        return (
            math.sin(k / 37.0) + 1e-4 * (math.log(k) - 7.0) ** 2,
            k * math.cos(k / 37.0) / 37.0 + 2e-4 * (math.log(k) - 7.0),
        )

    calls = []

    def objective(ks):
        calls.append(ks.tolist())
        return batched(scalar)(ks)

    k, value = selection.minimize_by_slope(objective, 1.0, 2e5)
    grid = selection._search_grid(1.0, 2e5).tolist()
    points = [(c, *scalar(c), None) for c in grid]
    runs = [alone(a, b, True, scalar) for a, b in zip(points[:-1], points[1:])]
    found = [p for scored, *_ in runs for p in scored]
    best = min(points + found, key=lambda p: (p[1], p[0]))
    assert (k, value) == best[:2]
    assert calls[0] == grid
    assert sorted(c for ks in calls[1:] for c in ks) == sorted(p[0] for p in found)
    deepest = max(depth for _, depth, _ in runs)
    assert deepest > 0 and len(calls) == 1 + deepest
    # the pieces of a cell share their rounds
    assert deepest < max(rounds for *_, rounds in runs)


def test_a_minimum_the_end_slopes_do_not_show_is_found():
    """Every grid count of [5e4, 1e5] has a negative slope, as the pooled CV
    loss of a forward_cv dataset had at the breakpoints 5e4 and 1e5 while it
    went down, up and down again between them; the cubic Hermite through the
    first cell's ends finds the dip."""
    lo, hi = 5e4, 1e5
    scalar = dip(lo, hi)
    grid = selection._search_grid(lo, hi)
    assert all(scalar(c)[1] < 0.0 for c in grid)
    k, value = selection.minimize_by_slope(batched(scalar), lo, hi)
    assert value < min(scalar(c)[0] for c in grid)
    assert certified(k, lo, hi, scalar)


def test_a_kink_minimum_the_end_slopes_do_not_show_is_found():
    """A value that is a mean of |e| over two pieces plus a smooth part falls
    at both ends of its one grid cell, and its least value is a kink inside,
    where the piece t - 1/2 changes sign: the kink probes find it, and
    without the pieces the search keeps the better end."""
    lo, hi = 100.0, 150.0
    span = math.log(hi / lo)

    def objective(ks, kinks=True):
        t = np.log(ks / lo) / span
        e = np.stack([t - 0.5, np.ones_like(t)], axis=1)
        de = np.stack([np.full_like(t, 1.0 / span), np.zeros_like(t)], axis=1)
        value = np.abs(e).mean(axis=1) - 0.3 * t - 0.3 * (t - 0.5) ** 2
        slope = (np.sign(e) * de).mean(axis=1) - (0.3 + 0.6 * (t - 0.5)) / span
        return value, slope, (e, de) if kinks else None

    assert selection._search_grid(lo, hi).tolist() == [lo, hi]
    assert np.all(objective(np.array([lo, hi]))[1] < 0.0)
    k, value = selection.minimize_by_slope(objective, lo, hi)
    assert k == pytest.approx(math.sqrt(lo * hi), rel=1e-12) and value == pytest.approx(0.35, rel=1e-12)
    assert selection.minimize_by_slope(lambda ks: objective(ks, kinks=False), lo, hi) == (hi, 0.375)


def admissible_cap(score, lo, hi):
    """The end of the admissible range of real counts in [lo, hi], as the
    numeric search finds it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return selection._admissible_range(score, float(lo), float(hi), exhaustive=False)[0]


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


def floor_path(monkeypatch=None):
    """A near-interpolating base (8 points, bandwidth 0.05): rss reaches the
    1e-10 floor near k = 3.02, while df stays below 7.9999 up to k = 3.5."""
    x = np.linspace(0, 1, 8)
    path = KPath(build_smoother(x[:, None], SmootherConfig(bandwidths=(0.05,))).spectral(), np.sin(3 * x))
    assert path.rss(3.0) > RSS_FLOOR > path.rss(3.5) and path.df(3.5) < 7.9999
    return path


@pytest.mark.parametrize("case", [tps_path, dense_kernel_path, truncated_kernel_path, floor_path])
@pytest.mark.parametrize("exhaustive", [False, True], ids=["numeric", "exhaustive"])
def test_admissible_range_ends_where_a_guard_binds(case, exhaustive, monkeypatch):
    """With dfmaxi halfway between df(kmin) and df(kmax), or the RSS floor
    binding first, the cap scores finite and the next integer, or the cap
    times 1 + 2e-9, does not; the multisection gets there in at most 8
    batched calls (scalar bisections took 37-41 calls)."""
    path = case(monkeypatch)
    dfmaxi = 7.9999 if case is floor_path else 0.5 * (path.df(1.0) + path.df(1e5))
    score = selection._CriterionScore(path, SelectionPlan(dfmaxi=dfmaxi))
    calls = []
    batch = score.batch
    score.batch = lambda ks: calls.append(len(ks)) or batch(ks)
    lo, hi = (1, 100000) if exhaustive else (1.0, 1e5)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cap, seen = selection._admissible_range(score, lo, hi, exhaustive)
        value, df, rss = batch(np.array([cap, cap + 1 if exhaustive else cap * (1 + 2e-9)]))
    assert lo < cap < hi and 1 <= len(calls) <= 8
    assert np.isfinite(value[0]) and np.isfinite(seen[cap][0]) and not np.isfinite(value[1])
    if case is floor_path:
        # at k = 4 df has passed the ceiling too
        assert rss[1] <= RSS_FLOOR < rss[0] and (exhaustive or df[1] <= dfmaxi)
    else:
        assert df[0] <= dfmaxi < df[1]


@pytest.mark.parametrize("case", [tps_path, dense_kernel_path, truncated_kernel_path])
def test_stat_slopes_carry_the_bits_of_batch_stats(case, monkeypatch):
    path = case(monkeypatch)
    stats, _ = path.batch_stat_slopes(COUNTS)
    for got, ref in zip(stats, path.batch_stats(COUNTS)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", [tps_path, dense_kernel_path, truncated_kernel_path])
@pytest.mark.parametrize("criterion", ["gcv", "gmdl"])
def test_batched_criterion_rows_match_single_counts(case, criterion, monkeypatch):
    path = case(monkeypatch)
    # no guard may fire: every row is a value to compare
    plan = SelectionPlan(criterion=criterion, dfmaxi=path.n - 3.0)
    score = selection._CriterionScore(path, plan)
    ks = COUNTS[COUNTS <= admissible_cap(score, 1.0, 1e5)]
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
            [sm.predictor(b).predict(x_test) - f.y_test for (sm, x_test, f), b in zip(folds, betas)]
        )
        scale = np.concatenate([sm.predictor(np.abs(b)).predict(x_test) for (sm, x_test, _), b in zip(folds, betas)])
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
        path.batch_coef_factors(ks)[2], path.batch_coef_factors([9.0])[0], rtol=1e-13, atol=0
    )


def test_batch_of_one_count_keeps_the_single_count_bits():
    path = tps_path()
    for k in (1.0, 17.0, 4321.0, 2.75, 812.125):
        batched = [float(c[0]) for c in path.batch_stats(np.array([k]))]
        assert batched == list(path.stats(k))


def test_numeric_search_makes_few_batched_calls(monkeypatch):
    """A search of the forward-selection size: the grid in one call, then
    few rounds of slope roots; the bounded Brent it replaced made 34."""
    x, y = wave(330, 3, seed=6)
    path = KPath(build_smoother(x, SmootherConfig()).spectral(), y)
    sizes = []
    batch_slopes = selection._CriterionScore.batch_slopes

    def counted(self, ks):
        sizes.append(ks.size)
        return batch_slopes(self, ks)

    monkeypatch.setattr(selection._CriterionScore, "batch_slopes", counted)
    for criterion in selection.CRITERIA:
        sizes.clear()
        res = search_k_numeric(path, SelectionPlan(criterion=criterion))
        assert 1 <= len(sizes) <= 12
        assert res.trace_k.size == sum(sizes)


def test_a_search_to_kmax_1e15_makes_one_call_per_round(monkeypatch):
    """forward_cv's seed-[1, 1] design, its first column alone, searched to
    kmax 1e15: 94 counts in 7 score calls, one for the admissible range, one
    for the grid and one per round of every live piece. An absolute k
    tolerance of 0.01 took 184 counts in 43 calls, one cell search after
    another in lockstep 11674 calls, and values from powers of the rounded
    base 1 - lambda, whose slopes disagreed with them at the tiny
    eigenvalues, 23456 counts in 72 calls."""
    rng = np.random.default_rng([1, 1])
    x = rng.uniform(size=(330, 5))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + x[:, 2] ** 2 + rng.normal(0, 0.1, 330)
    calls = []
    for name in ("batch", "batch_slopes"):
        method = getattr(selection._CriterionScore, name)
        monkeypatch.setattr(
            selection._CriterionScore, name, lambda self, ks, method=method: calls.append(len(ks)) or method(self, ks)
        )
    result = fit(x[:, :1], y, plan=SelectionPlan(kmax=1e15))
    assert len(calls) <= 12
    assert sum(calls) < 200
    assert result.k == pytest.approx(5.5694082e7, rel=1e-6)


def test_a_kernel_search_to_kmax_1e15_closes_in_a_few_rounds(monkeypatch):
    """A Gaussian fit at n = 1500, d = 2 whose GCV, searched to kmax 1e15,
    has a minimum near k = 1.585e8 and, near k = 5.6e14, a bracket 0.016
    above it where the value jumps by 2e-5 between neighbouring counts. A
    tolerance relative to k closes both in a few rounds; an absolute 0.01
    in k is finer than the float spacing of k there (0.0625), so that
    bracket closed only when no count was left inside it, in 36 calls."""
    rng = np.random.default_rng([2, 1])
    x = rng.uniform(size=(1500, 2))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, 1500)
    calls = []
    method = selection._CriterionScore.batch_slopes
    monkeypatch.setattr(
        selection._CriterionScore, "batch_slopes", lambda self, ks: calls.append(len(ks)) or method(self, ks)
    )
    # at k = 1.585e8 the pairs the truncated spectrum left out may move the
    # df by k * tail_trace = 1.1e-4, and the fit says so
    with pytest.warns(UserWarning, match="left out"):
        result = fit(x, y, smoother=SmootherConfig(df=1.1), plan=SelectionPlan(kmax=1e15))
    assert len(calls) <= 8
    assert result.k == pytest.approx(1.5850002e8, rel=2e-7)


def bounded_brent_best(score, plan):
    """The old engine: the breakpoints, then scipy's bounded Brent on each
    stretch between them; the best value it saw."""
    lo = float(plan.kmin)
    hi = admissible_cap(score, lo, plan.kmax)
    breaks = [lo, *[b for b in BRENT_BREAKS if lo < b < hi], hi]

    def scalar(k):
        value = score.batch(np.array([float(k)]))[0][0]
        return value if np.isfinite(value) else np.inf

    best = min(scalar(b) for b in breaks)
    # scipy's steps take inf - inf in numpy scalars, which warns
    with np.errstate(invalid="ignore"):
        for a, b in zip(breaks[:-1], breaks[1:]):
            if b - a > BRENT_XATOL:
                res = minimize_scalar(scalar, bounds=(a, b), method="bounded", options={"xatol": BRENT_XATOL})
                best = min(best, float(res.fun))
    return best


def search_problem(kind, seed, n, d, df, name):
    """A score along a path: a kernel design (d columns, per-variable df) or
    a spline under criterion ``name``, or 4-fold CV of a kernel under loss
    ``name``."""
    config = SmootherConfig(family="tps") if kind == "tps" else SmootherConfig(df=df)
    x, y = wave(n, d, seed=seed)
    if kind == "cv":
        plan = SelectionPlan(criterion=name, cv=CvPlan(kfold=4))
        folds = [
            _FoldScorer(build_smoother(x[train], config), y[train], x[test], y[test])
            for train, test in make_splits(n, plan.cv)
        ]
        return _CvScore(folds, name), plan
    plan = SelectionPlan(criterion=name)
    return selection._CriterionScore(KPath(build_smoother(x, config).spectral(), y), plan), plan


@st.composite
def search_problems(draw):
    """Arguments of :func:`search_problem`: kernel designs with d 1-3, n 60-400
    and df 1.05-3 under a criterion, splines with n 60-200 under a
    criterion, and 4-fold CV of kernel designs under a loss."""
    kind = draw(st.sampled_from(["kernel", "tps", "cv"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "tps":
        n, d, df = draw(st.integers(60, 200)), 2, None
    else:
        n, d, df = draw(st.integers(60, 400)), draw(st.integers(1, 3)), draw(st.floats(1.05, 3.0))
    names = selection.CV_LOSSES if kind == "cv" else selection.CRITERIA
    return kind, seed, n, d, df, draw(st.sampled_from(names))


@settings(max_examples=25, deadline=None)
@given(search_problems())
def test_slope_search_never_worse_than_bounded_brent(args):
    score, plan = search_problem(*args)
    if not score.real_k_ok:
        return
    got = selection.search_k(score, plan, exhaustive=False).value
    best = bounded_brent_best(score, plan)
    assert got <= best + 1e-12 * max(1.0, abs(best))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.integers(60, 400), st.integers(1, 3), st.floats(1.05, 3.0))
def test_map_search_ends_at_a_certified_local_minimum(seed, n, d, df):
    """The map loss has a kink wherever a held-out error changes sign, where
    its slope jumps; the search still ends at a certified local minimum."""
    score, plan = search_problem("cv", seed, n, d, df, "map")
    if not score.real_k_ok:
        return
    got = selection.search_k(score, plan, exhaustive=False)

    def scalar(k):
        value, slope, *_ = score.batch_slopes(np.array([k]))
        return float(value[0]), float(slope[0])

    assert certified(got.k, plan.kmin, plan.kmax, scalar)


def slope_cases():
    """(path kind, score factory) pairs: three paths under every criterion,
    and 4-fold CV under both losses."""
    for case in (tps_path, dense_kernel_path, truncated_kernel_path):
        for criterion in selection.CRITERIA:
            yield pytest.param(case, criterion, id=f"{criterion}-{case.__name__}")
    for loss in selection.CV_LOSSES:
        yield pytest.param(cv_folds, loss, id=f"{loss}-{cv_folds.__name__}")


def cv_folds(monkeypatch=None):
    x, y = wave(120, 2, seed=4)
    return [
        _FoldScorer(build_smoother(x[train], SmootherConfig()), y[train], x[test], y[test])
        for train, test in make_splits(y.size, CvPlan(kfold=4))
    ]


@pytest.mark.parametrize("case, name", list(slope_cases()))
def test_score_slopes_match_central_differences(case, name, monkeypatch):
    """Each score's slope in log k against a central difference of its values
    (step 1e-5 in log k); gmdl's counts near its kink at F = 1 are skipped."""
    built = case(monkeypatch)
    if name in selection.CV_LOSSES:
        score, ks = _CvScore(built, name), COUNTS
    else:
        # no guard may fire: every row is a value to differentiate
        score = selection._CriterionScore(built, SelectionPlan(criterion=name, dfmaxi=built.n - 3.0))
        ks = COUNTS[COUNTS <= admissible_cap(score, 1.0, 1e5)]
    if name == "gmdl":
        df, rss, energy = built.batch_stats(ks)
        f = energy * (built.n - df) / (df * rss)
        ks = ks[np.abs(np.log(f)) > 1e-3]
    assert ks.size >= 4
    value, slope, *_ = score.batch_slopes(ks)
    np.testing.assert_array_equal(value, score.batch(ks)[0])
    h = 1e-5
    below = score.batch(ks * math.exp(-h))[0]
    above = score.batch(ks * math.exp(h))[0]
    np.testing.assert_allclose(slope, (above - below) / (2 * h), rtol=1e-6, atol=0)
