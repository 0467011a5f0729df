"""Search over the iteration count: numeric vs exhaustive, guard rails."""

import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibrsmooth import (
    BreakdownError,
    CvPlan,
    KPath,
    SelectionPlan,
    SmootherConfig,
    build_calibrated_tps,
    build_smoother,
    fit,
    search_k_exhaustive,
    search_k_numeric,
)
from ibrsmooth import engine, selection
from ibrsmooth.benchmarks import make_wendelberger_data
from ibrsmooth.selection import RSS_FLOOR, df_ceiling
from ibrsmooth.smoothers import SpectralForm

from conftest import gaussian_smoother, random_design


def smooth_problem(seed, n=40):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 4, n))
    y = np.sin(2 * x) + rng.normal(0, 0.3, n)
    return gaussian_smoother(x, h=1.0), y


def test_numeric_beats_or_matches_exhaustive():
    for seed in range(5):
        sm, y = smooth_problem(seed)
        path = KPath(sm.spectral(), y)
        num = search_k_numeric(path, SelectionPlan())
        exh = search_k_exhaustive(path, SelectionPlan(mode="exhaustive"))
        assert num.value <= exh.value + 1e-6
        assert abs(num.k - exh.k) <= 1.0


def test_exhaustive_returns_integer_k():
    sm, y = smooth_problem(3)
    res = search_k_exhaustive(KPath(sm.spectral(), y), SelectionPlan(mode="exhaustive"))
    assert res.k == round(res.k)
    assert res.k_rounded == int(res.k)
    assert res.mode == "exhaustive"


def test_trace_respects_df_ceiling_and_rss_floor():
    sm, y = smooth_problem(7)
    plan = SelectionPlan(dfmaxi=12.0)
    for search in (search_k_numeric, search_k_exhaustive):
        res = search(KPath(sm.spectral(), y), plan)
        assert res.trace_df.max() <= 12.0 + 1e-9
        assert res.trace_rss.min() > RSS_FLOOR
        assert res.df <= 12.0 + 1e-9


def test_default_ceiling_is_two_thirds_n():
    sm, y = smooth_problem(11, n=30)
    res = search_k_exhaustive(KPath(sm.spectral(), y), SelectionPlan(mode="exhaustive"))
    assert res.trace_df.max() <= df_ceiling(30, None) + 1e-9


def test_all_criteria_run():
    sm, y = smooth_problem(2)
    path = KPath(sm.spectral(), y)
    for crit in ("gcv", "aic", "aicc", "bic", "gmdl"):
        res = search_k_numeric(path, SelectionPlan(criterion=crit))
        assert np.isfinite(res.value)
        assert res.criterion == crit


def test_kmin_already_over_ceiling_breaks():
    """Both modes refuse with one message that names the ceiling."""
    sm, y = smooth_problem(5)
    path = KPath(sm.spectral(), y)
    messages = []
    for search, mode in ((search_k_numeric, "numeric"), (search_k_exhaustive, "exhaustive")):
        with pytest.raises(BreakdownError, match="ceiling") as caught:
            search(path, SelectionPlan(mode=mode, dfmaxi=1.0))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_kmin_at_the_rss_floor_names_the_floor():
    """A near-interpolating base (8 points, bandwidth 0.05) has rss 8e-16 at
    k = 5, below the 1e-10 floor, and df 7.999998 there, below the ceiling
    n (1 - 1e-10): from kmin = 5 no count is admissible, and both modes
    say why."""
    x = np.linspace(0, 1, 8)
    path = KPath(build_smoother(x[:, None], SmootherConfig(bandwidths=(0.05,))).spectral(), np.sin(3 * x))
    messages = []
    for search, mode in ((search_k_numeric, "numeric"), (search_k_exhaustive, "exhaustive")):
        with pytest.raises(BreakdownError, match="floor") as caught:
            search(path, SelectionPlan(mode=mode, kmin=5.0, dfmaxi=8.0))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_numeric_falls_back_to_integers_on_wild_spectra(rng):
    # epanechnikov on tightly clustered points pushes eigenvalues negative;
    # a direct numeric call then warns once and sweeps integers, as fit does
    from ibrsmooth import DesignMatrix, KernelSmootherSpec, build_kernel_smoother

    x = rng.uniform(0, 0.2, size=(25, 1))
    sm = build_kernel_smoother(
        DesignMatrix.from_array(x),
        KernelSmootherSpec(kind="epanechnikov", bandwidths=(1.0,)),
    )
    spectral = sm.spectral()
    assert not spectral.real_k_ok
    path = KPath(spectral, rng.normal(size=25))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = search_k_numeric(path, SelectionPlan())
    assert len(caught) == 1
    assert "switching to exhaustive integer search" in str(caught[0].message)
    assert caught[0].filename == __file__
    ref = search_k_exhaustive(path, SelectionPlan(mode="exhaustive"))
    assert res.mode == "exhaustive"
    assert np.isfinite(res.value)
    for f in dataclasses.fields(ref):
        np.testing.assert_array_equal(getattr(res, f.name), getattr(ref, f.name), err_msg=f.name)


def test_trace_is_sorted_and_admissible():
    sm, y = smooth_problem(13)
    res = search_k_numeric(KPath(sm.spectral(), y), SelectionPlan())
    assert np.all(np.diff(res.trace_k) >= 0)
    assert res.trace_k[0] >= 1.0
    assert np.isfinite(res.trace_value).all()


def test_plan_validation():
    with pytest.raises(ValueError, match="criterion"):
        SelectionPlan(criterion="press")
    with pytest.raises(ValueError, match="mode"):
        SelectionPlan(mode="magic")
    with pytest.raises(ValueError, match="fixed_k"):
        SelectionPlan(mode="fixed")
    with pytest.raises(ValueError, match="kmin"):
        SelectionPlan(kmin=10.0, kmax=5.0)
    with pytest.raises(ValueError, match="cv plan needs a cross-validated loss"):
        SelectionPlan(criterion="gcv", cv=CvPlan(kfold=5))
    # values that used to fail only after calibration, or crash the sweep
    for mode in ("numeric", "exhaustive"):
        with pytest.raises(ValueError, match="kmax must be a finite number, got inf"):
            SelectionPlan(mode=mode, kmax=math.inf)
    for k in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite fixed_k"):
            SelectionPlan(mode="fixed", fixed_k=k)
    for dfmaxi in (0.0, -3.0, math.nan):
        with pytest.raises(ValueError, match="dfmaxi must be a positive number"):
            SelectionPlan(dfmaxi=dfmaxi)
    # fields that used to raise a TypeError from a comparison
    for fields, name in [
        ({"kmax": "1e5"}, "kmax"),
        ({"dfmaxi": "3"}, "dfmaxi"),
        ({"kmin": None}, "kmin"),
        ({"mode": "fixed", "fixed_k": "5"}, "fixed_k"),
        ({"kmax": True}, "kmax"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be a real number, got"):
            SelectionPlan(**fields)


@pytest.mark.parametrize("mode", ["numeric", "exhaustive"])
def test_fixed_k_outside_fixed_mode_is_refused(mode):
    """Another mode would ignore fixed_k: the numeric search ran to k = 1e5
    on a 200-row fit, the exhaustive one to kmax."""
    with pytest.raises(ValueError, match=f"fixed_k = 5 is read only with mode='fixed', got mode '{mode}'"):
        SelectionPlan(mode=mode, fixed_k=5)


def test_small_kmax_limits_the_search():
    sm, y = smooth_problem(17)
    path = KPath(sm.spectral(), y)
    res = search_k_exhaustive(path, SelectionPlan(mode="exhaustive", kmax=25))
    assert res.trace_k.max() <= 25
    num = search_k_numeric(path, SelectionPlan(kmax=25))
    assert num.k <= 25.0


def test_result_df_rss_match_reported_k():
    sm, y = smooth_problem(19)
    path = KPath(sm.spectral(), y)
    res = search_k_numeric(path, SelectionPlan())
    assert res.df == pytest.approx(path.df(res.k), rel=1e-12)
    assert res.rss == pytest.approx(path.rss(res.k), rel=1e-12)


def test_exhaustive_plan_refuses_an_empty_integer_range():
    with pytest.raises(ValueError, match=r"kmin=1.5, kmax=1.9"):
        SelectionPlan(mode="exhaustive", kmin=1.5, kmax=1.9)
    assert SelectionPlan(mode="exhaustive", kmin=1.5, kmax=2.0).kmax == 2.0
    assert SelectionPlan(kmin=1.5, kmax=1.9).mode == "numeric"


def test_integer_fallback_refuses_an_empty_integer_range():
    # an epanechnikov base at df 3 has eigenvalues below 0, so the numeric
    # plan falls back to integers, and [1.5, 1.9] holds none
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 4, size=(40, 1))
    y = np.sin(2 * x[:, 0]) + rng.normal(0, 0.25, 40)
    config = SmootherConfig(kernel="epanechnikov", df=3)
    with pytest.warns(UserWarning, match="exhaustive"):
        with pytest.raises(ValueError, match=r"kmin=1.5, kmax=1.9"):
            fit(x, y, smoother=config, plan=SelectionPlan(kmin=1.5, kmax=1.9))


@pytest.mark.parametrize("mode", ["numeric", "exhaustive"])
def test_aicc_near_n_minus_two_fits_in_both_modes(mode):
    """n = 12 with dfmaxi = n - 0.5: the df ceiling alone admits df in
    [10, 11.5], where aicc is undefined. Both modes stop below n - 2 and
    pick k = 1 (the numeric search used to raise partway through)."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=12)
    y = np.sin(2 * x) + rng.normal(0, 0.3, 12)
    plan = SelectionPlan(criterion="aicc", dfmaxi=12 - 0.5, mode=mode)
    result = fit(x[:, None], y, smoother=SmootherConfig(df=4.0), plan=plan)
    assert result.k == 1.0
    assert result.final_df == pytest.approx(4.0, abs=1e-3)
    assert df_ceiling(12, 11.5, "aicc") < 10.0 < df_ceiling(12, 11.5)


@pytest.mark.parametrize("mode", ["numeric", "exhaustive"])
def test_criterion_fit_builds_one_path(monkeypatch, mode):
    """The search walks the path that fit builds; it builds none of its own."""
    built = []
    init = engine.KPath.__init__

    def counting_init(self, spectral, y):
        built.append(self)
        init(self, spectral, y)

    monkeypatch.setattr(engine.KPath, "__init__", counting_init)
    sm, y = smooth_problem(23)
    result = fit(sm.design.x, y, smoother=sm, plan=SelectionPlan(mode=mode, kmax=500))
    assert len(built) == 1
    assert result.selection_mode == mode


def tps_path(seed, n=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 2))
    y = np.sin(4 * x[:, 0]) + x[:, 1] + rng.normal(0, 0.2, n)
    return KPath(build_calibrated_tps(x).spectral(), y)


def bounded_and_swept(path, plan):
    """The exhaustive search as it runs, and the full sweep with the bound
    switched off, as (result or BreakdownError message) pairs."""
    out = []
    for certified in (True, False):
        score = selection._CriterionScore(path, plan)
        assert (score.bound is not None) == (plan.criterion != "gmdl")
        if not certified:
            score.bound = None
        try:
            out.append(selection.search_k(score, plan, exhaustive=True))
        except BreakdownError as exc:
            out.append(str(exc))
    return out


# eigenvalues in [0, 1]: exact 0 and 1 entries, uniform ones and small
# ones on a log scale, as a smoother's spectrum decays
EIGEN = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(0.0, 1.0),
    st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
)


@st.composite
def certified_problems(draw):
    n = draw(st.integers(20, 120))
    lam = np.sort(np.array(draw(st.lists(EIGEN, min_size=n, max_size=n))))[::-1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    # signal on the large eigenvalues, unit noise on all of them
    z = rng.normal(size=n) * (1.0 + draw(st.floats(0.0, 100.0)) * lam)
    plan = SelectionPlan(
        criterion=draw(st.sampled_from(["gcv", "aic", "aicc", "bic"])),
        mode="exhaustive",
        kmax=draw(st.integers(2, 20000)),
        dfmaxi=draw(st.one_of(st.none(), st.floats(1.0, float(n)))),
    )
    return KPath(SpectralForm(d_half=np.ones(n), u=q, lam=lam), q @ z), plan


@settings(max_examples=60, deadline=None)
@given(certified_problems())
def test_bounded_search_returns_the_sweeps_k(problem):
    """On a symmetric spectrum in [0, 1] the certified search picks the
    full sweep's k, or a count the sweep itself scores within the margin."""
    path, plan = problem
    bounded, swept = bounded_and_swept(path, plan)
    if isinstance(swept, str):
        assert bounded == swept
        return
    # the sweep's own value at the bounded search's k
    (at_k,) = swept.trace_value[swept.trace_k == bounded.k]
    if bounded.k != swept.k:
        assert abs(at_k - swept.value) <= selection._BOUND_MARGIN * max(1.0, abs(swept.value))
    # values are logs, so near 0 the rounding is absolute
    assert bounded.value == pytest.approx(at_k, rel=1e-14, abs=1e-14)
    assert np.all(np.diff(bounded.trace_k) > 0)
    assert np.isin(bounded.trace_k, swept.trace_k).all()


def test_bounded_search_evaluates_few_counts():
    path = tps_path(1)
    res = search_k_exhaustive(path, SelectionPlan(mode="exhaustive", kmax=1e7))
    swept = bounded_and_swept(path, SelectionPlan(mode="exhaustive", kmax=1e7))[1]
    assert res.k == swept.k
    assert res.value == pytest.approx(swept.value, rel=1e-14)
    assert res.trace_k.size < 500 < swept.trace_k.size
    assert np.all(np.diff(res.trace_k) > 0)


@pytest.mark.parametrize("case", ["tps_path(1)", "wendelberger 30 x 30"])
def test_bounded_search_scores_in_few_batched_calls(case, monkeypatch):
    """Each round of the bounded search, the cap's multisection and the
    interval splits alike, scores its counts in one call: at kmax 1e7 a
    search makes at most 20 calls (one count per call took 70 on
    tps_path(1) and 310 on the 900-point surface) and picks the sweep's k."""
    if case == "tps_path(1)":
        path = tps_path(1)
    else:
        design, y, _ = make_wendelberger_data(n_axis=30)
        path = KPath(build_calibrated_tps(design.x).spectral(), y)
    plan = SelectionPlan(mode="exhaustive", kmax=1e7)
    calls = []
    batch = selection._CriterionScore.batch
    monkeypatch.setattr(selection._CriterionScore, "batch", lambda self, ks: calls.append(len(ks)) or batch(self, ks))
    bounded = search_k_exhaustive(path, plan)
    monkeypatch.undo()
    assert len(calls) <= 20
    assert bounded.k == bounded_and_swept(path, plan)[1].k


def test_bounded_search_does_not_split_a_flat_criterion():
    """A projection (eigenvalues 0 and 1 only) has the same df and rss at
    every k: the sweep's first count wins, and no interval is split."""
    lam = np.repeat([1.0, 0.0], [8, 22])
    y = np.random.default_rng(3).normal(size=30) * (1 + 30 * lam)
    path = KPath(SpectralForm(d_half=np.ones(30), u=np.eye(30), lam=lam), y)
    bounded, swept = bounded_and_swept(path, SelectionPlan(mode="exhaustive"))
    assert bounded.k == swept.k == 1
    assert swept.trace_k.size == 100000
    assert bounded.trace_k.size <= selection._BOUND_GRID


def lam_below_zero_path(rng):
    n = 40
    lam = np.sort(np.concatenate([rng.uniform(0.01, 1.0, n - 1), [-1e-11]]))[::-1]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spectral = SpectralForm(d_half=np.ones(n), u=q, lam=lam)
    assert spectral.symmetric and spectral.real_k_ok
    return KPath(spectral, q @ (rng.normal(size=n) * (1 + 20 * lam)))


@pytest.mark.parametrize("case", ["gmdl", "gaussian kernel", "eigenvalue below zero"])
def test_uncertified_scores_sweep_every_count(case, rng):
    """Without a certified bound the exhaustive search evaluates every count,
    so its trace holds every one up to kmax or the first over the ceiling."""
    criterion = "gcv"
    if case == "gmdl":
        path, criterion = tps_path(2), "gmdl"
    elif case == "gaussian kernel":
        sm, y = smooth_problem(29)
        path = KPath(sm.spectral(), y)
        assert not sm.spectral().symmetric
    else:
        path = lam_below_zero_path(rng)
    plan = SelectionPlan(criterion=criterion, mode="exhaustive", kmax=3000)
    assert selection._CriterionScore(path, plan).bound is None
    res = search_k_exhaustive(path, plan)
    swept = np.arange(1, res.trace_k[-1] + 1)
    np.testing.assert_array_equal(res.trace_k, swept)
    assert swept[-1] == 3000 or path.df(swept[-1] + 1) > df_ceiling(path.n, None)


def test_df_over_the_ceiling_at_kmin_fails_alike_on_both_routes():
    path = tps_path(3)
    plan = SelectionPlan(mode="exhaustive", dfmaxi=2.0)
    assert path.df(1) > 2.0
    bounded, swept = bounded_and_swept(path, plan)
    assert bounded == swept
    assert swept.startswith("no admissible k in [1, 100000]: df(1) = ")


def test_sweep_holds_only_the_blocks_it_sweeps():
    """A sweep that the df ceiling ends early allocates nothing for the rest
    of [kmin, kmax] (a 1e7-count trace is 320 MB)."""
    path = tps_path(4)
    tracemalloc.start()
    try:
        res = search_k_exhaustive(path, SelectionPlan(criterion="gmdl", mode="exhaustive", kmax=1e7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.trace_k[-1] < 1e5
    assert peak < 50e6


@pytest.mark.parametrize("criterion", ["gcv", "gmdl"])
def test_search_frees_the_path_without_a_cyclic_collection(criterion):
    """Nothing the search builds refers back to itself, so the path and the
    spectrum it holds go as soon as the caller drops them (a cycle kept an
    n x n eigenvector block alive across fits until the collector ran)."""
    gc.disable()
    try:
        path = tps_path(5)
        ref = weakref.ref(path)
        search_k_exhaustive(path, SelectionPlan(criterion=criterion, mode="exhaustive"))
        del path
        assert ref() is None
    finally:
        gc.enable()
