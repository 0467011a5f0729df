"""Search over the iteration count: numeric vs exhaustive, guard rails."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ibrsmooth import (
    BreakdownError,
    CvPlan,
    KPath,
    SelectionPlan,
    SmootherConfig,
    build_calibrated_tps,
    fit,
    search_k_exhaustive,
    search_k_numeric,
)
from ibrsmooth import engine
from ibrsmooth.selection import RSS_FLOOR, df_ceiling

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
    sm, y = smooth_problem(5)
    with pytest.raises(BreakdownError, match="ceiling"):
        search_k_numeric(KPath(sm.spectral(), y), SelectionPlan(dfmaxi=1.0))


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
