"""Search over the iteration count: numeric vs exhaustive, guard rails."""

import numpy as np
import pytest

from ibrsmooth import (
    BreakdownError,
    CvPlan,
    SelectionPlan,
    SmootherConfig,
    build_calibrated_tps,
    fit,
    search_k_exhaustive,
    search_k_numeric,
)
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
        spectral = sm.spectral()
        num = search_k_numeric(spectral, y, SelectionPlan())
        exh = search_k_exhaustive(spectral, y, SelectionPlan(mode="exhaustive"))
        assert num.value <= exh.value + 1e-6
        assert abs(num.k - exh.k) <= 1.0


def test_exhaustive_returns_integer_k():
    sm, y = smooth_problem(3)
    res = search_k_exhaustive(sm.spectral(), y, SelectionPlan(mode="exhaustive"))
    assert res.k == round(res.k)
    assert res.k_rounded == int(res.k)
    assert res.mode == "exhaustive"


def test_trace_respects_df_ceiling_and_rss_floor():
    sm, y = smooth_problem(7)
    plan = SelectionPlan(dfmaxi=12.0)
    for search in (search_k_numeric, search_k_exhaustive):
        res = search(sm.spectral(), y, plan)
        assert res.trace_df.max() <= 12.0 + 1e-9
        assert res.trace_rss.min() > RSS_FLOOR
        assert res.df <= 12.0 + 1e-9


def test_default_ceiling_is_two_thirds_n():
    sm, y = smooth_problem(11, n=30)
    res = search_k_exhaustive(sm.spectral(), y, SelectionPlan(mode="exhaustive"))
    assert res.trace_df.max() <= df_ceiling(30, None) + 1e-9


def test_all_criteria_run():
    sm, y = smooth_problem(2)
    spectral = sm.spectral()
    for crit in ("gcv", "aic", "aicc", "bic", "gmdl"):
        res = search_k_numeric(spectral, y, SelectionPlan(criterion=crit))
        assert np.isfinite(res.value)
        assert res.criterion == crit


def test_kmin_already_over_ceiling_breaks():
    sm, y = smooth_problem(5)
    with pytest.raises(BreakdownError, match="ceiling"):
        search_k_numeric(sm.spectral(), y, SelectionPlan(dfmaxi=1.0))


def test_numeric_refuses_wild_spectra(rng):
    # epanechnikov on tightly clustered points pushes eigenvalues negative
    from ibrsmooth import DesignMatrix, KernelSmootherSpec, build_kernel_smoother

    x = rng.uniform(0, 0.2, size=(25, 1))
    sm = build_kernel_smoother(
        DesignMatrix.from_array(x),
        KernelSmootherSpec(kind="epanechnikov", bandwidths=(1.0,)),
    )
    spectral = sm.spectral()
    assert not spectral.real_k_ok
    y = rng.normal(size=25)
    with pytest.raises(ValueError, match="exhaustive"):
        search_k_numeric(spectral, y, SelectionPlan())
    res = search_k_exhaustive(spectral, y, SelectionPlan(mode="exhaustive"))
    assert np.isfinite(res.value)


def test_trace_is_sorted_and_admissible():
    sm, y = smooth_problem(13)
    res = search_k_numeric(sm.spectral(), y, SelectionPlan())
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


def test_small_kmax_limits_the_search():
    sm, y = smooth_problem(17)
    spectral = sm.spectral()
    res = search_k_exhaustive(spectral, y, SelectionPlan(mode="exhaustive", kmax=25))
    assert res.trace_k.max() <= 25
    num = search_k_numeric(spectral, y, SelectionPlan(kmax=25))
    assert num.k <= 25.0


def test_result_df_rss_match_reported_k():
    sm, y = smooth_problem(19)
    from ibrsmooth import KPath

    spectral = sm.spectral()
    res = search_k_numeric(spectral, y, SelectionPlan())
    path = KPath(spectral, y)
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
