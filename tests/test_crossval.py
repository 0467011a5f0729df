"""Prediction-loss selection of the iteration count."""

import numpy as np
import pytest

from ibrsmooth import (
    CvPlan,
    DesignMatrix,
    KernelSmootherSpec,
    SelectionPlan,
    SmootherConfig,
    build_kernel_smoother,
    build_smoother,
    fit,
    make_splits,
    search_k_cv,
)
from ibrsmooth.crossval import _FoldScorer, _pooled_loss


def problem(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 4, size=(n, 1))
    y = np.sin(2 * x[:, 0]) + rng.normal(0, 0.25, n)
    return x, y


def factory(kind="gaussian", h=1.0):
    def build(x_sub):
        design = DesignMatrix.from_array(x_sub)
        return build_kernel_smoother(
            design, KernelSmootherSpec(kind=kind, bandwidths=(h,) * design.d)
        )

    return build


def test_finds_a_reasonable_k():
    x, y = problem()
    plan = SelectionPlan(criterion="rmse", cv=CvPlan(kfold=5, type="consecutive"))
    res = search_k_cv(x, y, factory(), plan)
    assert res.criterion == "rmse"
    assert res.mode == "numeric"
    assert 1.0 <= res.k <= plan.kmax
    assert np.isfinite(res.value)


def test_deterministic_given_seed():
    x, y = problem(3)
    plan = lambda: SelectionPlan(criterion="rmse", cv=CvPlan(npermut=5, seed=11))
    a = search_k_cv(x, y, factory(), plan())
    b = search_k_cv(x, y, factory(), plan())
    assert a.k == b.k
    assert a.value == b.value


def test_numeric_close_to_exhaustive():
    x, y = problem(5, n=40)
    cv = CvPlan(kfold=4, type="interleaved")
    num = search_k_cv(
        x, y, factory(), SelectionPlan(criterion="rmse", cv=cv, kmax=500)
    )
    exh = search_k_cv(
        x, y, factory(),
        SelectionPlan(criterion="rmse", mode="exhaustive", cv=cv, kmax=500),
    )
    assert exh.mode == "exhaustive"
    assert num.value <= exh.value + 1e-6


def test_absolute_loss_runs():
    x, y = problem(7, n=40)
    plan = SelectionPlan(
        criterion="map", cv=CvPlan(kfold=4, type="consecutive")
    )
    res = search_k_cv(x, y, factory(), plan)
    assert res.criterion == "map"
    assert np.isfinite(res.value)


def test_wild_spectrum_falls_back_to_integers():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 0.4, size=(30, 1))
    y = rng.normal(size=30)
    plan = SelectionPlan(
        criterion="rmse", kmax=200, cv=CvPlan(kfold=3, type="consecutive")
    )
    with pytest.warns(UserWarning, match="exhaustive"):
        res = search_k_cv(x, y, factory(kind="epanechnikov", h=1.0), plan)
    assert res.mode == "exhaustive"
    assert res.k == round(res.k)


def test_bad_fold_calibration_is_reported():
    x, y = problem(9, n=30)

    def broken(x_sub):
        raise RuntimeError("no bandwidth here")

    plan = SelectionPlan(criterion="rmse", cv=CvPlan(kfold=3, type="consecutive"))
    with pytest.raises(RuntimeError, match="training fold"):
        search_k_cv(x, y, broken, plan)


def test_a_vector_is_a_one_column_design():
    """As ``fit`` reads it: 60 points, not one row of 60."""
    x, y = problem(19, n=60)
    plan = SelectionPlan(criterion="rmse", cv=CvPlan(kfold=4))
    res = search_k_cv(x[:, 0], y, factory(), plan)
    assert res.k == search_k_cv(x, y, factory(), plan).k
    assert res.k == fit(x[:, 0], y, smoother=SmootherConfig(bandwidths=(1.0,)), plan=plan).k


def test_a_design_whose_rows_miss_the_responses_is_refused():
    x, y = problem(23, n=100)
    plan = SelectionPlan(criterion="rmse", cv=CvPlan(kfold=4))
    with pytest.raises(ValueError, match="y has 60 entries for 100 rows"):
        search_k_cv(x, y[:60], factory(), plan)


def test_default_plan_is_data_splitting():
    x, y = problem(13, n=50)
    res = search_k_cv(x, y, factory(), SelectionPlan(criterion="rmse"))
    assert np.isfinite(res.value)


@pytest.mark.parametrize("loss", ["rmse", "map"])
def test_exhaustive_losses_match_pointwise_fold_errors(loss):
    x, y = problem(11, n=40)
    cv = CvPlan(kfold=4, type="interleaved")
    plan = SelectionPlan(criterion=loss, mode="exhaustive", cv=cv, kmax=300)
    build = factory(h=0.5)
    scorers = [
        _FoldScorer(build(x[train]), y[train], x[test], y[test])
        for train, test in make_splits(y.size, cv)
    ]
    res = search_k_cv(x, y, build, plan)
    assert res.mode == "exhaustive"
    assert res.trace_k.tolist() == list(range(1, 301))
    for k, value in zip(res.trace_k, res.trace_value):
        errors = np.concatenate(
            [s.projector @ (s.kpath.batch_coef_factors([k])[0] * s.kpath.z) - s.y_test for s in scorers]
        )
        assert value == pytest.approx(_pooled_loss(errors, loss), rel=1e-12)
    assert res.value == res.trace_value.min()
    assert res.k == res.trace_k[np.argmin(res.trace_value)]


def test_spectral_criterion_is_refused():
    x, y = problem(15, n=30)
    with pytest.raises(ValueError, match="cross-validation needs a loss"):
        search_k_cv(x, y, factory(), SelectionPlan(criterion="gcv"))


def test_fit_scores_folds_by_the_plan_criterion():
    x, y = problem(17, n=60)
    res = fit(x, y, plan=SelectionPlan(criterion="map"))
    explicit = search_k_cv(
        x, y, lambda x_sub: build_smoother(x_sub, SmootherConfig()),
        SelectionPlan(criterion="map"),
    )
    assert res.criterion == "map"
    assert res.k == explicit.k
    assert res.selection.value == explicit.value


def test_integer_fallback_refuses_an_empty_integer_range():
    # epanechnikov folds at df 3 leave [0, 1], so CV sweeps integers, and
    # [1.5, 1.9] holds none
    x, y = problem(0, n=40)
    config = SmootherConfig(kernel="epanechnikov", df=3)
    plan = SelectionPlan(criterion="rmse", kmin=1.5, kmax=1.9, cv=CvPlan(kfold=4))
    with pytest.warns(UserWarning, match="exhaustive"):
        with pytest.raises(ValueError, match=r"kmin=1.5, kmax=1.9"):
            fit(x, y, smoother=config, plan=plan)
