"""End-to-end fit(): orchestration, diagnostics, prediction."""

import warnings

import numpy as np
import pytest

from ibrsmooth import (
    CvPlan,
    DesignMatrix,
    IterationDomainError,
    SelectionPlan,
    SmootherConfig,
    build_smoother,
    fit,
    forward_select,
    search_k_cv,
)


def sine_problem(seed=0, n=50):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 4, size=(n, 1))
    y = np.sin(2 * x[:, 0]) + rng.normal(0, 0.2, n)
    return x, y


def test_default_pipeline_fits():
    x, y = sine_problem()
    result = fit(x, y)
    assert result.n == 50
    assert result.selection_mode == "numeric"
    assert result.criterion == "gcv"
    assert result.final_df > result.initial_df
    assert result.rss > 0
    assert np.isfinite(result.sigma)
    assert np.allclose(result.residuals, y - result.fitted, atol=1e-12)


def test_fitted_values_equal_train_predictions():
    """The collapsed predictor must reproduce the in-sample fit."""
    x, y = sine_problem(1)
    for config in (SmootherConfig(), SmootherConfig(family="tps")):
        result = fit(x, y, smoother=config)
        assert np.allclose(result.predict(x), result.fitted, atol=1e-8)


def test_fixed_k():
    x, y = sine_problem(2)
    result = fit(x, y, plan=SelectionPlan(mode="fixed", fixed_k=7))
    assert result.k == 7.0
    assert result.selection_mode == "fixed"
    assert np.isnan(result.criterion_value)


def test_sigma_definition():
    x, y = sine_problem(3)
    result = fit(x, y, plan=SelectionPlan(mode="fixed", fixed_k=5))
    assert result.sigma == pytest.approx(
        np.sqrt(result.rss / (result.n - result.final_df))
    )
    assert result.residual_df == pytest.approx(result.n - result.final_df)


def test_more_iterations_fit_tighter():
    x, y = sine_problem(4)
    few = fit(x, y, plan=SelectionPlan(mode="fixed", fixed_k=2))
    many = fit(x, y, plan=SelectionPlan(mode="fixed", fixed_k=50))
    assert many.rss < few.rss
    assert many.final_df > few.final_df


def test_prebuilt_smoother_accepted():
    x, y = sine_problem(5)
    base = build_smoother(x, SmootherConfig(df=1.2))
    result = fit(x, y, smoother=base)
    assert result.base is base


def test_prebuilt_smoother_refused_for_cv():
    x, y = sine_problem(6)
    base = build_smoother(x, SmootherConfig())
    plan = SelectionPlan(criterion="rmse", cv=CvPlan(kfold=5, type="consecutive"))
    with pytest.raises(ValueError, match="SmootherConfig"):
        fit(x, y, smoother=base, plan=plan)


def test_cv_selection_through_fit():
    x, y = sine_problem(7)
    plan = SelectionPlan(criterion="rmse", cv=CvPlan(kfold=5, type="consecutive"))
    result = fit(x, y, plan=plan)
    assert result.criterion == "rmse"
    assert result.k >= 1.0


def test_nonfinite_response_rejected():
    x, y = sine_problem(8)
    y[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fit(x, y)


def test_length_mismatch_rejected():
    x, y = sine_problem(9)
    with pytest.raises(ValueError, match="entries"):
        fit(x, y[:-1])


_CV_PLAN = SelectionPlan(criterion="rmse", cv=CvPlan(kfold=4))
_ENTRY_POINTS = {
    "fit": fit,
    "search_k_cv": lambda x, y: search_k_cv(
        x, y, lambda x_sub: build_smoother(x_sub, SmootherConfig()), _CV_PLAN
    ),
    "forward_select": forward_select,
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bend, message",
    [
        (lambda y: y[:60], "y has 60 entries for 100 rows"),
        (lambda y: np.where(np.arange(y.size) == 3, np.nan, y), "y contains non-finite values"),
        (lambda y: np.full_like(y, 2.5), "y is constant (2.5); there is nothing to smooth"),
    ],
    ids=["60 of 100", "nan", "constant"],
)
def test_every_entry_point_refuses_a_malformed_pair_alike(entry, bend, message):
    """fit, search_k_cv and forward_select read (x, y) in one place: each
    raises the same ValueError, before any fit and with no warning."""
    rng = np.random.default_rng(40)
    x = rng.uniform(size=(100, 3))
    y = np.sin(6 * x[:, 0]) + rng.normal(0, 0.1, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            _ENTRY_POINTS[entry](x, bend(y))
    assert str(caught.value) == message


def test_trace_is_thinned():
    x, y = sine_problem(10)
    result = fit(x, y, plan=SelectionPlan(mode="exhaustive", kmax=3000))
    assert result.trace_k.size <= 512
    assert result.trace_k.size == result.trace_value.size


def test_wild_kernel_falls_back_to_exhaustive():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 0.4, size=(30, 1))
    y = np.sin(6 * x[:, 0]) + rng.normal(0, 0.2, 30)
    config = SmootherConfig(kernel="e", bandwidths=(1.0,))
    with pytest.warns(UserWarning, match="exhaustive"):
        result = fit(x, y, smoother=config)
    assert result.selection_mode == "exhaustive"
    assert result.k == round(result.k)


def test_fractional_fixed_k_needs_clean_spectrum(rng):
    # the wild epanechnikov design of the numeric-search refusal test
    x = rng.uniform(0, 0.2, size=(25, 1))
    config = SmootherConfig(kernel="e", bandwidths=(1.0,))
    y = rng.normal(size=25)
    assert not build_smoother(x, config).spectral().real_k_ok
    with pytest.raises(IterationDomainError):
        fit(x, y, smoother=config, plan=SelectionPlan(mode="fixed", fixed_k=2.5))
    result = fit(x, y, smoother=config, plan=SelectionPlan(mode="fixed", fixed_k=3))
    assert result.k == 3.0
    assert np.isfinite(result.fitted).all()


def test_column_names_flow_through():
    x, y = sine_problem(13)
    x2 = np.column_stack([x, x**2])
    result = fit(x2, y, names=["pos", "pos_sq"])
    assert result.design.names == ["pos", "pos_sq"]


def test_a_design_passes_through_and_keeps_its_names():
    x, y = sine_problem(14)
    design = DesignMatrix.from_array(x, names=["pos"])
    assert DesignMatrix.from_array(design) is design
    assert fit(design, y).design is design
    with pytest.raises(ValueError, match="names"):
        fit(design, y, names=["other"])


def test_writing_into_the_callers_array_leaves_the_fit_alone():
    """The design holds its own copy of x: after the caller overwrites x, the
    base smoother, its matrix and a refit from the design still see the
    rows the fit was built on."""
    rng = np.random.default_rng(16)
    x = rng.uniform(size=(40, 2))
    y = np.sin(6 * x[:, 0]) + x[:, 1] + rng.normal(0, 0.1, 40)
    result = fit(x, y)
    assert not np.shares_memory(result.design.x, x)
    assert not np.shares_memory(result.base.design.x, x)
    rows, matrix = x[:5].copy(), result.base.matrix.copy()
    values = result.base.predictor(result.beta).predict(rows)
    x[:] = rng.uniform(size=x.shape)
    assert np.array_equal(result.base.predictor(result.beta).predict(rows), values)
    assert np.array_equal(result.base.matrix, matrix)
    assert fit(result.design, y).k == result.k


@pytest.mark.parametrize("family", ["kernel", "tps"])
def test_fit_predictor_is_its_smoothers_predictor(family):
    """fit keeps base.predictor(beta): one built afresh predicts the same
    bits, on a batch that a Gaussian fit answers from its tables and on a
    small one that it answers directly."""
    rng = np.random.default_rng(15)
    n = 1100 if family == "kernel" else 200
    x = rng.uniform(size=(n, 2))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, n)
    result = fit(x, y, smoother=SmootherConfig(family=family))
    again = result.base.predictor(result.beta)
    assert type(again) is type(result.predictor)
    for x_new in (rng.uniform(0.1, 0.9, size=(400, 2)), x[:7]):
        assert np.array_equal(again.predict(x_new), result.predict(x_new))
    if family == "kernel":
        assert "table" in vars(again._tables)


def test_a_spline_with_a_given_lambda_keeps_it():
    """SmootherConfig.lam builds the spline at that smoothing parameter, with
    no df calibration."""
    rng = np.random.default_rng(16)
    x = rng.uniform(size=(60, 2))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, 60)
    result = fit(x, y, smoother=SmootherConfig(family="tps", lam=0.0123))
    assert result.base.spec.lam == 0.0123
    assert np.isfinite(result.k) and np.isfinite(result.predict(x)).all()


def test_a_total_df_target_sets_the_base_df():
    """dftotal=True tunes one common bandwidth factor until the base
    smoother's trace hits df."""
    rng = np.random.default_rng(17)
    x = rng.uniform(size=(150, 2))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, 150)
    result = fit(x, y, smoother=SmootherConfig(df=2.5, dftotal=True))
    assert result.initial_df == pytest.approx(2.5, abs=1e-4)
    per_column = fit(x, y, smoother=SmootherConfig(df=2.5))
    assert abs(per_column.initial_df - 2.5) > 1.0


def test_smoother_config_validation():
    with pytest.raises(ValueError, match="family"):
        SmootherConfig(family="spline")
    assert SmootherConfig(family="k").family == "kernel"
    assert SmootherConfig(kernel="g").kernel == "gaussian"


@pytest.mark.parametrize(
    "fields, name",
    [
        (dict(df="2"), "df"),
        (dict(df=(1.1, 1.2)), "df"),
        (dict(df=(1.1, 1.2), dftotal=True), "df"),
        (dict(family="tps", order=1.5), "order"),
        (dict(bandwidths=0.3), "bandwidths"),
        (dict(bandwidths=("a", "b")), "bandwidths"),
        (dict(family="tps", lam="0.1"), "lam"),
        (dict(family="tps", lam=(0.1,)), "lam"),
    ],
)
def test_smoother_config_refuses_a_field_of_the_wrong_type(fields, name):
    """Refused when the config is made, with one ValueError naming the
    field, not with a TypeError deep in calibration. A whole float order
    and an array of bandwidths are taken."""
    with pytest.raises(ValueError, match=rf"^SmootherConfig\.{name} must be "):
        SmootherConfig(**fields)
    assert SmootherConfig(family="tps", order=3.0).order == 3
    assert SmootherConfig(bandwidths=np.array([0.4, 0.5])).bandwidths == (0.4, 0.5)


@pytest.mark.parametrize(
    "fields, name",
    [
        (dict(family="tps", bandwidths=(0.5,)), "bandwidths"),
        (dict(family="tps", dftotal=True), "dftotal"),
        (dict(lam=0.1), "lam"),
        (dict(order=2), "order"),
        (dict(bandwidths=(0.5,), dftotal=True), "dftotal"),
    ],
)
def test_smoother_config_refuses_a_field_its_family_never_reads(fields, name):
    """A fit would drop such a field silently (with explicit bandwidths,
    the df target too). A spline still takes a kernel letter: the CLI
    always passes one."""
    with pytest.raises(ValueError, match=rf"^SmootherConfig\.{name} = .* is not read "):
        SmootherConfig(**fields)
    assert SmootherConfig(family="tps", kernel="q").family == "tps"
