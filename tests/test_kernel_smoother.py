"""Product-kernel smoother: hand oracles, calibration, guard rails."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibrsmooth import (
    CalibrationError,
    DesignMatrix,
    KernelSmootherSpec,
    build_kernel_smoother,
    calibrate_bandwidth,
    calibrate_total_df,
)
from ibrsmooth import kernel_smoother
from ibrsmooth.kernels import kernel_values

from conftest import gaussian_smoother, random_design


# Two points at distance 1, gaussian, h = 1. The normalizing constant
# cancels, so row 0 of S is (1, e^-1/2) / (1 + e^-1/2).
ROW_TWO_POINTS = np.array(
    [1.0 / (1.0 + np.exp(-0.5)), np.exp(-0.5) / (1.0 + np.exp(-0.5))]
)


def test_two_point_row_oracle():
    sm = gaussian_smoother(np.array([0.0, 1.0]))
    assert np.allclose(sm.matrix[0], ROW_TWO_POINTS, atol=1e-12)
    assert np.allclose(sm.matrix[1], ROW_TWO_POINTS[::-1], atol=1e-12)


def test_matrix_row_sums_are_one(rng):
    design = random_design(rng, 23, 3)
    spec = KernelSmootherSpec(kind="gaussian", bandwidths=(0.7, 1.3, 0.4))
    sm = build_kernel_smoother(design, spec)
    assert np.allclose(sm.matrix.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(sm.matrix >= 0.0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=15),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(["gaussian", "triangle", "quartic"]),
)
def test_rows_always_stochastic(n, d, seed, kind):
    """Every row of the smoother is a probability vector when no row dies."""
    rng = np.random.default_rng(seed)
    # keep points inside one bandwidth of each other so compact kernels
    # cannot produce an all-zero row
    x = rng.uniform(0, 0.5, size=(n, d))
    sm = build_kernel_smoother(
        DesignMatrix.from_array(x), KernelSmootherSpec(kind=kind, bandwidths=(1.0,) * d)
    )
    s = sm.matrix
    assert np.all(s >= 0)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-10)


def test_initial_df_is_trace(rng):
    design = random_design(rng, 17, 2)
    sm = build_kernel_smoother(
        design, KernelSmootherSpec(kind="gaussian", bandwidths=(1.0, 2.0))
    )
    assert sm.initial_df == pytest.approx(np.trace(sm.matrix), abs=1e-12)


def test_evaluation_outside_support_is_an_error():
    # every row of the training matrix keeps its own point, so only new
    # points can fall outside the support of a compact kernel
    x = np.array([0.0, 0.1, 0.2])
    design = DesignMatrix.from_array(x)
    spec = KernelSmootherSpec(kind="uniform", bandwidths=(1.0,))
    sm = build_kernel_smoother(design, spec)
    assert np.all(sm.matrix.sum(axis=1) > 0)
    with pytest.raises(ValueError, match="support"):
        sm.evaluate(np.array([[5.0]]), np.ones(3))


def test_two_point_bandwidth_closed_form():
    """Distance-1 pair, per-variable df 1.5: trace = 2/(1 + e^{-1/(2h^2)})
    equals 1.5 exactly at h = 1/sqrt(2 ln 3)."""
    h = calibrate_bandwidth(np.array([0.0, 1.0]), "gaussian", 1.5)
    assert h == pytest.approx(1.0 / np.sqrt(2.0 * np.log(3.0)), rel=1e-10)


@pytest.mark.parametrize("kind", ["gaussian", "triangle", "quartic", "epanechnikov"])
@pytest.mark.parametrize("target", [1.1, 1.5, 3.0])
def test_calibration_hits_target_trace(rng, kind, target):
    x = rng.normal(size=40) * 3.0
    h = calibrate_bandwidth(x, kind, target)
    sm = build_kernel_smoother(
        DesignMatrix.from_array(x), KernelSmootherSpec(kind=kind, bandwidths=(h,))
    )
    assert sm.initial_df == pytest.approx(target, abs=1e-6)


# Bandwidths calibrated by the bracket-and-brentq search this library used
# before the Newton search; that search stopped within 1e-11 * column range,
# so the values are good to about 1e-11 relative.
PINNED_BANDWIDTHS = {
    1.1: (2.6630086023787514, 13.904979331893397),
    1.5: (1.1867452816530057, 6.209407897853852),
    3.0: (0.5548882816818484, 2.9719759980624416),
}
PINNED_TOTAL_DF_BANDWIDTHS = (0.8039311976477179, 4.197111627945372)


def _pinned_design():
    rng = np.random.default_rng(7)
    return rng.normal(size=(60, 2)) * np.array([1.0, 5.0])


@pytest.mark.parametrize("target", sorted(PINNED_BANDWIDTHS))
def test_gaussian_bandwidths_match_pinned_values(target):
    x = _pinned_design()
    hs = [calibrate_bandwidth(x[:, j], "gaussian", target) for j in range(2)]
    assert hs == pytest.approx(PINNED_BANDWIDTHS[target], rel=1e-10)


def test_total_df_bandwidths_match_pinned_values():
    hs = calibrate_total_df(_pinned_design(), "gaussian", 4.0)
    assert list(hs) == pytest.approx(PINNED_TOTAL_DF_BANDWIDTHS, rel=1e-10)


@pytest.mark.parametrize("target", [1.1, 1.5, 3.0])
def test_gaussian_calibration_needs_few_trace_evaluations(monkeypatch, target):
    """The Newton search needs a handful of trace evaluations per column
    where bracketing plus brentq needed over twenty. Each one is O(n p)
    through a Chebyshev factor, or an n x n exp on the exact form."""
    calls = []
    make_objective = kernel_smoother._trace_objective

    def counting_objective(*args):
        trace = make_objective(*args)

        def counted(c):
            calls.append(c)
            return trace(c)

        return counted

    monkeypatch.setattr(kernel_smoother, "_trace_objective", counting_objective)
    x = np.random.default_rng(5).normal(size=(200, 2)) * np.array([1.0, 30.0])
    for j in range(2):
        calls.clear()
        calibrate_bandwidth(x[:, j], "gaussian", target)
        assert 1 <= len(calls) <= 10


def _check_trace_slope(x, kind):
    trace = kernel_smoother._trace_objective(x, kind, x.std(axis=0, ddof=1))
    c, eps = 0.9, 1e-6
    _, slope = trace(c)
    numeric = (trace(c * np.exp(eps))[0] - trace(c * np.exp(-eps))[0]) / (2 * eps)
    assert slope < 0.0
    assert slope == pytest.approx(numeric, rel=1e-6)


@pytest.mark.parametrize("kind", ["gaussian", "triangle", "quartic"])
def test_trace_slope_matches_finite_difference(rng, kind):
    _check_trace_slope(rng.normal(size=(30, 2)) * np.array([1.0, 4.0]), kind)


@pytest.mark.parametrize("kind", ["gaussian", "triangle", "quartic"])
def test_one_column_trace_slope_matches_finite_difference(rng, kind):
    """One column at n = 200 takes the Gaussian trace through a Chebyshev factor."""
    _check_trace_slope(rng.normal(size=(200, 1)), kind)


def _dense_gaussian_trace(col, h):
    """Trace and d trace / d log h of a one-column Gaussian smoother from the
    full n x n kernel, the reference for the Chebyshev factor."""
    u2 = np.subtract.outer(col, col) ** 2 / (h * h)
    kmat = np.exp(-0.5 * u2)
    sums = kmat.sum(axis=1)
    slopes = (kmat * u2).sum(axis=1)
    return np.sum(1.0 / sums), -np.sum(slopes / sums**2)


def _record_factors(monkeypatch):
    """List the node counts of the Chebyshev factors built from now on."""
    built = []
    make = kernel_smoother._chebyshev_factor

    def recording(t, p):
        built.append(p)
        return make(t, p)

    monkeypatch.setattr(kernel_smoother, "_chebyshev_factor", recording)
    return built


@pytest.mark.parametrize("n", [330, 1500])
@pytest.mark.parametrize("dist", ["uniform", "normal", "lognormal"])
def test_chebyshev_factor_matches_exact_trace(monkeypatch, n, dist):
    """At the calibrated bandwidth of each target, the trace and slope of
    one column agree with the n x n kernel's to 1e-13 relative, whichever
    factor (or the exact form) the objective picked there. Up to df 5 the
    column spans at most about 16 bandwidths, and a factor is picked."""
    col = getattr(np.random.default_rng(n), dist)(size=n)
    built = _record_factors(monkeypatch)
    for target in (1.1, 2.0, 5.0, 10.0, 20.0):
        h = calibrate_bandwidth(col, "gaussian", target)
        built.clear()
        trace, slope = kernel_smoother._trace_objective(
            col[:, None], "gaussian", np.array([h])
        )(1.0)
        assert built or target > 5.0
        ref_trace, ref_slope = _dense_gaussian_trace(col, h)
        assert trace == pytest.approx(target, abs=1e-6)
        assert trace == pytest.approx(ref_trace, rel=1e-13)
        assert slope == pytest.approx(ref_slope, rel=1e-13)


def test_wide_lognormal_column_takes_the_exact_form(monkeypatch):
    """At df 20 the lognormal column's range is about 90 bandwidths; the node
    kernel's Chebyshev tail stays above 1e-15 at every p up to n / 4, so the
    root is found on the exact form, at the bandwidth the dense search gave."""
    col = np.random.default_rng(3).lognormal(size=1500)
    built = _record_factors(monkeypatch)
    h = calibrate_bandwidth(col, "gaussian", 20.0)
    assert h == pytest.approx(0.3132556508531832, rel=1e-12)
    built.clear()
    kernel_smoother._trace_objective(col[:, None], "gaussian", np.array([h]))(1.0)
    assert built == []


def test_gaussian_calibration_holds_no_n_by_n_array():
    n = 4000
    col = np.random.default_rng(4).uniform(size=n)
    tracemalloc.start()
    try:
        calibrate_bandwidth(col, "gaussian", 1.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_column_is_refused(bad):
    with pytest.raises(ValueError, match="x3 contains non-finite values"):
        calibrate_bandwidth(np.array([0.0, 1.0, bad, 2.0]), "gaussian", 1.5, name="x3")


def test_huge_column_calibrates_like_its_unit_copy(rng):
    """Gaps and spreads are measured in units of the column's range or
    magnitude, so a range of 1e300 neither overflows nor changes the
    bandwidth relative to the range, per variable or for a total df."""
    col = rng.uniform(size=50)
    h = calibrate_bandwidth(col, "gaussian", 1.5)
    assert calibrate_bandwidth(col * 1e300, "gaussian", 1.5) == pytest.approx(
        h * 1e300, rel=1e-12
    )
    with pytest.raises(ValueError, match="x1 overflows"):
        calibrate_bandwidth(np.array([-1e308, 0.0, 1e308]), "gaussian", 1.5, name="x1")
    x = rng.uniform(size=(50, 2))
    hs = calibrate_total_df(x, "gaussian", 3.0)
    big = calibrate_total_df(x * np.array([1e300, 1.0]), "gaussian", 3.0)
    assert list(big) == pytest.approx([hs[0] * 1e300, hs[1]], rel=1e-12)


def test_calibrated_product_smoother_trace(rng):
    """d independent calibrations give a product smoother whose matrix the
    per-variable traces were computed from."""
    design = random_design(rng, 30, 2, scale=5.0)
    hs = tuple(
        calibrate_bandwidth(design.x[:, j], "gaussian", 1.1) for j in range(2)
    )
    sm = build_kernel_smoother(design, KernelSmootherSpec(kind="gaussian", bandwidths=hs))
    assert np.isfinite(sm.initial_df)


def test_total_df_calibration(rng):
    design = random_design(rng, 35, 3, scale=2.0)
    target = 4.0
    hs = calibrate_total_df(design, "gaussian", target)
    sm = build_kernel_smoother(
        design, KernelSmootherSpec(kind="gaussian", bandwidths=tuple(hs))
    )
    assert sm.initial_df == pytest.approx(target, abs=1e-4)
    # one shared scale times the column spread
    stds = design.x.std(axis=0, ddof=1)
    ratios = np.asarray(hs) / stds
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_df_target_must_be_in_range():
    x = np.arange(5.0)
    with pytest.raises(ValueError, match="df target"):
        calibrate_bandwidth(x, "gaussian", 1.0)
    with pytest.raises(ValueError, match="df target"):
        calibrate_bandwidth(x, "gaussian", 5.0)


def test_constant_column_cannot_be_calibrated():
    with pytest.raises(CalibrationError, match="constant"):
        calibrate_bandwidth(np.ones(6), "gaussian", 1.5)


def test_uniform_kernel_unreachable_target_names_the_fix():
    # a clustered column makes the uniform-kernel trace jump discontinuously
    x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(CalibrationError, match="gaussian"):
        calibrate_bandwidth(x, "uniform", 1.5)


@pytest.mark.parametrize("kind", ["gaussian", "triangle", "quartic", "epanechnikov", "uniform"])
def test_product_kernel_matches_columnwise_product(rng, kind):
    """The in-place basis gives the same bits as multiplying freshly
    evaluated kernel columns into a matrix of ones."""
    x = rng.uniform(size=(25, 3))
    x_new = rng.uniform(size=(7, 3))
    h = (0.4, 0.7, 0.55)
    expected = np.ones((7, 25))
    for j in range(3):
        expected *= kernel_values((x_new[:, j, None] - x[None, :, j]) / h[j], kind)
    assert np.array_equal(kernel_smoother.product_kernel(x_new, x, kind, h), expected)


@pytest.mark.parametrize("kind", ["gaussian", "triangle"])
def test_blocked_prediction_matches_full_weights(rng, monkeypatch, kind):
    """Row blocks of 8 over 21 rows (8 + 8 + 5) give the full-matrix answer,
    for a coefficient vector and for an (n, 3) block of them."""
    monkeypatch.setattr(kernel_smoother, "_PREDICT_BLOCK_BYTES", 8 * 8 * 30)
    x = rng.uniform(size=(30, 2))
    x_new = rng.uniform(size=(21, 2))
    h = (0.6, 0.8)
    beta = rng.normal(size=30)
    w = kernel_smoother.product_kernel(x_new, x, kind, h)
    sums = w.sum(axis=1)
    got = kernel_smoother.kernel_predict(x_new, x, kind, h, beta)
    np.testing.assert_allclose(got, (w @ beta) / sums, rtol=1e-13, atol=0)
    assert kernel_smoother.kernel_predict(x_new[:0], x, kind, h, beta).shape == (0,)
    coefs = rng.normal(size=(30, 3))
    got = kernel_smoother.kernel_predict(x_new, x, kind, h, coefs)
    np.testing.assert_allclose(got, (w @ coefs) / sums[:, None], rtol=1e-13, atol=0)
    assert kernel_smoother.kernel_predict(x_new[:0], x, kind, h, coefs).shape == (0, 3)


def test_evaluate_at_training_rows_is_the_matrix(rng):
    design = random_design(rng, 20, 2)
    sm = build_kernel_smoother(
        design, KernelSmootherSpec(kind="gaussian", bandwidths=(0.8, 1.2))
    )
    for coef in (rng.normal(size=20), rng.normal(size=(20, 3))):
        got = sm.evaluate(design.x, coef)
        assert got.shape == coef.shape
        np.testing.assert_allclose(got, sm.matrix @ coef, rtol=1e-12, atol=1e-14)


def test_blocked_prediction_names_dead_rows_of_every_block(rng, monkeypatch):
    monkeypatch.setattr(kernel_smoother, "_PREDICT_BLOCK_BYTES", 8 * 8 * 10)
    x = rng.uniform(size=(10, 1))
    x_new = rng.uniform(size=(20, 1))
    x_new[[3, 17]] = 5.0
    with pytest.raises(ValueError, match=r"prediction rows \[3, 17\]"):
        kernel_smoother.kernel_predict(x_new, x, "triangle", (0.5,), np.ones(10))


def test_unreachable_target_cannot_be_bracketed():
    # two distinct values: the trace stays below 2 at every bandwidth
    x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(CalibrationError, match="bracket"):
        calibrate_bandwidth(x, "gaussian", 2.5)


def test_describe_mentions_kernel_and_df(rng):
    design = random_design(rng, 12, 1)
    sm = build_kernel_smoother(
        design, KernelSmootherSpec(kind="gaussian", bandwidths=(1.0,))
    )
    text = sm.describe()
    assert "gaussian" in text
    assert "df" in text


def test_bandwidths_must_be_positive():
    with pytest.raises(ValueError, match="bandwidth"):
        KernelSmootherSpec(kind="gaussian", bandwidths=(0.0,))
