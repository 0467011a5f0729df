"""Thin-plate spline smoother: radial closed forms, null space, calibration."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import qr

from ibrsmooth import (
    BaseSmoother,
    CvPlan,
    DesignMatrix,
    SelectionPlan,
    SmootherConfig,
    SpectralForm,
    TpsPredictor,
    TpsSmoother,
    TpsSpec,
    build_calibrated_tps,
    default_tps_order,
    fit,
    load_model,
    save_model,
    tps_null_dim,
)
from ibrsmooth.selection import _K_TOL
from ibrsmooth import smoothers
from ibrsmooth.smoothers import _squared_distances
from ibrsmooth.tps import _TpsCore, _poly_block

from conftest import radial_block, random_design


def grid_design(n_axis=10):
    axis = (np.arange(n_axis) + 0.5) / n_axis
    x = np.column_stack([np.tile(axis, n_axis), np.repeat(axis, n_axis)])
    return DesignMatrix.from_array(x)


def test_default_orders():
    assert default_tps_order(1) == 2
    assert default_tps_order(2) == 2
    assert default_tps_order(3) == 2
    assert default_tps_order(4) == 3
    assert default_tps_order(5) == 3
    assert default_tps_order(6) == 4


def test_null_dims():
    # polynomials of total degree < order
    assert tps_null_dim(2, 1) == 2
    assert tps_null_dim(2, 2) == 3
    assert tps_null_dim(2, 3) == 4
    assert tps_null_dim(3, 2) == 6


def at_squared_distances(s, d, order=2):
    """eta at squared distances s, between the origin and points on the
    first axis (s holds exact squares, so the points meet them exactly)."""
    b = np.zeros((len(s), d))
    b[:, 0] = np.sqrt(s)
    return radial_block(np.zeros((1, d)), b, order)[0]


def test_radial_closed_forms():
    s = np.array([0.25, 1.0, 4.0])
    r = np.sqrt(s)
    # d = 1, order 2: r^3 / 12
    assert np.allclose(at_squared_distances(s, 1), r**3 / 12.0, rtol=1e-12)
    # d = 2, order 2: r^2 log r / (8 pi)
    assert np.allclose(
        at_squared_distances(s, 2), r**2 * np.log(r) / (8.0 * np.pi), rtol=1e-12
    )
    # d = 3, order 2: -r / (8 pi)
    assert np.allclose(at_squared_distances(s, 3), -r / (8.0 * np.pi), rtol=1e-12)
    # d = 2, order 3: -r^4 log r / (128 pi), a power of r^2 above one
    assert np.allclose(
        at_squared_distances(s, 2, 3), -(r**4) * np.log(r) / (128.0 * np.pi), rtol=1e-12
    )


def test_radial_zero_distance_is_zero():
    out = at_squared_distances(np.array([0.0, 1.0]), 2)
    assert out[0] == 0.0
    assert np.isfinite(out).all()


def test_zero_penalty_interpolates(rng):
    design = random_design(rng, 12, 2)
    sm = TpsSmoother(design, TpsSpec(order=2, lam=0.0))
    assert np.allclose(sm.matrix, np.eye(12), atol=1e-8)
    assert sm.initial_df == pytest.approx(12.0, abs=1e-8)


def test_grid_trace_calibration():
    """Multiplier 1.1 on the 10x10 unit-square grid: trace 1.1 * 3 = 3.3."""
    design = grid_design(10)
    sm = build_calibrated_tps(design, df_multiplier=1.1)
    assert sm.initial_df == pytest.approx(3.3, abs=1e-4)


def test_calibrated_lambda_reproducible():
    design = grid_design(6)
    spec = build_calibrated_tps(design, df_multiplier=1.2).spec
    sm = TpsSmoother(design, spec)
    assert sm.initial_df == pytest.approx(1.2 * 3, abs=1e-4)


@pytest.mark.parametrize("d", [1, 2])
def test_polynomials_pass_through_unchanged(rng, d):
    """Degree < order polynomials are in the penalty null space, so one
    smoothing pass reproduces them exactly, at any penalty."""
    design = random_design(rng, 25, d, scale=2.0)
    sm = build_calibrated_tps(design, df_multiplier=1.3)
    polys = [np.ones(25), design.x[:, 0]]
    if d == 2:
        polys.append(design.x[:, 1])
    for p in polys:
        assert np.allclose(sm.matrix @ p, p, atol=1e-8)


def test_polynomial_reproduction_at_new_points(rng):
    design = random_design(rng, 20, 2)
    sm = build_calibrated_tps(design, df_multiplier=1.5)
    x_new = rng.normal(size=(7, 2))
    p_train = 1.0 + 2.0 * design.x[:, 0] - 0.5 * design.x[:, 1]
    p_new = 1.0 + 2.0 * x_new[:, 0] - 0.5 * x_new[:, 1]
    assert np.allclose(sm.predictor(p_train).predict(x_new), p_new, atol=1e-8)


def test_spectrum_has_exactly_null_dim_unit_eigenvalues(rng):
    design = random_design(rng, 18, 2)
    sm = build_calibrated_tps(design, df_multiplier=1.4)
    lam = sm.spectral().lam
    m = tps_null_dim(2, 2)
    assert np.sum(np.isclose(lam, 1.0, atol=1e-10)) == m
    assert lam.min() >= -1e-10
    assert lam.max() <= 1.0 + 1e-10


def test_spectral_reconstructs_matrix(rng):
    design = random_design(rng, 15, 2)
    sm = build_calibrated_tps(design, df_multiplier=1.2)
    assert np.allclose(sm.spectral().reconstruct(), sm.matrix, atol=1e-10)


def test_trace_identity_matches_initial_df(rng):
    design = random_design(rng, 22, 2)
    spec = build_calibrated_tps(design, df_multiplier=1.6).spec
    sm = TpsSmoother(design, spec)
    assert sm.core.trace_and_slope(spec.lam)[0] == pytest.approx(sm.initial_df, abs=1e-8)


def test_trace_slope_matches_finite_difference(rng):
    design = random_design(rng, 25, 2)
    sm = build_calibrated_tps(design, df_multiplier=1.5)
    lam, eps = sm.spec.lam, 1e-6
    _, slope = sm.core.trace_and_slope(lam)
    up = sm.core.trace_and_slope(lam * np.exp(eps))[0]
    down = sm.core.trace_and_slope(lam * np.exp(-eps))[0]
    assert slope < 0.0
    assert slope == pytest.approx((up - down) / (2 * eps), rel=1e-6)


# Penalties calibrated by the bracket-and-brentq search this library used
# before the Newton search, as (seed, n, d, df_multiplier, lam). That search
# stopped within 1e-5 * median(theta) / n of the root, which is coarser than
# 1e-10 relative for some designs, so lam is pinned to that tolerance and
# the trace the new search reaches is pinned to the target.
PINNED_PENALTIES = [
    (11, 40, 2, 1.1, 0.01551650646906567),
    (11, 40, 2, 2.0, 0.0009478003406283021),
    (12, 30, 3, 1.1, 0.0264373857717119),
]


@pytest.mark.parametrize("seed,n,d,mult,pinned", PINNED_PENALTIES)
def test_penalty_matches_pinned_value(seed, n, d, mult, pinned):
    x = np.random.default_rng(seed).uniform(size=(n, d))
    sm = build_calibrated_tps(x, df_multiplier=mult)
    theta = sm.core.theta
    assert abs(sm.spec.lam - pinned) <= 1e-5 * np.median(theta[theta > 0]) / n
    assert sm.initial_df == pytest.approx(mult * sm.core.m, rel=1e-12)


@pytest.mark.parametrize("mult", [1.0, 0.5, np.nan])
def test_multiplier_at_or_below_one_is_refused_before_the_geometry(mult, monkeypatch):
    """NaN fails the check too, where it once built the O(n^3) geometry and
    ran a whole Newton walk to a trace of nan."""
    from ibrsmooth import tps

    def no_core(*args):
        raise AssertionError("geometry built")

    monkeypatch.setattr(tps, "_TpsCore", no_core)
    with pytest.raises(ValueError, match="df multiplier must exceed 1"):
        build_calibrated_tps(np.random.default_rng(0).uniform(size=(20, 2)), df_multiplier=mult)


def test_duplicate_rows_are_reported():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.5]])
    with pytest.raises(ValueError, match="[Dd]uplicate") as err:
        TpsSmoother(DesignMatrix.from_array(x), TpsSpec(order=2, lam=1e-4))
    assert "rows 0 and 2" in str(err.value)


def test_radial_block_filled_in_row_blocks(monkeypatch):
    """E filled 8 rows at a time has the bits of one block, and a duplicate
    pair met in a later block is named by its rows."""
    x = np.random.default_rng(7).uniform(size=(30, 2))
    whole = _TpsCore(DesignMatrix.from_array(x), 2)
    monkeypatch.setattr(smoothers, "_PREDICT_BLOCK_BYTES", 8 * 8 * 30)
    assert np.array_equal(_TpsCore(DesignMatrix.from_array(x), 2).theta, whole.theta)
    x[19] = x[11]
    with pytest.raises(ValueError, match="rows 11 and 19"):
        _TpsCore(DesignMatrix.from_array(x), 2)


def test_collinear_design_is_rejected():
    rng = np.random.default_rng(0)
    x1 = rng.normal(size=10)
    x = np.column_stack([x1, 2.0 * x1])  # polynomial block loses rank
    with pytest.raises(ValueError, match="rank|collinear|degenerate"):
        TpsSmoother(DesignMatrix.from_array(x), TpsSpec(order=2, lam=1e-4))


def test_order_must_cover_dimension():
    with pytest.raises(ValueError):
        TpsSpec(order=2, lam=0.1).null_dim(4)  # needs 2*order > d


def test_predictions_match_weight_path(rng):
    design = random_design(rng, 16, 2)
    sm = build_calibrated_tps(design, df_multiplier=1.3)
    beta = rng.normal(size=16)
    delta, poly_coef = sm.prediction_parts(beta)
    predictor = TpsPredictor(
        x_train=design.x, order=2, powers=sm.core.powers, delta=delta, poly_coef=poly_coef
    )
    x_new = rng.normal(size=(5, 2))
    # the weight path: W(x_new) U, from the fold projector's reflector
    # passes, times U' beta (U is orthogonal)
    weights = sm.evaluate_basis(x_new) @ sm.core.t_dot(beta)
    assert np.allclose(sm.predictor(beta).predict(x_new), weights, atol=1e-10)
    assert np.allclose(predictor.predict(x_new), weights, atol=1e-10)


def test_evaluate_reads_a_vector_as_points_of_a_one_column_design(rng):
    """A predictor of the base smoother reads x[:3] as three points, not one
    row of three, as the fit's ``predict`` does."""
    x = rng.uniform(size=30)
    result = fit(x, np.sin(6 * x) + rng.normal(0, 0.1, 30), smoother=SmootherConfig(family="tps"))
    predictor = result.base.predictor(result.beta)
    got = predictor.predict(x[:3])
    assert got.shape == (3,)
    np.testing.assert_array_equal(got, predictor.predict(x[:3, None]))
    np.testing.assert_allclose(got, result.predict(x[:3]), rtol=1e-10)
    # at training rows, the smoothing matrix's rows
    np.testing.assert_allclose(got, (result.base.matrix @ result.beta)[:3], rtol=1e-10)
    with pytest.raises(ValueError, match="row 1 has non-finite"):
        predictor.predict(np.array([0.5, np.nan]))


def test_evaluate_at_training_rows_is_the_matrix(rng):
    design = random_design(rng, 20, 2)
    sm = build_calibrated_tps(design, df_multiplier=1.3)
    for coef in (rng.normal(size=20), rng.normal(size=(20, 3))):
        got = sm.predictor(coef).predict(design.x)
        assert got.shape == coef.shape
        np.testing.assert_allclose(got, sm.matrix @ coef, rtol=0, atol=1e-10)


def test_describe_mentions_family_and_df(rng):
    design = random_design(rng, 14, 2)
    sm = build_calibrated_tps(design, df_multiplier=1.1)
    text = sm.describe()
    assert "thin plate spline" in text
    assert "df" in text


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("rows", [0, 7])
def test_distances_match_broadcast_reference(rng, d, rows):
    a = rng.normal(size=(rows, d))
    b = rng.normal(size=(11, d))
    ref = ((a[:, None] - b[None]) ** 2).sum(2)
    # the second point set goes in transposed, one contiguous row per column
    got = _squared_distances(a, np.ascontiguousarray(b.T), np.empty((rows, 11)), np.empty((rows, 11)))
    assert got.shape == (rows, 11)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("columns", [None, 3])
def test_blocked_spline_prediction_matches_one_block(rng, monkeypatch, columns):
    """Row blocks of 8 over 21 rows (8 + 8 + 5) give the answer of one
    product over the whole radial block, for a coefficient vector and for
    an (n, 3) block of them."""
    monkeypatch.setattr(smoothers, "_PREDICT_BLOCK_BYTES", 8 * 8 * 30)
    sm = build_calibrated_tps(rng.uniform(size=(30, 2)), df_multiplier=1.3)
    x, powers = sm.design.x, sm.core.powers
    x_new = rng.uniform(size=(21, 2))
    shape = (30,) if columns is None else (30, columns)
    a, b = rng.normal(size=shape), rng.normal(size=(sm.core.m,) + shape[1:])
    predictor = TpsPredictor(x, 2, powers, a, b)
    got = predictor.predict(x_new)
    want = radial_block(x_new, x, 2) @ a + _poly_block(x_new, powers) @ b
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert predictor.predict(x_new[:0]).shape == (0,) + shape[1:]


@pytest.mark.parametrize("seed,n,d", [(3, 40, 2), (4, 60, 3)])
def test_householder_core_matches_full_q(seed, n, d):
    """The reflector-based geometry agrees with one built from the full Q."""
    x = np.random.default_rng(seed).uniform(size=(n, d))
    sm = build_calibrated_tps(x, df_multiplier=1.3)
    core, m = sm.core, sm.core.m
    q, _ = qr(_poly_block(x, core.powers), mode="full")
    q1, q2 = q[:, :m], q[:, m:]
    e = radial_block(x, x, core.order)
    b = q2.T @ e @ q2
    theta, v = np.linalg.eigh((b + b.T) / 2.0)
    theta, g2 = np.maximum(theta[::-1], 0.0), q2 @ v[:, ::-1]

    u = core.dense()
    np.testing.assert_allclose(u[:, :m], q1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(core.theta, theta, rtol=0, atol=1e-12 * theta.max())
    sign = np.sign(np.sum(u[:, m:] * g2, axis=0))
    np.testing.assert_allclose(u[:, m:] * sign, g2, rtol=0, atol=1e-10)
    ratio = theta / (theta + n * sm.spec.lam)
    ref = q1 @ q1.T + (g2 * ratio) @ g2.T
    assert np.abs(sm.matrix - ref).max() <= 1e-12 * np.abs(ref).max()


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_core_memory_holds_no_eigenvector_matrix():
    """No n x n Q, eigenvector block or radial block: the build peaks at
    three n x n arrays (the full-Q route took 7) and keeps two (n - m)-square
    blocks, the tridiagonal reflectors and eigenvectors."""
    n = 600
    design = DesignMatrix.from_array(np.random.default_rng(0).uniform(size=(n, 2)))
    tracemalloc.start()
    try:
        core = _TpsCore(design, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * n * n
    square = {
        name: _root(a).shape
        for name, val in vars(core).items()
        for a in (val if isinstance(val, tuple) else (val,))
        if isinstance(a, np.ndarray) and _root(a).ndim == 2 and min(_root(a).shape) > core.m
    }
    m = core.m
    assert square == {"_tri": (n - m - 1, n - m - 1), "_w": (n - m, n - m)}


def test_cross_validated_fit_matches_the_dense_route(tmp_path, monkeypatch):
    """4-fold CV on the factored basis picks the k that dense eigenvectors
    pick, and its predictions survive a save and load bit for bit."""
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(120, 2))
    y = np.sin(4 * x[:, 0]) + np.cos(3 * x[:, 1]) + rng.normal(0, 0.1, 120)
    config = SmootherConfig(family="tps", df=1.1)
    plan = SelectionPlan(criterion="rmse", cv=CvPlan(kfold=4, seed=5))
    result = fit(x, y, smoother=config, plan=plan)

    factored = TpsSmoother.spectral

    def dense_route(self):
        form = factored(self)
        return SpectralForm(d_half=form.d_half, u=form.dense_u(), lam=form.lam)

    # dense eigenvectors on the path, and fold projectors W(x_test) U formed
    # by the generic evaluate of the dense U
    with monkeypatch.context() as patch:
        patch.setattr(TpsSmoother, "spectral", dense_route)
        patch.setattr(TpsSmoother, "evaluate_basis", BaseSmoother.evaluate_basis)
        dense = fit(x, y, smoother=config, plan=plan)
    assert abs(result.k - dense.k) <= _K_TOL * max(result.k, dense.k)

    path = tmp_path / "model.json"
    save_model(result, path)
    x_new = rng.uniform(size=(30, 2))
    assert np.array_equal(load_model(path).predict(x_new), result.predict(x_new))
