"""The thin-plate spline eigenbasis held as reflectors plus tridiagonal
eigenvectors: U = Q blockdiag(I_m, Q_t W), never formed by the fit."""

import numpy as np
import pytest

from ibrsmooth import KPath, build_calibrated_tps, iterate_fitted_recursive
from ibrsmooth import tps
from ibrsmooth.smoothers import FactoredBasis, HouseholderQ

from conftest import LapackQ, radial_block, random_design


def calibrated(seed, n, d, mult=1.2):
    return build_calibrated_tps(random_design(np.random.default_rng(seed), n, d), df_multiplier=mult)


@pytest.mark.parametrize("seed,n,d", [(1, 40, 2), (2, 120, 2), (3, 60, 3)])
def test_spectrum_matches_dense_eigh_on_the_same_block(seed, n, d):
    core = calibrated(seed, n, d).core
    x = core.design.x
    # the block the core reduced, rebuilt: E is not kept
    e = radial_block(x, x, core.order)
    theta = np.linalg.eigh(core._null.project(e)[0])[0]
    ref = np.maximum(theta[::-1], 0.0)
    np.testing.assert_allclose(core.theta, ref, rtol=0, atol=1e-13 * ref.max())


@pytest.mark.parametrize("d", [1, 2, 3])
# sizes 1 and 2 stand for m + 1 and m + 2
@pytest.mark.parametrize("size", [1, 2, 60, 300])
def test_projected_blocks_match_two_reflector_passes(d, size):
    """The one-pass WY projection gives the lower triangle of q2' E q2 and
    the block q1' E q2 of the dense Q' E Q from two dormqr passes, to 1e-13
    relative, also where the tridiagonal block is 1 x 1 or 2 x 2."""
    order = tps.default_tps_order(d)
    m = tps.tps_null_dim(order, d)
    n = m + size if size <= 2 else size
    x = random_design(np.random.default_rng(n + d), n, d).x
    e = radial_block(x, x, order)
    poly = tps._poly_block(x, tps.tps_powers(order, d))
    ref = LapackQ(poly)
    dense = ref.right(ref.t_dot(e))
    block, cross = HouseholderQ(poly).project(e)
    lower = np.tril_indices(n - m)
    for got, want in ((block[lower], dense[m:, m:][lower]), (cross, dense[:m, m:])):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert block.flags.f_contiguous and block.shape == (n - m, n - m)


@pytest.mark.parametrize("seed,n,d", [(1, 40, 2), (3, 60, 3), (4, 4, 2), (5, 5, 2)])
def test_dense_basis_is_orthogonal(seed, n, d):
    """Also at n = m + 1 and m + 2, where the tridiagonal block is 1 x 1 or 2 x 2."""
    u = calibrated(seed, n, d, mult=1.05).core.dense()
    assert u.shape == (n, n)
    np.testing.assert_allclose(u.T @ u, np.eye(n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed,n,d", [(1, 40, 2), (3, 60, 3), (4, 4, 2)])
def test_products_match_the_dense_basis(seed, n, d):
    sm = calibrated(seed, n, d, mult=1.05)
    spectral = sm.spectral()
    assert isinstance(spectral.u, FactoredBasis)
    u = spectral.dense_u()
    rng = np.random.default_rng(seed)
    for v in (rng.normal(size=n), rng.normal(size=(n, 3))):
        before = v.copy()
        np.testing.assert_allclose(spectral.u_dot(v), u @ v, rtol=0, atol=1e-13 * np.abs(v).max() * n)
        np.testing.assert_allclose(spectral.ut_dot(v), u.T @ v, rtol=0, atol=1e-13 * np.abs(v).max() * n)
        assert spectral.u_dot(v).shape == v.shape == spectral.ut_dot(v).shape
        assert np.array_equal(v, before)


def test_matrix_matches_the_eigenvector_formula():
    """S = q1 q1' + g2 diag(r) g2' with [q1 g2] the dense basis."""
    sm = calibrated(6, 80, 2)
    core, m = sm.core, sm.core.m
    u = core.dense()
    q1, g2 = u[:, :m], u[:, m:]
    ratio = core.theta / (core.theta + sm.n * sm.spec.lam)
    ref = q1 @ q1.T + (g2 * ratio) @ g2.T
    assert np.abs(sm.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
    np.testing.assert_array_equal(sm.matrix, sm.matrix.T)


def test_matrix_keeps_no_dense_basis():
    """The dense block is formed on demand: after ``matrix`` the smoother
    holds S and the core still holds no n x n array."""
    n = 50
    sm = calibrated(7, n, 2)
    assert sm.matrix.shape == (n, n)
    square = [
        name
        for name, val in vars(sm.core).items()
        for a in (val if isinstance(val, tuple) else (val,))
        if isinstance(a, np.ndarray) and a.size >= n * n
    ]
    assert square == []


@pytest.mark.parametrize("seed", [8, 9])
def test_path_fitted_values_match_the_dense_recursion(seed):
    rng = np.random.default_rng(seed)
    sm = calibrated(seed, 30, 2)
    y = rng.normal(size=30)
    path = KPath(sm.spectral(), y)
    for k in (1, 2, 7, 30, 200):
        direct = iterate_fitted_recursive(sm, y, k)
        np.testing.assert_allclose(path.fitted(k), direct, rtol=0, atol=1e-11 * np.abs(y).max())
    # the coefficients reproduce the fitted values through the smoother
    np.testing.assert_allclose(sm.matrix @ path.coefficients(7), path.fitted(7), rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed,n,d", [(10, 40, 2), (11, 50, 3)])
def test_basis_evaluation_matches_evaluating_the_dense_basis(seed, n, d):
    """The CV fold projector W(x) U, from reflector passes over the radial
    rows, equals the predictor of the dense U, also at training rows."""
    sm = calibrated(seed, n, d)
    x_new = np.vstack([np.random.default_rng(seed).normal(size=(7, d)), sm.design.x[:5]])
    ref = sm.predictor(sm.core.dense()).predict(x_new)
    got = sm.evaluate_basis(x_new)
    assert got.shape == (12, n)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_allclose(got[7:], sm.matrix[:5] @ sm.core.dense(), rtol=0, atol=1e-10)
