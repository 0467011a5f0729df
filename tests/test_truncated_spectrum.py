"""Truncated spectrum of positive-definite kernel smoothers.

Gaussian smoothers keep only the eigenpairs above eps/2, found by a
randomized range finder and certified by a Ky Fan tail bound; every other
kernel, and every design whose numerical rank is too large for the block
gate, takes the dense eigh path unchanged.
"""

import numpy as np
import pytest

from ibrsmooth import (
    DesignMatrix,
    KernelSmootherSpec,
    KPath,
    SelectionPlan,
    SmootherConfig,
    build_kernel_smoother,
    build_smoother,
    fit,
    iterate_fitted_recursive,
)
from ibrsmooth import kernel_smoother
from ibrsmooth.selection import _K_TOL

EPS = np.finfo(float).eps


def wave_data(n, d, noise, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = np.sin(6 * x[:, 0]) + rng.normal(0, noise, n)
    if d > 1:
        y += 0.5 * x[:, 1]
    return DesignMatrix.from_array(x), y


def dense_twin(smoother):
    """The same smoother, forced onto the dense eigh path."""
    return build_kernel_smoother(smoother.design, smoother.spec)


@pytest.fixture
def force_dense(monkeypatch):
    def apply():
        monkeypatch.setattr(kernel_smoother, "_SPECTRUM_GATE", 10**9)

    return apply


def dense_eigh(smoother):
    """What the dense path computes, spelled out."""
    d_half = 1.0 / np.sqrt(smoother.row_sums)
    lam, u = np.linalg.eigh(smoother.kmat * d_half[:, None] * d_half[None, :])
    order = np.argsort(lam)[::-1]
    return lam[order], u[:, order]


@pytest.fixture
def small_gate(monkeypatch):
    """Let 300-point designs try the truncated path (block 80 <= n / 2)."""
    monkeypatch.setattr(kernel_smoother, "_SPECTRUM_GATE", 2)


@pytest.fixture
def truncated(small_gate):
    design, y = wave_data(300, 1, 0.3)
    sm = build_smoother(design, SmootherConfig(df=1.5))
    spectral = sm.spectral()
    assert spectral.rank < spectral.n
    return sm, spectral, y


@pytest.mark.parametrize(
    "n, d, df, gate",
    [
        (700, 2, 1.1, kernel_smoother._SPECTRUM_GATE),  # the default gate
        (300, 1, 1.5, 2),
    ],
)
def test_interior_gcv_optimum_matches_dense_path(monkeypatch, force_dense, n, d, df, gate):
    monkeypatch.setattr(kernel_smoother, "_SPECTRUM_GATE", gate)
    design, y = wave_data(n, d, 0.5 if d > 1 else 0.3)
    sm = build_smoother(design, SmootherConfig(df=df))
    spectral = sm.spectral()
    assert spectral.rank < n // 2
    assert 0.0 <= spectral.tail_trace <= n * EPS * sm.initial_df
    got = fit(design, y, smoother=sm)
    force_dense()
    ref = fit(design, y, smoother=dense_twin(sm))
    assert ref.base.spectral().rank == n
    # an interior optimum, so the search itself is compared
    assert 10.0 < ref.k < 1e5 - 1.0
    assert abs(got.k - ref.k) <= 2 * _K_TOL
    at_ref_k = fit(design, y, smoother=sm, plan=SelectionPlan(mode="fixed", fixed_k=ref.k))
    assert at_ref_k.final_df == pytest.approx(ref.final_df, rel=1e-9)
    assert at_ref_k.rss == pytest.approx(ref.rss, rel=1e-9)
    x_new = np.random.default_rng(9).uniform(size=(50, d))
    np.testing.assert_allclose(at_ref_k.predict(x_new), ref.predict(x_new), rtol=1e-9, atol=1e-12)


def test_fitted_matches_residual_recursion(truncated):
    sm, spectral, y = truncated
    path = KPath(spectral, y)
    for k in (1, 7, 60):
        np.testing.assert_allclose(
            path.fitted(k), iterate_fitted_recursive(sm, y, k), rtol=0, atol=1e-10
        )


def test_rss_is_the_explicit_residual(truncated):
    _, spectral, y = truncated
    path = KPath(spectral, y)
    for k in (0, 1, 12.5, 1e3, 1e5):
        explicit = float(np.sum((y - path.fitted(k)) ** 2))
        assert path.rss(k) == pytest.approx(explicit, rel=1e-10)


def test_two_builds_give_the_same_bits(small_gate):
    design, y = wave_data(300, 1, 0.3)
    spec = build_smoother(design, SmootherConfig(df=1.5)).spec
    a = build_kernel_smoother(design, spec).spectral()
    b = build_kernel_smoother(design, spec).spectral()
    assert a.rank < a.n
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.u, b.u)
    assert a.tail_trace == b.tail_trace
    fa = fit(design, y, smoother=build_kernel_smoother(design, spec))
    fb = fit(design, y, smoother=build_kernel_smoother(design, spec))
    assert fa.k == fb.k
    assert np.array_equal(fa.beta, fb.beta) and np.array_equal(fa.fitted, fb.fitted)


def test_kept_pairs_are_eigenpairs_above_half_eps(truncated):
    sm, spectral, _ = truncated
    assert spectral.lam.min() > 0.5 * EPS
    assert np.all(np.diff(spectral.lam) <= 0)
    np.testing.assert_allclose(spectral.u.T @ spectral.u, np.eye(spectral.rank), atol=1e-12)
    lam_dense, _ = dense_eigh(sm)
    np.testing.assert_allclose(spectral.lam, lam_dense[: spectral.rank], rtol=0, atol=1e-12)
    # dense eigenvalues left out sum to at most the certified tail (up to
    # the rounding of the dense eigenvalues themselves)
    assert lam_dense[spectral.rank :].clip(0).sum() <= spectral.tail_trace + 1e-12


def test_non_pd_kernel_takes_the_dense_path_exactly(small_gate):
    design, _ = wave_data(300, 1, 0.3)
    sm = build_kernel_smoother(design, KernelSmootherSpec(kind="epanechnikov", bandwidths=(0.4,)))
    spectral = sm.spectral()
    lam, u = dense_eigh(sm)
    assert spectral.rank == 300 and spectral.tail_trace == 0.0
    assert np.array_equal(spectral.lam, lam) and np.array_equal(spectral.u, u)


def test_rank_that_trips_the_gate_takes_the_dense_path_exactly(small_gate, monkeypatch):
    calls = []
    top = kernel_smoother._top_eigenpairs

    def spy(kmat, d_half):
        out = top(kmat, d_half)
        calls.append(out)
        return out

    monkeypatch.setattr(kernel_smoother, "_top_eigenpairs", spy)
    design, _ = wave_data(300, 2, 0.3)
    # narrow bandwidths: far more than 144 eigenvalues above eps/2
    sm = build_kernel_smoother(design, KernelSmootherSpec(kind="gaussian", bandwidths=(0.05, 0.05)))
    spectral = sm.spectral()
    assert calls == [None]
    lam, u = dense_eigh(sm)
    assert spectral.rank == 300 and spectral.tail_trace == 0.0
    assert np.array_equal(spectral.lam, lam) and np.array_equal(spectral.u, u)

