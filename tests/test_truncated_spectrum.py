"""Truncated spectrum of Gaussian kernel smoothers.

A Gaussian design whose per-column Chebyshev factor is narrow enough keeps
only the eigenpairs above the accuracy floor f = n eps lambda_max, taken
from one QR of that factor (the factor route) and certified by a trace
bound on the pairs left out. A constant column is one node of that
factor. Every other kernel, and every design whose numerical rank is too
large for the factor gate, takes the dense eigh path unchanged.
"""

import copy
import tracemalloc
import warnings

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
from ibrsmooth.chebyshev import _accepted_nodes
from ibrsmooth.selection import _K_TOL
from ibrsmooth.smoothers import HouseholderQ, SpectralForm

from conftest import LapackQ

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
    """Switch the factor route off: no Khatri-Rao factor is narrow enough."""
    return lambda: monkeypatch.setattr(kernel_smoother, "_FACTOR_RANK_GATE", 10**9)


def dense_eigh(smoother):
    """What the dense path computes, spelled out."""
    d_half = 1.0 / np.sqrt(smoother.row_sums)
    lam, u = np.linalg.eigh(smoother.kmat * d_half[:, None] * d_half[None, :])
    order = np.argsort(lam)[::-1]
    return lam[order], u[:, order]


@pytest.fixture
def truncated():
    design, y = wave_data(300, 1, 0.3)
    sm = build_smoother(design, SmootherConfig(df=1.5))
    spectral = sm.spectral()
    assert sm._factor is not None and spectral.rank < spectral.n
    return sm, spectral, y


def cut_at_floor(smoother, lam, u):
    """A copy of ``smoother`` holding the eigenpairs (lam descending, u) of
    a symmetrized kernel above the accuracy floor n eps lam[0], as the
    factor route keeps its own, with tail_trace = tr(A) - sum(kept)."""
    keep = lam > smoother.n * EPS * lam[0]
    twin = copy.copy(smoother)
    twin.__dict__["_spectral"] = SpectralForm(
        d_half=1.0 / np.sqrt(smoother.row_sums),
        u=u[:, keep],
        lam=lam[keep],
        tail_trace=max(smoother.initial_df - float(np.sum(lam[keep])), 0.0),
    )
    return twin


@pytest.mark.parametrize("n, d, df", [(700, 2, 1.1), (300, 1, 1.5)])
def test_interior_gcv_optimum_matches_dense_path(force_dense, n, d, df):
    design, y = wave_data(n, d, 0.5 if d > 1 else 0.3)
    sm = build_smoother(design, SmootherConfig(df=df))
    spectral = sm.spectral()
    floor = spectral.floor
    assert sm._factor is not None
    assert spectral.rank < n // 2
    lam_dense, _ = dense_eigh(sm)
    # the route keeps A's pairs above the floor (one within rounding of it
    # may fall on either side)
    assert abs(spectral.rank - np.count_nonzero(lam_dense > floor)) <= 1
    # With lambda A's eigenvalues and mu the route's, tail_trace = tr(A) -
    # sum(kept) = sum_{i > r} lambda_i + sum_{i <= r} (lambda_i - mu_i). The
    # first sum is what the floor leaves out of A. The route's matrix is
    # A - E, E >= 0 the node products the factor cuts, each below f of the
    # largest, so by Weyl 0 <= lambda_i - mu_i <= ||E|| <= f, and only the
    # kept pairs within a few f of the floor share E's directions: 2 f
    # bounds their sum (1.2 f at n = 700). The dense eigh holds the trace
    # to its own rounding, f.
    assert lam_dense[spectral.rank :].sum() - floor <= spectral.tail_trace
    assert spectral.tail_trace <= lam_dense[lam_dense <= floor].sum() + 2 * floor
    got = fit(design, y, smoother=sm)
    force_dense()
    twin = dense_twin(sm)
    assert twin.spectral().rank == n
    # the dense path cut at the same floor, so both keep the same pairs
    dense = cut_at_floor(twin, twin.spectral().lam, twin.spectral().u)
    ref = fit(design, y, smoother=dense)
    # an interior optimum, so the search itself is compared
    assert 10.0 < ref.k < 1e5 - 1.0
    assert abs(got.k - ref.k) <= 2 * _K_TOL * max(got.k, ref.k)
    at_ref_k = fit(design, y, smoother=sm, plan=SelectionPlan(mode="fixed", fixed_k=ref.k))
    assert at_ref_k.final_df == pytest.approx(ref.final_df, rel=1e-9)
    assert at_ref_k.rss == pytest.approx(ref.rss, rel=1e-9)
    # The coefficients weigh a pair of eigenvalue lambda by up to k, and E
    # turns the eigenvectors of pairs 1e-10 apart by ||E|| / 1e-10, so new-row
    # values follow the route's own matrix A - E (3.6e-10 from A's at
    # n = 700): they are compared with the dense eigh of that matrix, cut at
    # the same floor
    g = sm._factor.scaled(1.0 / np.sqrt(sm.row_sums))
    lam_own, u_own = np.linalg.eigh(g @ g.T)
    own = cut_at_floor(sm, lam_own[::-1], u_own[:, ::-1])
    want = fit(design, y, smoother=own, plan=SelectionPlan(mode="fixed", fixed_k=ref.k))
    x_new = np.random.default_rng(9).uniform(size=(50, d))
    np.testing.assert_allclose(at_ref_k.predict(x_new), want.predict(x_new), rtol=1e-9, atol=1e-12)


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


def test_two_builds_give_the_same_bits():
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


def test_kept_pairs_are_eigenpairs_above_the_accuracy_floor(truncated):
    sm, spectral, _ = truncated
    assert spectral.lam.min() > spectral.floor
    assert np.all(np.diff(spectral.lam) <= 0)
    np.testing.assert_allclose(spectral.u.T @ spectral.u, np.eye(spectral.rank), atol=1e-12)
    lam_dense, _ = dense_eigh(sm)
    np.testing.assert_allclose(spectral.lam, lam_dense[: spectral.rank], rtol=0, atol=1e-12)
    # dense eigenvalues left out sum to at most the certified tail (up to
    # the rounding of the dense eigenvalues themselves)
    assert lam_dense[spectral.rank :].clip(0).sum() <= spectral.tail_trace + 1e-12


def test_non_pd_kernel_takes_the_dense_path_exactly():
    design, _ = wave_data(300, 1, 0.3)
    sm = build_kernel_smoother(design, KernelSmootherSpec(kind="epanechnikov", bandwidths=(0.4,)))
    spectral = sm.spectral()
    lam, u = dense_eigh(sm)
    assert spectral.rank == 300 and spectral.tail_trace == 0.0
    assert np.array_equal(spectral.lam, lam) and np.array_equal(spectral.u, u)


def test_rank_that_trips_the_gate_takes_the_dense_path_exactly(monkeypatch):
    calls = []
    factor = kernel_smoother._gaussian_factor

    def spy(x, bandwidths):
        out = factor(x, bandwidths)
        calls.append(out)
        return out

    monkeypatch.setattr(kernel_smoother, "_gaussian_factor", spy)
    design, _ = wave_data(300, 2, 0.3)
    # narrow bandwidths: far more than 150 eigenvalues above the floor
    sm = build_kernel_smoother(design, KernelSmootherSpec(kind="gaussian", bandwidths=(0.05, 0.05)))
    spectral = sm.spectral()
    assert calls == [None]
    lam, u = dense_eigh(sm)
    assert spectral.rank == 300 and spectral.tail_trace == 0.0
    assert np.array_equal(spectral.lam, lam) and np.array_equal(spectral.u, u)


# ------------------------------------------------------------ factor route

FACTOR_DESIGNS = [
    (d, dist, df)
    for d in (1, 2)
    for dist in ("uniform", "normal", "lognormal")
    for df in (1.1, 2.0)
] + [(3, "uniform", 1.1)]


def factor_smoother(d, dist, df):
    """A calibrated Gaussian smoother on columns drawn from ``dist``, with
    enough rows to pass the factor gate: a two-column normal design at df 2
    has a factor of about 490 columns, a three-column one at df 1.1 of
    about 300."""
    n = {1: 400, 2: 1200, 3: 800}[d]
    x = getattr(np.random.default_rng(11), dist)(size=(n, d))
    return build_smoother(DesignMatrix.from_array(x), SmootherConfig(df=df))


@pytest.mark.parametrize("d, dist, df", FACTOR_DESIGNS)
def test_factor_route_matches_dense_eigh(d, dist, df):
    assert_factor_route_matches_dense_eigh(factor_smoother(d, dist, df))


def assert_factor_route_matches_dense_eigh(sm):
    assert sm._factor is not None and sm._gram is None
    x, h = sm.design.x, sm.spec.bandwidths
    kmat = kernel_smoother.product_kernel(x, x, "gaussian", h)
    sums = kmat.sum(axis=1)
    np.testing.assert_allclose(sm.row_sums, sums, rtol=1e-13, atol=0)
    spectral = sm.spectral()
    r = spectral.rank
    assert r < sm.n // 2
    d_half = 1.0 / np.sqrt(sums)
    a = kmat * d_half[:, None] * d_half[None, :]
    lam = np.linalg.eigvalsh(a)[::-1]
    np.testing.assert_allclose(spectral.lam, lam[:r], rtol=0, atol=1e-12)
    assert lam[r:].clip(0).sum() <= spectral.tail_trace + 1e-12
    u = spectral.u
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-12)
    np.testing.assert_allclose(a @ u, u * spectral.lam, rtol=0, atol=1e-12)


def built_node_counts(monkeypatch):
    """The node count of every interpolation matrix built from now on."""
    built = []
    factor = kernel_smoother._chebyshev_factor

    def spy(t, p):
        built.append(p)
        return factor(t, p)

    monkeypatch.setattr(kernel_smoother, "_chebyshev_factor", spy)
    return built


def explicit_bandwidths(x, ratios):
    """Bandwidths at which each column spans ``ratios`` bandwidths per half range."""
    return tuple(np.ptp(x, axis=0) / 2 / np.asarray(ratios))


# columns spanning 4 and 1 bandwidths per half range take 64 and 32 nodes
# (0.2 takes 16, 0.5 and 3 take 32 and 64), so every mode of the node
# weight tensor has its own size and a transposed product cannot pass
UNEQUAL_NODES = [
    ("uniform", 1000, (4.0, 1.0), [64, 32]),
    ("uniform", 1000, (1.0, 4.0), [32, 64]),
    ("lognormal", 1500, (3.0, 0.2, 0.5), [64, 16, 32]),
]


@pytest.mark.parametrize("dist, n, ratios, sizes", UNEQUAL_NODES)
def test_factor_row_sums_with_unequal_node_counts(monkeypatch, dist, n, ratios, sizes):
    x = getattr(np.random.default_rng(2), dist)(size=(n, len(ratios)))
    h = explicit_bandwidths(x, ratios)
    built = built_node_counts(monkeypatch)
    sm = build_kernel_smoother(DesignMatrix.from_array(x), KernelSmootherSpec("gaussian", h))
    assert sm._factor is not None and built == sizes
    sums = kernel_smoother.product_kernel(x, x, "gaussian", h).sum(axis=1)
    np.testing.assert_allclose(sm.row_sums, sums, rtol=1e-13, atol=0)


def test_three_column_factor_holds_no_wide_khatri_rao_block(monkeypatch):
    """Row sums of a three-column factor go through one product per axis
    over blocks of rows, so neither H (n x prod p_j) nor the Khatri-Rao
    product of the last two columns (n x 32 x 32, 49 MB here) is held.
    Measured peak 6.3 MB (numpy 2.4, x86-64): mostly the three n x 32
    interpolation matrices; the bound is a quarter of that one array."""
    n = 6000
    x = np.random.default_rng(0).uniform(size=(n, 3))
    h = explicit_bandwidths(x, (0.55, 0.55, 0.55))
    built = built_node_counts(monkeypatch)
    tracemalloc.start()
    try:
        factor = kernel_smoother._gaussian_factor(x, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factor is not None and built == [32, 32, 32]
    assert peak < 8 * n * 32 * 32 / 4


def test_factor_route_gives_the_same_bits_twice():
    spec_of = factor_smoother(2, "normal", 1.1)
    a, b = (build_kernel_smoother(spec_of.design, spec_of.spec) for _ in range(2))
    assert a._factor is not None
    assert np.array_equal(a.row_sums, b.row_sums)
    sa, sb = a.spectral(), b.spectral()
    assert np.array_equal(sa.lam, sb.lam) and np.array_equal(sa.u, sb.u)
    assert sa.tail_trace == sb.tail_trace


@pytest.mark.parametrize("n", [300, 1500])
def test_a_constant_column_leaves_the_fit_unchanged(n):
    """A constant column scales every kernel entry by K(0), whatever its
    bandwidth, so inserting one changes neither S nor the fit. It is one
    node of the factor, and the design stays on the factor route. The k
    search agrees to its tolerance, and the fits at one k to rounding."""
    rng = np.random.default_rng(n)
    x = rng.uniform(size=(n, 2))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.3, n)
    ref = fit(x, y, smoother=SmootherConfig(bandwidths=(0.4, 0.5)))
    x_c = np.insert(x, 1, 2.5, axis=1)
    config = SmootherConfig(bandwidths=(0.4, 7.0, 0.5))
    k = fit(x_c, y, smoother=config).k
    assert abs(k - ref.k) <= 2 * _K_TOL * max(k, ref.k)
    got = fit(x_c, y, smoother=config, plan=SelectionPlan(mode="fixed", fixed_k=ref.k))
    assert got.base._factor is not None
    assert got.final_df == pytest.approx(ref.final_df, rel=1e-10, abs=0)
    np.testing.assert_allclose(got.fitted, ref.fitted, rtol=0, atol=1e-10)
    if n == 1500:
        assert_factor_route_matches_dense_eigh(got.base)


def test_three_columns_fail_the_gate_before_any_factor(monkeypatch):
    """A forward_cv-sized design (n = 330, three columns, df 1.1) fails the
    factor gate from its node kernels alone and takes the dense route."""
    design = DesignMatrix.from_array(np.random.default_rng(4).uniform(size=(330, 3)))
    spec = build_smoother(design, SmootherConfig(df=1.1)).spec
    built = built_node_counts(monkeypatch)
    sm = build_kernel_smoother(design, spec)
    spectral = sm.spectral()
    assert built == [] and sm._factor is None
    lam, u = dense_eigh(sm)
    assert spectral.rank == 330 and spectral.tail_trace == 0.0
    assert np.array_equal(spectral.lam, lam) and np.array_equal(spectral.u, u)


def test_gaussian_fit_holds_no_square_array():
    """No n x n array: the fit peaks below one (the Gram matrix alone is
    8 n^2 bytes), and the fitted smoother keeps none."""
    n = 4000
    design, y = wave_data(n, 2, 0.3)
    tracemalloc.start()
    try:
        result = fit(design, y, smoother=SmootherConfig(df=1.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    base = result.base
    arrays = [v for v in vars(base).values() if isinstance(v, np.ndarray)]
    arrays += base._factor.blocks + [v for v in vars(base.spectral()).values() if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) < n * n


# ------------------------------------------------------------ QR of the factor


def lapack_eigenvalues(g):
    """The factor route's kept eigenvalues through scipy's dgeqrf (the
    reference): those above the floor n eps lambda_max."""
    r = LapackQ(g).r
    lam = np.linalg.eigvalsh(r @ r.T)[::-1]
    return lam[lam > g.shape[0] * EPS * lam[0]]


def benchmark_factor(n, d):
    """The factor and scaling of a df 1.1 Gaussian fit on uniform columns:
    n = 1500, d = 2 as kernel_fit has it (43 factor columns), and
    n = 6000, d = 3 (163)."""
    x = np.random.default_rng(0).uniform(size=(n, d))
    sm = build_smoother(DesignMatrix.from_array(x), SmootherConfig(df=1.1))
    assert sm._factor is not None
    return sm, 1.0 / np.sqrt(sm.row_sums)


@pytest.mark.parametrize("n, d, width", [(1500, 2, 43), (6000, 3, 163)])
def test_wy_product_matches_lapack_reflector_pass(n, d, width):
    """U = Q [W; 0] in compact WY form equals dormqr's pass over the same
    reflectors, is orthonormal, and the kept eigenvalues are those of
    dgeqrf's R to rounding (a pair within rounding of the floor may fall
    on either side of it)."""
    sm, d_half = benchmark_factor(n, d)
    g = sm._factor.scaled(d_half)
    assert g.shape == (n, width)
    lam, u, _ = kernel_smoother._factor_eigenpairs(sm._factor, d_half, sm.initial_df)
    np.testing.assert_allclose(u.T @ u, np.eye(lam.size), rtol=0, atol=1e-13)
    ref = lapack_eigenvalues(g)
    assert abs(ref.size - lam.size) <= 1
    common = min(ref.size, lam.size)
    np.testing.assert_allclose(lam[:common], ref[:common], rtol=0, atol=4 * EPS)
    floor = n * EPS * ref[0]
    assert max(lam[common:].max(initial=0), ref[common:].max(initial=0)) < floor + 4 * EPS

    w = np.linalg.qr(np.random.default_rng(1).normal(size=(width, width // 2)))[0]
    want = LapackQ(g).dot(w)
    got = HouseholderQ(g).dot(w)
    assert got.flags.f_contiguous
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_identity_reflector_is_taken_without_division():
    """A column already zero below its diagonal gives an identity reflector
    (tau = 0): the WY product skips it as dormqr does, and the factor route
    still gives the eigenpairs of G G'. Columns 0-2 live in rows 0-2 and
    column 3 in rows 0-3, so the reflectors of columns 2 and 3 are exactly
    the identity, with ordinary ones on either side."""
    n, width = 40, 6
    rng = np.random.default_rng(3)
    a = rng.normal(size=(n, width))
    a[3:, :3] = 0.0
    a[4:, 3] = 0.0
    tau = np.linalg.qr(a, mode="raw")[1]
    assert np.array_equal(tau == 0.0, [False, False, True, True, False, False])
    w = np.linalg.eigh(rng.normal(size=(width, width)) + np.eye(width) * width)[1]
    want = LapackQ(a).dot(w)
    with np.errstate(all="raise"):
        got = HouseholderQ(a).dot(w)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    factor = kernel_smoother._KhatriRaoFactor([a.T.copy()], (np.arange(width),))
    lam, u, tail = kernel_smoother._factor_eigenpairs(factor, np.ones(n), np.sum(a * a))
    np.testing.assert_allclose(u.T @ u, np.eye(width), rtol=0, atol=1e-13)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(a.T @ a)[::-1], rtol=1e-13)
    np.testing.assert_allclose((a @ a.T) @ u, u * lam, rtol=0, atol=1e-12)


# ------------------------------------------------------------ accuracy floor


def floor_design(name):
    """kernel_fit's shape (:func:`benchmark_factor`, with a response) or the
    700-row wave design, each a df 1.1 Gaussian smoother on the factor route."""
    if name == "benchmark":
        sm, _ = benchmark_factor(1500, 2)
        x = sm.design.x
        y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + np.random.default_rng(1).normal(0, 0.1, sm.n)
        return sm, y
    design, y = wave_data(700, 2, 0.5)
    return build_smoother(design, SmootherConfig(df=1.1)), y


def node_products_above_floor(sm):
    """The eigenvalues of the node kernels' Kronecker product above n eps
    times the largest, counted from the node kernels alone."""
    x, n = sm.design.x, sm.n
    weight = np.ones(1)
    for ratio in (np.ptp(x, axis=0) / 2) / np.asarray(sm.spec.bandwidths):
        sig = np.linalg.eigvalsh(_accepted_nodes(ratio, n)[1])
        weight = np.multiply.outer(weight, sig / sig[-1]).ravel()
    return int(np.count_nonzero(weight > n * EPS))


@pytest.mark.parametrize("name", ["benchmark", "wave"])
def test_factor_route_keeps_the_pairs_above_the_floor(name):
    """The factor holds the node products above the floor f = n eps, every
    kept eigenvalue is above f lambda_max, and each lies within tail_trace
    of its dense twin: A = A_P + E with A_P the kept pairs and E positive
    semi-definite of trace tail_trace, so by Weyl's inequality the shift of
    each eigenvalue is at most ||E|| <= tr E (up to the dense eigh's own
    rounding, far below it)."""
    sm, _ = floor_design(name)
    spectral = sm.spectral()
    width = sm._factor.scaled(1.0 / np.sqrt(sm.row_sums)).shape[1]
    assert width == node_products_above_floor(sm) == 43
    assert spectral.floor == pytest.approx(sm.n * EPS * spectral.lam[0], rel=1e-15)
    assert spectral.lam.min() > spectral.floor
    lam_dense, _ = dense_eigh(sm)
    assert np.abs(spectral.lam - lam_dense[: spectral.rank]).max() <= spectral.tail_trace


@pytest.mark.parametrize("name", ["benchmark", "wave"])
def test_the_cut_moves_df_and_rss_by_at_most_k_tail_trace(force_dense, name):
    """Against the full-rank dense twin, the df and rss at each k agree to
    k * tail_trace (the weight 1 - (1 - lambda)^k of a pair has slope at
    most k, and the pairs cut sum to at most tail_trace), the rss in units
    of |y|^2, plus 1e-9 relative."""
    sm, y = floor_design(name)
    path = KPath(sm.spectral(), y)
    tail = sm.spectral().tail_trace
    force_dense()
    twin = dense_twin(sm)
    assert twin.spectral().rank == sm.n
    ref = KPath(twin.spectral(), y)
    for k in (1, 1e2, 1e4, 1e5):
        assert path.df(k) == pytest.approx(ref.df(k), rel=1e-9, abs=k * tail)
        assert path.rss(k) == pytest.approx(ref.rss(k), rel=1e-9, abs=k * tail * (y @ y))


def test_a_fit_past_its_truncation_certificate_warns(force_dense):
    """k * tail_trace bounds how far the pairs left out move the df at k: a
    fit at the default kmax stays far inside 1e-6 of its df and is silent,
    one at k = 1e9 is not, and says so; a full spectrum never warns."""
    sm, y = floor_design("benchmark")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = fit(sm.design, y, smoother=sm)
    assert inside.k * sm.spectral().tail_trace < 1e-2 * 1e-6 * inside.final_df
    with pytest.warns(UserWarning, match=r"may move the df at k = 1e\+09 by up to 0\.00077"):
        fit(sm.design, y, smoother=sm, plan=SelectionPlan(mode="fixed", fixed_k=1e9))
    force_dense()
    twin = dense_twin(sm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(sm.design, y, smoother=twin, plan=SelectionPlan(mode="fixed", fixed_k=1e9))
    assert twin.spectral().tail_trace == 0
