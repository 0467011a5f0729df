"""Iteration-path engine: hand-checked 2x2 oracles and path equivalences.

The reference case used throughout:

    S = [[0.6, 0.4],    eigenvalues (1.0, 0.2)
         [0.4, 0.6]]
    y = (1, 0)

Worked by hand: (I-S)^2 = [[0.32, -0.32], [-0.32, 0.32]], so after two
steps the fit is (0.68, 0.32), the residual (0.32, -0.32) has squared norm
0.2048, the effective df is (1 - 0^2) + (1 - 0.8^2) = 1.36, and the
coefficient vector (I + (I-S)) y = (1.4, -0.4).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibrsmooth import (
    DesignMatrix,
    IterationDomainError,
    KernelSmootherSpec,
    KPath,
    SpectralForm,
    build_calibrated_tps,
    build_kernel_smoother,
    iterate_fitted_recursive,
)

from ibrsmooth import engine
from ibrsmooth.benchmarks import make_wendelberger_data
from conftest import gaussian_smoother, random_design

ROOT_HALF = 1.0 / np.sqrt(2.0)
U_2 = np.array([[ROOT_HALF, ROOT_HALF], [ROOT_HALF, -ROOT_HALF]])
Y_2 = np.array([1.0, 0.0])


def two_point_spectral():
    return SpectralForm(d_half=np.ones(2), u=U_2, lam=np.array([1.0, 0.2]))


def test_reference_matrix_round_trip():
    spectral = two_point_spectral()
    assert np.allclose(spectral.reconstruct(), [[0.6, 0.4], [0.4, 0.6]], atol=1e-15)


def test_two_step_oracles():
    path = KPath(two_point_spectral(), Y_2)
    assert np.allclose(path.fitted(2), [0.68, 0.32], atol=1e-12)
    assert path.rss(2) == pytest.approx(0.2048, abs=1e-12)
    assert path.df(2) == pytest.approx(1.36, abs=1e-12)
    assert np.allclose(path.coefficients(2), [1.4, -0.4], atol=1e-12)
    assert path.fitted_energy(2) == pytest.approx(0.68**2 + 0.32**2, abs=1e-12)


def test_one_step_is_the_base_smoother():
    path = KPath(two_point_spectral(), Y_2)
    s = two_point_spectral().reconstruct()
    assert np.allclose(path.fitted(1), s @ Y_2, atol=1e-14)
    assert np.allclose(path.coefficients(1), Y_2, atol=1e-14)


def test_zero_steps_fit_nothing():
    path = KPath(two_point_spectral(), Y_2)
    assert np.allclose(path.fitted(0), 0.0)
    assert path.df(0) == 0.0
    assert path.rss(0) == pytest.approx(float(Y_2 @ Y_2))


def test_coefficients_satisfy_smoother_identity(rng):
    """Fitted values are one smoothing pass applied to the coefficients."""
    sm = gaussian_smoother(rng.normal(size=14), h=0.8)
    y = rng.normal(size=14)
    path = KPath(sm.spectral(), y)
    for k in (1, 2, 7, 33.5):
        beta = path.coefficients(k)
        assert np.allclose(sm.matrix @ beta, path.fitted(k), atol=1e-9)


def test_spectral_path_equals_dense_recursion_kernel(rng):
    sm = gaussian_smoother(rng.normal(size=20) * 2.0, h=0.6)
    y = rng.normal(size=20)
    path = KPath(sm.spectral(), y)
    for k in (1, 2, 5, 17, 64):
        direct = iterate_fitted_recursive(sm, y, k)
        assert np.allclose(path.fitted(k), direct, atol=1e-10)


def test_spectral_path_equals_dense_recursion_tps(rng):
    design = random_design(rng, 15, 2)
    sm = build_calibrated_tps(design, df_multiplier=1.2)
    y = rng.normal(size=15)
    path = KPath(sm.spectral(), y)
    for k in (1, 3, 11, 40):
        direct = iterate_fitted_recursive(sm, y, k)
        assert np.allclose(path.fitted(k), direct, atol=1e-10)


def test_rss_uses_true_euclidean_norm(rng):
    """For the non-symmetric kernel similarity the residual norm needs the
    Gram correction; compare against residuals formed explicitly."""
    sm = gaussian_smoother(rng.normal(size=12), h=1.5)
    y = rng.normal(size=12)
    path = KPath(sm.spectral(), y)
    for k in (1, 4, 9.5):
        resid = y - path.fitted(k)
        assert path.rss(k) == pytest.approx(float(resid @ resid), rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    k1=st.floats(min_value=0.0, max_value=500.0),
    k2=st.floats(min_value=0.0, max_value=500.0),
    seed=st.integers(min_value=0, max_value=999),
)
def test_df_monotone_in_k(k1, k2, seed):
    rng = np.random.default_rng(seed)
    sm = gaussian_smoother(rng.normal(size=10), h=1.0)
    path = KPath(sm.spectral(), rng.normal(size=10))
    lo, hi = sorted((k1, k2))
    assert path.df(lo) <= path.df(hi) + 1e-12


def test_rss_decreasing_in_k(rng):
    sm = gaussian_smoother(rng.normal(size=18), h=1.0)
    path = KPath(sm.spectral(), rng.normal(size=18))
    ks = [1, 2, 5, 10, 50, 200, 1000]
    values = [path.rss(k) for k in ks]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_unit_eigenvalue_components_never_shrink():
    # the component along the lam = 1 eigenvector is fixed from step one
    path = KPath(two_point_spectral(), Y_2)
    for k in (1, 2, 10, 1000):
        f = path.fitted(k)
        assert (f[0] + f[1]) == pytest.approx(Y_2.sum(), abs=1e-12)


def test_fractional_k_needs_clean_spectrum():
    # eigenvalues (1, -0.8): integer counts fine, fractional refused
    spectral = SpectralForm(
        d_half=np.ones(2), u=U_2, lam=np.array([1.0, -0.8]), pd_family=False
    )
    path = KPath(spectral, Y_2)
    s = spectral.reconstruct()
    assert np.allclose(path.fitted(3), iterate_fitted_recursive(s, Y_2, 3), atol=1e-12)
    with pytest.raises(IterationDomainError):
        path.fitted(2.5)
    with pytest.raises(IterationDomainError):
        path.df(2.5)


def test_tiny_eigenvalue_series_fallback():
    lam = np.array([1.0, 1e-15])
    spectral = SpectralForm(d_half=np.ones(2), u=U_2, lam=lam)
    path = KPath(spectral, Y_2)
    factors = path.batch_coef_factors([3.0])[0]
    # sum_{j<3} (1 - lam)^j = 3 - 3 lam + lam^2
    assert factors[1] == pytest.approx(3.0, rel=1e-9)
    assert factors[0] == pytest.approx(1.0, rel=1e-12)


def test_fractional_powers_and_their_slopes_match_a_40_digit_reference():
    """Fractional counts up to 1e15 on eigenvalues down to 1e-14: the value
    rows (1 - lambda)^k and the slope rows k log(1 - lambda) (1 - lambda)^k
    both lie within a few eps (1 + |k log(1 - lambda)|) of mpmath at 40
    digits, so a search's values and slopes agree. A power of the rounded
    base 1 - lambda misses by 0.8% at lambda = 1e-14, k = 1e15, and by
    2.4% at 3e-14."""
    import mpmath

    mpmath.mp.dps = 40
    lam = np.array([1.0, 0.5, 1e-3, 1e-8, 1e-12, 3e-14, 1e-14, 0.0])
    path = KPath(SpectralForm(d_half=np.ones(8), u=np.eye(8), lam=lam), np.ones(8))
    counts, p, _ = path._pow_rows(np.array([2.5, 1e3 + 0.5, 1e8 + 0.5, 1e12 + 0.25, 1e15 + 0.5]))
    dp = path._slope_rows(counts, p)
    eps = np.finfo(float).eps
    for k, p_row, dp_row in zip(counts, p, dp):
        for l, got, slope in zip(lam, p_row, dp_row):
            mu = 1 - mpmath.mpf(l)
            if mu == 0:
                assert got == 0.0 and slope == 0.0
                continue
            t = mpmath.mpf(k) * mpmath.log(mu)
            ref, dref = mpmath.exp(t), t * mpmath.exp(t)
            bound = 8 * eps * (1 + abs(float(t)))
            assert abs(got - ref) <= bound * ref + 1e-300, (k, l)
            assert abs(slope - dref) <= bound * abs(dref) + 1e-300, (k, l)


def test_coef_factor_blocks_match_pointwise_with_series():
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    spectral = SpectralForm(d_half=np.ones(3), u=q, lam=np.array([1.0, 0.5, 1e-15]))
    path = KPath(spectral, np.ones(3))
    for ks in _count_blocks(0, 9, 4):
        # a range takes the power recurrence, a single count C pow
        block = path.batch_coef_factors(ks)
        for k, row in zip(ks, block):
            np.testing.assert_allclose(row, path.batch_coef_factors([k])[0], rtol=1e-14)
    assert path._sweep is not None


def _count_blocks(k_lo, k_hi, rows):
    """The integers k_lo .. k_hi as ranges of ``rows`` consecutive counts."""
    return [range(a, min(a + rows, k_hi + 1)) for a in range(k_lo, k_hi + 1, rows)]


def _sweep(path, k_lo, k_hi, rows):
    """(ks, df, rss, energy) of each block of a sweep over k_lo .. k_hi, every
    block a range of counts as the integer sweep passes it."""
    return [(np.array(ks), *path.batch_stats(ks)) for ks in _count_blocks(k_lo, k_hi, rows)]


@pytest.mark.parametrize("case", ["tps", "gaussian", "negative_mu", "truncated_gaussian"])
def test_one_count_range_keeps_the_single_count_bits(case, rng):
    """range(k, k + 1) takes the recurrence, k alone C pow: base row 1 times
    mu^k is mu^k, so both give the same bits."""
    spectral = _sweep_spectral(case, rng)
    path = KPath(spectral, rng.normal(size=spectral.n))
    for k in (0, 1, 2, 17, 4321):
        assert [float(c[0]) for c in path.batch_stats(range(k, k + 1))] == list(path.stats(k))
        row = path.batch_coef_factors(range(k, k + 1))[0]
        np.testing.assert_array_equal(row, path.batch_coef_factors([k])[0])


def test_counts_below_zero_are_refused_as_a_range_or_a_vector():
    """Counts below zero are refused, and so is a count set that is neither
    a range nor a non-empty 1-D vector: a 2-D array, a bare number, an
    empty array or an empty range."""
    path = KPath(two_point_spectral(), Y_2)
    below = "iteration counts must be finite numbers >= 0"
    shape = "iteration counts must be a range or a non-empty 1-D vector"
    cases = [(range(-1, 3), below), (np.arange(-1.0, 3.0), below), ([-1.0], below)]
    cases += [(np.array([[1.0, 2.0]]), shape), (2.0, shape), (np.array([]), shape), (range(3, 3), shape)]
    for ks, message in cases:
        for method in (path.batch_stats, path.batch_coef_factors):
            with pytest.raises(ValueError, match=message):
                method(ks)


def _fitted_operator(spectral, k):
    """The n x n map y -> fitted(k), one unit response at a time."""
    eye = np.eye(spectral.n)
    return np.column_stack([KPath(spectral, e).fitted(k) for e in eye])


def test_batch_matches_pointwise(rng):
    """stats (one power row) and batch (blocks) against references that
    share none of their formulas, on a full Gaussian, a truncated Gaussian
    and a spline form: at real k, the norms of fitted(k) and the trace of
    the fitted operator; at integer k, the dense residual recursion and
    tr(I - (I - S)^k)."""
    for case in ("gaussian", "truncated_gaussian", "tps"):
        spectral = _sweep_spectral(case, rng)
        path = KPath(spectral, rng.normal(size=spectral.n))
        for k in (1.0, 2.5, 7.25, 40.5):
            fitted = path.fitted(k)
            op = _fitted_operator(spectral, k)
            ref = (np.trace(op), np.sum((path.y - fitted) ** 2), fitted @ fitted)
            assert path.stats(k) == pytest.approx(ref, rel=1e-12), (case, k)
        blocks = zip(*_sweep(path, 1, 60, 17))
        ks, df, rss, energy = (np.concatenate(a) for a in blocks)
        assert ks.tolist() == list(range(1, 61))
        s = spectral.reconstruct()
        residual_power = np.eye(spectral.n)
        for i, k in enumerate(ks):
            residual_power = residual_power @ (np.eye(spectral.n) - s)
            fitted = iterate_fitted_recursive(s, path.y, k)
            ref = (
                spectral.n - np.trace(residual_power),
                np.sum((path.y - fitted) ** 2),
                fitted @ fitted,
            )
            assert (df[i], rss[i], energy[i]) == pytest.approx(ref, rel=1e-12), (case, k)
            assert path.stats(k) == pytest.approx(ref, rel=1e-12), (case, k)


def _truncate(spectral, rank):
    """The top ``rank`` pairs of a form; the rest of y is never smoothed."""
    return SpectralForm(
        d_half=spectral.d_half,
        u=spectral.dense_u()[:, :rank],
        lam=spectral.lam[:rank],
        tail_trace=float(spectral.lam[rank:].sum()),
    )


def _sweep_spectral(case, rng):
    if case == "truncated_gaussian":
        return _truncate(gaussian_smoother(rng.normal(size=20), h=0.7).spectral(), 9)
    if case == "truncated_tps":
        return _truncate(build_calibrated_tps(random_design(rng, 25, 2), df_multiplier=1.3).spectral(), 11)
    if case == "tps":
        return build_calibrated_tps(random_design(rng, 25, 2), df_multiplier=1.3).spectral()
    if case == "gaussian":
        return gaussian_smoother(rng.normal(size=20), h=0.7).spectral()
    if case == "uniform":
        x = rng.uniform(0, 1, size=(24, 1))
        design = DesignMatrix.from_array(x)
        sm = build_kernel_smoother(design, KernelSmootherSpec(kind="uniform", bandwidths=(0.1,)))
        spectral = sm.spectral()
        assert spectral.lam.min() < 0  # mu = 1 - lambda > 1
        return spectral
    # eigenvalues above one: mu = 1 - lambda < 0, so powers alternate in sign
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    lam = np.sort(np.r_[1.0, 1.6, 1.3, rng.uniform(0, 1, 9)])[::-1]
    return SpectralForm(d_half=np.ones(12), u=q, lam=lam, pd_family=False)


@pytest.mark.parametrize(
    "case", ["tps", "gaussian", "uniform", "negative_mu", "truncated_gaussian", "truncated_tps"]
)
@pytest.mark.parametrize("k_lo", [0, 1, 37])
@pytest.mark.parametrize("rows", [7, 17])
def test_batch_blocks_match_pointwise(case, k_lo, rows, rng, monkeypatch):
    spectral = _sweep_spectral(case, rng)
    path = KPath(spectral, rng.normal(size=spectral.n))
    if case == "negative_mu":
        assert np.any(path.mu < 0)
    if case.startswith("truncated"):
        assert spectral.rank < spectral.n
    # the byte budget of 7 rows of the kept pairs sets the sweep's blocks;
    # blocks of `rows` counts (7, or 17 past the budget) reuse one base
    monkeypatch.setattr(engine, "_SWEEP_BLOCK_BYTES", 8 * spectral.rank * 7)
    assert path.sweep_rows == 7
    blocks = _sweep(path, k_lo, k_lo + 150, rows)
    assert {b[0].size for b in blocks[:-1]} == {rows}
    # the ranges took the recurrence, every block on one base of `rows` powers
    assert path._sweep[0].shape[0] == rows
    ks = np.concatenate([b[0] for b in blocks])
    assert ks.tolist() == list(range(k_lo, k_lo + 151))
    df, rss, energy = (np.concatenate([b[i] for b in blocks]) for i in (1, 2, 3))
    # z'Hz - 2 z'Hv + v'Hv cancels to about eps |z|_H^2 where the fit is tiny
    floor = 1e-12 * path.rss(0)
    for i, k in enumerate(ks):
        assert df[i] == pytest.approx(path.df(k), rel=1e-12, abs=1e-12)
        assert rss[i] == pytest.approx(path.rss(k), rel=1e-12)
        assert energy[i] == pytest.approx(path.fitted_energy(k), rel=1e-12, abs=floor)


def test_batch_df_matches_long_double_reference():
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double here")
    # the tps_sweep benchmark's 30 x 30 grid
    design, y, _ = make_wendelberger_data(n_axis=30, seed=1)
    spectral = build_calibrated_tps(design, df_multiplier=1.1).spectral()
    path = KPath(spectral, y)
    # same double mu as the path; only the powers and the sum go wider
    mu = path.mu.astype(np.longdouble)
    wanted = (1, 1000, 100000)
    got = {}
    for ks, df, _, _ in _sweep(path, 1, 100000, path.sweep_rows):
        for k in wanted:
            if ks[0] <= k <= ks[-1]:
                got[k] = df[k - ks[0]]
    for k in wanted:
        ref = spectral.n - np.sum(mu**k)
        assert abs(got[k] - ref) <= 5e-14 * ref, k


def test_rejects_bad_inputs():
    spectral = two_point_spectral()
    with pytest.raises(ValueError, match="entries"):
        KPath(spectral, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        KPath(spectral, np.array([1.0, np.nan]))
    path = KPath(spectral, Y_2)
    with pytest.raises(ValueError, match="iteration count"):
        path.fitted(-1)
    with pytest.raises(ValueError, match="recursion"):
        iterate_fitted_recursive(spectral.reconstruct(), Y_2, 1.5)


def test_symmetric_path_shares_the_eigenvectors(rng):
    """For a symmetric form G = U: the path reaches U through the form and
    holds no n x n array of its own, dense U (kernel) or factored (TPS)."""
    for spectral in (
        two_point_spectral(),
        build_calibrated_tps(random_design(rng, 25, 2), df_multiplier=1.3).spectral(),
    ):
        assert spectral.symmetric
        path = KPath(spectral, rng.normal(size=spectral.n))
        held = [v for v in vars(path).values() if isinstance(v, np.ndarray)]
        assert held and max(v.size for v in held) < spectral.n**2
        np.testing.assert_allclose(path.fitted(3), spectral.dense_u() @ (path.weights(3) * path.z))
