"""Product-kernel smoother: hand oracles, calibration, guard rails."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibrsmooth import (
    CalibrationError,
    DesignMatrix,
    KernelPredictor,
    KernelSmootherSpec,
    SmootherConfig,
    build_kernel_smoother,
    calibrate_bandwidth,
    calibrate_total_df,
    fit,
)
from ibrsmooth import chebyshev, kernel_smoother, smoothers
from ibrsmooth.kernels import kernel_values

from conftest import direct_average, gaussian_smoother, random_design


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
        sm.predictor(np.ones(3)).predict(np.array([[5.0]]))


def test_evaluate_reads_a_vector_as_points_of_a_one_column_design(rng):
    """A predictor of the base smoother reads x[:3] as three points, not one
    row of three, as the fit's ``predict`` does."""
    x = rng.uniform(size=40)
    result = fit(x, np.sin(6 * x) + rng.normal(0, 0.1, 40))
    predictor = result.base.predictor(result.beta)
    got = predictor.predict(x[:3])
    assert got.shape == (3,)
    np.testing.assert_array_equal(got, predictor.predict(x[:3, None]))
    np.testing.assert_allclose(got, result.predict(x[:3]), rtol=1e-12)
    # within two rounding floors eps (|w| . |beta|) / (w . 1) of the weights' average
    w = kernel_smoother.product_kernel(x[:3, None], x[:, None], "gaussian", result.predictor.bandwidths)
    floor = EPS * (w @ np.abs(result.beta)) / w.sum(axis=1)
    assert np.all(np.abs(got - (w @ result.beta) / w.sum(axis=1)) <= 2.0 * floor)
    with pytest.raises(ValueError, match="row 1 has non-finite"):
        predictor.predict(np.array([0.5, np.nan]))


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


@pytest.mark.parametrize("p", [16, 32, 128])
def test_chebyshev_terms_are_the_barycentric_terms_bit_for_bit(p):
    """Entry (k, i) is w_k / (t_i - z_k) to the bit, infinite where t_i is
    the node z_k."""
    nodes, w = chebyshev._chebyshev_nodes(p)
    t = np.random.default_rng(p).uniform(-1, 1, 1500)
    t[[0, 700, 1499]] = nodes[[0, p // 2, p - 1]]
    with np.errstate(divide="ignore"):
        terms = chebyshev._chebyshev_terms(t, p)
        expected = np.array([[wk / (ti - zk) for ti in t] for zk, wk in zip(nodes, w)])
    assert terms.shape == (p, t.size) and np.isinf(terms).sum() == 3
    assert np.array_equal(terms, expected)


def test_chebyshev_factor_gives_a_point_on_a_node_its_unit_row():
    """A point exactly on a node interpolates by that node alone; the rows
    around it keep the barycentric weights of a batch with no such point.
    The factor is node-major, so a point's row is a column of it."""
    nodes = chebyshev._chebyshev_nodes(16)[0]
    t = np.array([0.3, nodes[5], -0.7, nodes[0]])
    left = chebyshev._chebyshev_factor(t, 16)
    assert np.array_equal(left[:, 1], np.eye(16)[5])
    assert np.array_equal(left[:, 3], np.eye(16)[0])
    off = chebyshev._chebyshev_factor(t[[0, 2]], 16)
    assert np.array_equal(left[:, [0, 2]], off)
    np.testing.assert_allclose(off.sum(axis=0), 1.0, rtol=1e-14)


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


# p nodes serve a column up to its limit (``chebyshev._NODE_LIMITS``): about
# 0.47 (p = 16), 2.4, 6.8, 15.4, 31.8, 63.8, 128 and 256 (p = 2048)
# bandwidths per half range. These ratios fall 10% either side of each limit
# up to p = 1024, and between them
TAIL_RATIOS = (
    0.2, 0.43, 0.52, 1.2, 2.2, 2.7, 4.5, 6.2, 7.5, 11.0, 14.0,
    17.0, 23.0, 29.0, 35.0, 47.0, 58.0, 70.0, 95.0, 116.0, 141.0,
)
NODE_COUNTS = (16, 32, 64, 128, 256, 512, 1024)

# the tail rule and the bisection that placed ``chebyshev._NODE_LIMITS``:
# the smallest count, the rule's threshold on the trailing coefficients
# relative to the largest, and the halvings of each bisection
FACTOR_NODES = 16
FACTOR_TAIL = 1e-15
LIMIT_STEPS = 24


def dct(p: int) -> np.ndarray:
    """The unnormalized p x p DCT-II, B_la = cos(pi l (2a + 1) / 2p). The
    angles are reduced modulo 2 pi in integers, l (2a + 1) mod 4p, before the
    cosine: unreduced, they reach 2 p pi, where their rounding alone moves
    entries of B by up to 1.7e-13 at p = 512, far above the tail rule's
    ``FACTOR_TAIL``."""
    turns = np.arange(p)[:, None] * (2 * np.arange(p) + 1) % (4 * p)
    return np.cos(turns * (0.5 * np.pi / p))


def tail_peak(kc: np.ndarray, dct: np.ndarray) -> float:
    """max |C[-2:]| / 4 for the 2-D Chebyshev coefficients C = 4 B K_c B'
    of the p x p symmetric ``kc``, B the unnormalized DCT-II ``dct``
    (:func:`dct`), so c_00 = 4 sum K_c. K_c is symmetric, so the last two
    columns of C are its last two rows transposed, and those take two
    products with B, O(p^2) against O(p^3) for all of C."""
    return float(np.abs((dct[-2:] @ kc) @ dct.T).max())


def passes_tail_rule(p, ratio):
    kc = chebyshev._node_kernel(p, ratio)
    return tail_peak(kc, dct(p)) <= FACTOR_TAIL * kc.sum()


@functools.cache
def node_limit(p: int) -> float:
    """The largest ratio that p Chebyshev nodes serve (tail rule): the last
    two rows and columns of the p x p node kernel's 2-D Chebyshev
    coefficients lie below ``FACTOR_TAIL`` of the largest (:func:`tail_peak`).

    Near its threshold the rule flips back and forth with the rounding of
    the coefficients (within 0.05 of it at p = 16 to 128), so the limit is
    the lower end, which passes the rule, of a fixed bisection:
    ``LIMIT_STEPS`` halvings of [limit at p / 2, p] ([0, 16] at 16)."""
    lo, hi = (node_limit(p // 2) if p > FACTOR_NODES else 0.0), float(p)
    b = dct(p)
    for _ in range(LIMIT_STEPS):
        mid = 0.5 * (lo + hi)
        kc = chebyshev._node_kernel(p, mid)
        if tail_peak(kc, b) <= FACTOR_TAIL * kc.sum():
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("p", NODE_COUNTS)
def test_tail_rule_decides_as_the_full_dct(p):
    """The two-row tail check accepts exactly the node kernels whose full
    2-D DCT-II (scipy's ``dctn``, the reference) puts its last two rows and
    columns below the tail threshold, and reads the same ratio to within
    rounding."""
    from scipy.fft import dctn

    decisions = []
    for ratio in TAIL_RATIOS:
        kc = chebyshev._node_kernel(p, ratio)
        coef = np.abs(dctn(kc, type=2))
        want = max(coef[-2:].max(), coef[:, -2:].max()) / coef.max()
        got = tail_peak(kc, dct(p)) / kc.sum()
        assert abs(got - want) <= 4e-16
        assert (got <= FACTOR_TAIL) == (want <= FACTOR_TAIL)
        decisions.append(want <= FACTOR_TAIL)
    assert any(decisions) and not all(decisions)


@pytest.mark.parametrize("p", [16, 32, 64, 128])
def test_node_counts_do_not_depend_on_call_order(p):
    """Within 0.05 of each limit the tail rule itself flips back and forth
    with rounding. Fed a dense scan of that band in increasing, decreasing
    and shuffled order, ``_accepted_nodes`` gives every ratio the same
    answer: p up to the limit, 2p above it, with the node kernel at the
    ratio."""
    limit = chebyshev._NODE_LIMITS[p]
    ratios = np.linspace(limit - 0.05, limit + 0.05, 2001)
    n = chebyshev._FACTOR_GATE * 2 * p
    orders = (ratios, ratios[::-1], np.random.default_rng(p).permutation(ratios))
    for order in orders:
        found = {r: chebyshev._accepted_nodes(r, n) for r in order}
        assert [found[r][0] for r in ratios] == [p if r <= limit else 2 * p for r in ratios]
        for r in ratios[::100]:
            np.testing.assert_array_equal(found[r][1], chebyshev._node_kernel(found[r][0], r))


def test_node_limits_increase_with_the_count_and_pass_the_tail_rule():
    """Each limit is a ratio that passes the tail rule at its count, and a
    larger count serves a strictly wider column. Outside the band where
    rounding decides, the limits split the ratios as the rule does: it
    passes 0.1 below each limit and fails 0.1 above it."""
    counts, limits = zip(*chebyshev._NODE_LIMITS.items())
    assert counts == (*NODE_COUNTS, 2048)
    assert all(a < b for a, b in zip(limits, limits[1:])), limits
    for p, limit in zip(counts, limits):
        assert passes_tail_rule(p, limit), (p, limit)
        assert passes_tail_rule(p, limit - 0.1) and not passes_tail_rule(p, limit + 0.1)
    # the TAIL_RATIOS comment
    assert limits == pytest.approx([0.47, 2.4, 6.8, 15.4, 31.8, 63.8, 128.0, 256.2], rel=0.02)


def test_node_limits_are_the_bisection_of_the_tail_rule():
    """Every literal limit is the fixed bisection of the tail rule, bit for
    bit, re-derived here from p = 16 up (about 0.9 s, 0.65 s of it at
    p = 2048). The rule flips with the rounding of ``exp``, ``cos`` and the
    BLAS near each limit, so another machine may place a limit elsewhere;
    the literals decide the node counts there all the same."""
    assert {p: node_limit(p) for p in chebyshev._NODE_LIMITS} == chebyshev._NODE_LIMITS


def test_columns_past_the_last_limit_take_no_nodes():
    """Past p = 2048's limit no count serves, however many rows there are,
    and a column takes the exact route; below it, a design with rows enough
    takes 2048 nodes."""
    assert chebyshev._accepted_nodes(256.2, 10**6)[0] == 2048
    assert chebyshev._accepted_nodes(256.3, 10**6) is None


def test_gaussian_calibration_holds_no_n_by_n_array():
    """Per variable on one column, and a total df on two."""
    n = 4000
    col = np.random.default_rng(4).uniform(size=n)
    x = np.random.default_rng(5).uniform(size=(n, 2))
    for calibrate in (
        lambda: calibrate_bandwidth(col, "gaussian", 1.1),
        lambda: calibrate_total_df(x, "gaussian", 2.2),
    ):
        tracemalloc.start()
        try:
            calibrate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


def _long_double_trace(x, h):
    """Trace and d trace / d log c of the Gaussian product smoother with
    bandwidths c h at c = 1, from the full n x n kernel in long double."""
    xl, hl = x.astype(np.longdouble), np.asarray(h, dtype=np.longdouble)
    u2 = sum(np.subtract.outer(col, col) ** 2 / hj**2 for col, hj in zip(xl.T, hl))
    kmat = np.exp(-0.5 * u2)
    sums = kmat.sum(axis=1)
    slopes = (kmat * u2).sum(axis=1)
    return float(np.sum(1.0 / sums)), float(-np.sum(slopes / sums**2))


@pytest.mark.parametrize(
    "dist, target", [("uniform", 2.2), ("normal", 1.5), ("lognormal", 1.5), ("lognormal", 2.2)]
)
def test_total_df_node_path_matches_the_n_by_n_kernel(monkeypatch, dist, target):
    """Two columns, n = 1500: at the calibrated factor, the trace and slope
    from the columns' Chebyshev nodes agree with the long-double n x n
    kernel's to 1e-13 and 1e-11 relative, and the bandwidths with the
    exact form's to 1e-12."""
    x = getattr(np.random.default_rng(1500), dist)(size=(1500, 2))
    built = _record_factors(monkeypatch)
    h = calibrate_total_df(x, "gaussian", target)
    built.clear()
    trace, slope = kernel_smoother._trace_objective(x, "gaussian", h)(1.0)
    assert built == [32, 32]
    ref_trace, ref_slope = _long_double_trace(x, h)
    assert trace == pytest.approx(ref_trace, rel=1e-13)
    assert slope == pytest.approx(ref_slope, rel=1e-11)
    refused = []
    monkeypatch.setattr(kernel_smoother, "_affordable_nodes", lambda ratios, n: refused.append(n))
    assert list(h) == pytest.approx(calibrate_total_df(x, "gaussian", target), rel=1e-12)
    assert refused and built == [32, 32]


def test_three_columns_with_more_nodes_than_rows_take_the_exact_form(monkeypatch):
    """16 nodes per column at the least, and 16^3 > n = 1000: every
    evaluation takes the exact form, with no interpolation rows built."""
    x = np.random.default_rng(9).uniform(size=(1000, 3))
    built = _record_factors(monkeypatch)
    h = calibrate_total_df(x, "gaussian", 3.3)
    assert built == []
    trace = kernel_smoother._trace_objective(x, "gaussian", h)(1.0)[0]
    assert trace == pytest.approx(3.3, abs=1e-4)
    assert trace == pytest.approx(_long_double_trace(x, h)[0], rel=1e-13)


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


def test_total_df_target_and_columns_are_checked():
    """A total df target must lie in (1, n), and every column must vary; the
    refusal names the constant columns."""
    x = np.random.default_rng(8).uniform(size=(20, 3))
    for target in (1.0, 0.5, 20.0, 25.0):
        with pytest.raises(ValueError, match=r"total df target must lie in \(1, 20\)"):
            calibrate_total_df(x, "gaussian", target)
    x[:, 0] = 2.0
    x[:, 2] = -1.0
    with pytest.raises(CalibrationError, match=r"constant columns \['x1', 'x3'\]"):
        calibrate_total_df(x, "gaussian", 2.0)


def test_uniform_kernel_unreachable_target_names_the_fix():
    # a clustered column makes the uniform-kernel trace jump discontinuously
    x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(CalibrationError, match="gaussian"):
        calibrate_bandwidth(x, "uniform", 1.5)


@pytest.mark.parametrize("kind", ["gaussian", "triangle", "quartic", "epanechnikov", "uniform"])
def test_product_kernel_matches_columnwise_product(rng, kind):
    """A compact kernel's in-place basis gives the same bits as multiplying
    freshly evaluated kernel columns into a matrix of ones. The Gaussian
    takes one exp per pair: it gives the bits of a broadcast reference of
    that formula (columns centred on the training box and scaled by
    sqrt(1/2) / h once, squared gaps summed in column order, exp of the
    negated sum, times K(0)^3), and the columnwise product to 1e-14 of
    each weight."""
    x = rng.uniform(size=(25, 3))
    x_new = rng.uniform(size=(7, 3))
    h = (0.4, 0.7, 0.55)
    expected = np.ones((7, 25))
    for j in range(3):
        expected *= kernel_values((x_new[:, j, None] - x[None, :, j]) / h[j], kind)
    got = kernel_smoother.product_kernel(x_new, x, kind, h)
    if kind != "gaussian":
        assert np.array_equal(got, expected)
        return
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
    centre = 0.5 * x.max(axis=0) + 0.5 * x.min(axis=0)
    scale = np.sqrt(0.5) / np.asarray(h)
    a, b = (x_new - centre) * scale, (x - centre) * scale
    k0 = kernel_values(np.zeros(1), kind)[0] ** 3
    assert np.array_equal(got, np.exp(-(((a[:, None] - b[None]) ** 2).sum(2))) * k0)


def test_gaussian_weights_ignore_a_shift_of_the_design(rng):
    """The Gaussian centres both point sets on the training box before it
    scales them, so a shift far from the origin costs no accuracy: on
    dyadic points, which a shift by 2^20 moves exactly, the weights keep
    their bits (scaled before centring, they lose about 1e-11 of each
    weight at a shift of 1e4)."""
    x = rng.integers(0, 64, size=(40, 2)) / 64.0
    x_new = rng.integers(0, 64, size=(9, 2)) / 64.0
    h = (0.3, 0.2)
    want = kernel_smoother.product_kernel(x_new, x, "gaussian", h)
    got = kernel_smoother.product_kernel(x_new + 2.0**20, x + 2.0**20, "gaussian", h)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["gaussian", "triangle"])
def test_blocked_prediction_matches_full_weights(rng, monkeypatch, kind):
    """Row blocks of 8 over 21 rows (8 + 8 + 5) give the full-matrix answer,
    for a coefficient vector and for an (n, 3) block of them."""
    monkeypatch.setattr(smoothers, "_PREDICT_BLOCK_BYTES", 8 * 8 * 30)
    x = rng.uniform(size=(30, 2))
    x_new = rng.uniform(size=(21, 2))
    h = (0.6, 0.8)
    beta = rng.normal(size=30)
    w = kernel_smoother.product_kernel(x_new, x, kind, h)
    sums = w.sum(axis=1)
    got = direct_average(x_new, x, kind, h, beta)
    np.testing.assert_allclose(got, (w @ beta) / sums, rtol=1e-13, atol=0)
    assert direct_average(x_new[:0], x, kind, h, beta).shape == (0,)
    coefs = rng.normal(size=(30, 3))
    got = direct_average(x_new, x, kind, h, coefs)
    np.testing.assert_allclose(got, (w @ coefs) / sums[:, None], rtol=1e-13, atol=0)
    assert direct_average(x_new[:0], x, kind, h, coefs).shape == (0, 3)


def test_block_buffers_start_on_a_cache_line(rng):
    """The reused block and its scratch start on 64-byte boundaries, which
    malloc's 16-byte alignment leaves to the heap's state."""
    x, x_new = rng.uniform(size=(30, 2)), rng.uniform(size=(21, 2))
    seen = []

    def fill(rows, block, scratch):
        seen.append((block.ctypes.data % 64, scratch.ctypes.data % 64))
        block.fill(0.0)

    for shape in [(1,), (3, 5), (16, 30)]:
        buf = smoothers._cache_aligned(shape)
        assert buf.shape == shape and buf.flags.c_contiguous
        assert buf.ctypes.data % 64 == 0
    smoothers._fill(smoothers._pairwise_blocks(x_new, x, fill))
    assert seen == [(0, 0)]


def test_evaluate_at_training_rows_is_the_matrix(rng):
    design = random_design(rng, 20, 2)
    sm = build_kernel_smoother(
        design, KernelSmootherSpec(kind="gaussian", bandwidths=(0.8, 1.2))
    )
    for coef in (rng.normal(size=20), rng.normal(size=(20, 3))):
        got = sm.predictor(coef).predict(design.x)
        assert got.shape == coef.shape
        np.testing.assert_allclose(got, sm.matrix @ coef, rtol=1e-12, atol=1e-14)


def test_blocked_prediction_names_dead_rows_of_every_block(rng, monkeypatch):
    monkeypatch.setattr(smoothers, "_PREDICT_BLOCK_BYTES", 8 * 8 * 10)
    x = rng.uniform(size=(10, 1))
    x_new = rng.uniform(size=(20, 1))
    x_new[[3, 17]] = 5.0
    with pytest.raises(ValueError, match=r"prediction rows \[3, 17\]"):
        direct_average(x_new, x, "triangle", (0.5,), np.ones(10))


def test_unreachable_target_cannot_be_bracketed():
    # two distinct values: the trace stays below 2 at every bandwidth
    x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(CalibrationError, match="bracket"):
        calibrate_bandwidth(x, "gaussian", 2.5)


def _decaying_trace(level, calls):
    """trace(x) = level + 1/x and its slope in log x, each call's x kept."""

    def trace(x):
        calls.append(x)
        return level + 1.0 / x, -1.0 / x

    return trace


def test_root_finder_moves_the_upper_end_out_to_the_root():
    """The root of 1 + 1/x = 1 + 1e-5, x = 1e5, lies two decades above the
    bracket [1e-3, 1e3]: the search moves its upper end out tenfold twice,
    evaluating 1, 1e3 and 1e4 before it lands on the root."""
    calls = []
    x = smoothers._log_newton_root(
        _decaying_trace(1.0, calls), 1.0 + 1e-5, 1.0, 1e-3, 1e3, "test", 1e-9
    )
    assert x == pytest.approx(1e5, rel=1e-9)
    assert len(calls) == 4
    np.testing.assert_allclose(calls[:3], [1.0, 1e3, 1e4], rtol=1e-12)


def test_root_finder_gives_up_after_its_widest_range():
    """2 + 1/x never falls to 1.5: after ten tenfold moves of the upper end
    the search names the end it reached."""
    calls = []
    with pytest.raises(CalibrationError, match=r"could not bracket the test target 1\.5: .* at 1\.000e\+13"):
        smoothers._log_newton_root(_decaying_trace(2.0, calls), 1.5, 1.0, 1e-3, 1e3, "test", 1e-9)
    assert calls[-1] == pytest.approx(1e13, rel=1e-12)


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


# ------------------------------------------ prediction tables at the nodes

EPS = float(np.finfo(float).eps)
EXTENDED = np.finfo(np.longdouble).eps < EPS


def floor_units(pred: KernelPredictor, x_new, got):
    """|got - reference| per row in units of that row's rounding floor,
    eps (|w| . |beta|) / (w . 1), with the Gaussian weights w and the
    kernel average taken in extended precision (mpmath on hosts whose
    long double is a plain double; those check every tenth row)."""
    x, h, beta = pred.x_train, pred.bandwidths, pred.beta
    if EXTENDED:
        ld = np.longdouble
        w = np.ones((len(x_new), len(x)), dtype=ld)
        for j in range(x.shape[1]):
            u = (x_new[:, j, None].astype(ld) - x[None, :, j].astype(ld)) / ld(h[j])
            w *= np.exp(-u * u / 2)
        b = beta.astype(ld)
        sums = w.sum(axis=1)
        err = np.abs(got.astype(ld) - (w @ b) / sums)
        return np.asarray(err / (EPS * (w @ np.abs(b)) / sums), dtype=float)
    import mpmath

    mpmath.mp.dps = 40
    units = []
    for i in range(0, len(x_new), 10):
        w = [
            mpmath.exp(-sum(((mpmath.mpf(x_new[i, j]) - mpmath.mpf(xi[j])) / h[j]) ** 2
                            for j in range(x.shape[1])) / 2)
            for xi in x
        ]
        sums = mpmath.fsum(w)
        ref = mpmath.fdot(w, [mpmath.mpf(b) for b in beta]) / sums
        floor = EPS * mpmath.fdot(w, [abs(mpmath.mpf(b)) for b in beta]) / sums
        units.append(float(abs(mpmath.mpf(got[i]) - ref) / floor))
    return np.array(units)


@pytest.fixture(scope="module")
def kernel_fit_sized():
    """A fit the size of the kernel_fit benchmark (n = 1500, d = 2, df 1.1,
    beta at the selected k) and new points drawn after its data."""
    rng = np.random.default_rng([1, 0])
    x = rng.uniform(size=(1500, 2))
    y = np.sin(6.0 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0.0, 0.1, 1500)
    result = fit(x, y, smoother=SmootherConfig(df=1.1))
    return result.predictor, rng.uniform(size=(2000, 2))


def test_shifted_batches_agree_to_the_rounding_floor(kernel_fit_sized):
    """Same batch, same bits; a row shifted by 1-3 places in its batch may
    change its last bits, but by no more than its rounding floor
    eps (|w| . |beta|) / (w . 1)."""
    pred, x_new = kernel_fit_sized
    x, h, beta = pred.x_train, pred.bandwidths, pred.beta
    x_new = x_new[:500]
    whole = direct_average(x_new, x, "gaussian", h, beta)
    assert np.array_equal(whole, direct_average(x_new, x, "gaussian", h, beta))
    w = kernel_smoother.product_kernel(x_new, x, "gaussian", h)
    floor = EPS * (w @ np.abs(beta)) / w.sum(axis=1)
    for shift in (1, 2, 3):
        got = direct_average(x_new[shift:], x, "gaussian", h, beta)
        assert np.all(np.abs(got - whole[shift:]) <= floor[shift:])


def fresh(pred: KernelPredictor) -> KernelPredictor:
    """The same predictor with no tables built yet."""
    return KernelPredictor(pred.x_train, pred.kind, pred.bandwidths, pred.beta)


def grid_rows(pred: KernelPredictor) -> int:
    """The fewest rows of a batch that takes the table route."""
    return int(np.ceil(pred._tables.cost / pred.x_train.shape[1]))


def tables_built(pred: KernelPredictor) -> bool:
    """Whether the predictor has built its tables (its first batch large
    enough to pay for them has run)."""
    tables = vars(pred).get("_tables")
    return tables is not None and "table" in vars(tables)


def in_box(pred: KernelPredictor, x_new) -> np.ndarray:
    x = pred.x_train
    return np.all((x_new >= x.min(axis=0)) & (x_new <= x.max(axis=0)), axis=1)


def test_grid_prediction_is_within_the_rounding_floor(kernel_fit_sized):
    pred, x_new = kernel_fit_sized
    x_new = x_new[in_box(pred, x_new)]
    got = pred.predict(x_new)
    assert tables_built(pred) and pred._tables.sizes == (32, 32)
    assert floor_units(pred, x_new, got).max() <= 1.0


def one_column_fit():
    """n = 300 on exactly [-1, 1], so the unit map is the identity and a
    row placed on a node lands on it exactly."""
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, 300)
    x[:2] = -1.0, 1.0
    y = np.sin(3.0 * x) + rng.normal(0.0, 0.1, 300)
    return fit(x, y, smoother=SmootherConfig(df=1.1)).predictor


def three_column_predictor():
    """n = 4200, d = 3, wide bandwidths: 16^3 = 4096 nodes."""
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(4200, 3))
    return KernelPredictor(x, "gaussian", np.full(3, 1.5), rng.normal(size=4200) * 1e4)


def span_rule_fit():
    """n = 300 in one column, bandwidth explicit at 1.4 bandwidths per half
    range, near the span rule's limit of 1.5, where the tables round the
    most. A margin where the interpolant may grow to 2 reads 1.14 floor
    units here; the margin's growth, 1.5 / 1.4, leaves 0.80."""
    rng = np.random.default_rng(166)
    x = rng.uniform(size=300)
    y = np.sin(6.0 * x) + rng.normal(0.0, 0.1, 300)
    h = (x.max() - x.min()) / 2.0 / 1.4
    return fit(x, y, smoother=SmootherConfig(bandwidths=(h,))).predictor


def wide_span_fit():
    """n = 300, df 5 in one column: 5.6 bandwidths per half range, where
    tables read 7.6 floor units, so it must predict directly."""
    rng = np.random.default_rng(9)
    x = rng.uniform(size=300)
    y = np.sin(6.0 * x) + rng.normal(0.0, 0.1, 300)
    return fit(x, y, smoother=SmootherConfig(df=5)).predictor


@pytest.mark.parametrize(
    "make, sizes",
    [(one_column_fit, (32,)), (three_column_predictor, (16, 16, 16)), (wide_span_fit, None)],
)
def test_grid_prediction_within_the_floor_in_one_and_three_columns(make, sizes):
    pred = make()
    x = pred.x_train
    rng = np.random.default_rng(11)
    x_new = x.min(axis=0) + (x.max(axis=0) - x.min(axis=0)) * rng.uniform(size=(700, x.shape[1]))
    got = pred.predict(x_new)
    if sizes is None:
        assert pred._tables is None
        direct = direct_average(x_new, x, pred.kind, pred.bandwidths, pred.beta)
        assert np.array_equal(got, direct)
        return
    assert len(x_new) >= grid_rows(pred)
    assert tables_built(pred) and pred._tables.sizes == sizes
    assert np.prod(sizes) <= len(x)
    assert floor_units(pred, x_new, got).max() <= 1.0


def test_grid_prediction_on_faces_corners_and_nodes(kernel_fit_sized):
    pred, _ = kernel_fit_sized
    grid = pred._tables
    lo, hi = pred.x_train.min(axis=0), pred.x_train.max(axis=0)
    rng = np.random.default_rng(12)
    corners = np.array([[a, b] for a in (lo[0], hi[0]) for b in (lo[1], hi[1])])
    faces = []
    for j in range(2):
        for end in (lo[j], hi[j]):
            rows = lo + (hi - lo) * rng.uniform(size=(10, 2))
            rows[:, j] = end
            faces.append(rows)
    z = [chebyshev._chebyshev_nodes(p)[0] for p in grid.sizes]
    nodes = np.stack(np.meshgrid(*z, indexing="ij"), axis=-1).reshape(-1, 2)
    nodes = np.clip(grid.centre + grid.half * nodes, lo, hi)
    x_new = np.vstack([corners, *faces, nodes])
    assert in_box(pred, x_new).all()
    assert floor_units(pred, x_new, pred.predict(x_new)).max() <= 1.0

    one = one_column_fit()
    z = chebyshev._chebyshev_nodes(32)[0]
    # with rows enough for the batch to take the tables
    x_new = np.concatenate([z, [-1.0, 1.0], rng.uniform(-1.0, 1.0, grid_rows(one))])[:, None]
    got = one.predict(x_new)
    assert tables_built(one) and one._tables.sizes == (32,)
    # on the identity map each row sits exactly on its node
    assert np.array_equal((x_new[:32, 0] - one._tables.centre) / one._tables.half, z)
    assert floor_units(one, x_new, got).max() <= 1.0


def test_grid_build_holds_no_n_by_m_array(kernel_fit_sized):
    pred, x_new = kernel_fit_sized
    pred = fresh(pred)
    n, m = len(pred.x_train), len(x_new)
    assert m > n
    tracemalloc.start()
    try:
        pred.predict(x_new)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables_built(pred)
    # an eighth of one n x n array, so of any n x m one too
    assert peak < n * n * 8 / 8


def margins(pred: KernelPredictor) -> np.ndarray:
    """Per column, how far outside the training box a row still takes the
    tables: half_j (acosh(g_j) / p_j)^2 / 2, where T_{p_j} grows to
    g_j = min(2, 1.5 / span_j), span_j = half_j / h_j."""
    tables = pred._tables
    growth = np.minimum(2.0, 1.5 * pred.bandwidths / tables.half)
    return tables.half * np.arccosh(growth) ** 2 / (2.0 * np.array(tables.sizes) ** 2)


def pushed_out(pred: KernelPredictor, m: int, fractions, corners, seed: int) -> np.ndarray:
    """The 2^d points ``corners`` (one low and one high end per column)
    and m more rows with at least one column (each other one by a coin
    toss) pushed past a random end of the training box by a fraction drawn
    between the pair ``fractions`` of that column's margin, the other
    columns uniform in the box."""
    x, rng = pred.x_train, np.random.default_rng(seed)
    lo, hi, margin = x.min(axis=0), x.max(axis=0), margins(pred)
    m, d = m - 2 ** x.shape[1], x.shape[1]
    inside = lo + (hi - lo) * rng.uniform(size=(m, d))
    out = rng.uniform(size=(m, d)) < 0.5
    out[np.arange(m), rng.integers(d, size=m)] = True
    frac = rng.uniform(*fractions, size=(m, d))
    above = rng.uniform(size=(m, d)) < 0.5
    rows = np.where(out, np.where(above, hi + frac * margin, lo - frac * margin), inside)
    return np.vstack([list(itertools.product(*zip(*corners))), rows])


@pytest.mark.parametrize(
    "make", ["kernel_fit_sized", one_column_fit, three_column_predictor, span_rule_fit]
)
def test_rows_in_the_margin_take_the_tables(make, request):
    """Rows outside the training box by at most the tables' margin on every
    column, faces, edges and corners, are clipped to the widened box and
    answered by the tables within one rounding floor of the
    extended-precision reference (worst rows 0.55, 0.20, 0.24 and 0.80
    floor units). Rows beyond it by a factor 1 + 1e-9 on at least one
    column get the direct route's bits."""
    pred = fresh(request.getfixturevalue(make)[0] if isinstance(make, str) else make())
    rows = max(grid_rows(pred), 200)
    tables, box = pred._tables, (pred.x_train.min(axis=0), pred.x_train.max(axis=0))
    assert np.allclose(tables.lo, box[0] - margins(pred), rtol=0.0, atol=1e-15)
    assert np.allclose(tables.hi, box[1] + margins(pred), rtol=0.0, atol=1e-15)
    # the corners of the widened box, a whole margin out on every column
    near = pushed_out(pred, rows, (0.1, 1.0), (tables.lo, tables.hi), seed=21)
    assert not in_box(pred, near).any()
    assert np.all((near >= tables.lo) & (near <= tables.hi))
    got = pred.predict(near)
    assert tables_built(pred)
    # the tables' own answer, not the direct route's
    assert np.array_equal(got, tables.interpolate(near))
    assert floor_units(pred, near, got).max() <= 1.0

    out = (1.0 + 1e-9) * margins(pred)
    beyond = pushed_out(pred, rows, (1.0 + 1e-9,) * 2, (box[0] - out, box[1] + out), seed=22)
    past = np.any((beyond < tables.lo) | (beyond > tables.hi), axis=1)
    assert past.all()
    batch = np.vstack([near, beyond])
    got = pred.predict(batch)
    direct = direct_average(
        beyond, pred.x_train, pred.kind, pred.bandwidths, pred.beta
    )
    assert np.array_equal(got[len(near):], direct)
    assert floor_units(pred, near, got[: len(near)]).max() <= 1.0


def test_rows_outside_the_box_take_the_direct_route(kernel_fit_sized):
    """The tables run on every row of the batch, each column clipped to the
    box widened by the tables' margin, and the rows beyond it are
    overwritten from the direct route, with its bits; the rows inside it,
    in the box or in the margin, read at most one floor unit. A row far
    outside gives the tables a finite stand-in and no numpy warning (an
    error under pytest): 1e300 half-ranges out, unclipped, its
    interpolation rows would overflow. At 1e6 half-ranges its Gaussian
    weights all underflow, so the direct route refuses it, naming it as
    the direct route does on its own."""
    pred, _ = kernel_fit_sized
    x_new = np.random.default_rng(13).uniform(-0.2, 1.2, size=(500, 2))
    tables = pred._tables
    # a few rows in the margin of each column
    x_new[:4] = tables.hi - 0.5 * margins(pred)
    x_new[4:8] = tables.lo + 0.5 * margins(pred)
    beyond = ~np.all((x_new >= tables.lo) & (x_new <= tables.hi), axis=1)
    assert 0 < beyond.sum() < 500 and not in_box(pred, x_new[:8]).any()
    got = pred.predict(x_new)
    assert tables_built(pred)
    direct = direct_average(
        x_new[beyond], pred.x_train, pred.kind, pred.bandwidths, pred.beta
    )
    assert np.array_equal(got[beyond], direct)
    assert floor_units(pred, x_new[~beyond], got[~beyond]).max() <= 1.0
    far = x_new.copy()
    others = ~beyond
    others[7] = False
    for half_ranges in (1e300, 1e6):
        far[7] = tables.hi + half_ranges * tables.half
        stand_in = tables.interpolate(far)
        assert np.isfinite(stand_in).all()
        assert np.array_equal(stand_in[others], got[others])
    message = r"prediction rows \[{}\] fall outside the kernel support of every design point"
    with pytest.raises(ValueError, match=message.format(7)):
        pred.predict(far)
    with pytest.raises(ValueError, match=message.format(0)):
        direct_average(far[7:8], pred.x_train, pred.kind, pred.bandwidths, pred.beta)


def on_nodes(tables, column: int, count: int) -> np.ndarray:
    """Points of one column of the data that the unit map sends exactly
    onto one of its Chebyshev nodes: for each node, the first of a few
    floats around its image that lands on it."""
    z = chebyshev._chebyshev_nodes(tables.sizes[column])[0]
    centre, half = tables.centre[column], tables.half[column]
    hits = []
    for node in z:
        point = centre + half * node
        for _ in range(8):
            if (point - centre) / half == node:
                hits.append(point)
                break
            point = np.nextafter(point, np.inf if (point - centre) / half < node else -np.inf)
    assert len(hits) >= count
    return np.array(hits[:count])


def test_rows_on_a_node_take_the_normalized_rows(kernel_fit_sized):
    """A row on a node of a column gets an infinite barycentric term, so
    the tables' unnormalized ratio reads inf / inf; the batch evaluates
    just those rows again from the normalized rows, with no numpy warning,
    and each lies within one rounding floor like every other row."""
    pred, x_new = kernel_fit_sized
    tables = pred._tables
    x_new = x_new[in_box(pred, x_new)][:300].copy()
    first, second = on_nodes(tables, 0, 10), on_nodes(tables, 1, 10)
    x_new[:10, 0] = first
    x_new[10:20, 1] = second
    x_new[20:30] = np.column_stack([first, second])
    t = tables._unit(x_new)
    with np.errstate(divide="ignore"):
        terms = [chebyshev._chebyshev_terms(col, p) for col, p in zip(t, tables.sizes)]
    hit = np.zeros(len(x_new), dtype=bool)
    for block in terms:
        hit |= np.isinf(block).any(axis=0)
    assert hit[:30].all() and not hit[30:].any()
    got = pred.predict(x_new)
    assert tables_built(pred) and np.isfinite(got).all()
    assert floor_units(pred, x_new, got).max() <= 1.0
    lefts = [chebyshev._chebyshev_factor(col[:30], p) for col, p in zip(t, tables.sizes)]
    num, den = chebyshev._interpolate(lefts, tables.table)
    assert np.array_equal(got[:30], num / den)


def same_bits_as_direct(pred: KernelPredictor, x_new):
    got = pred.predict(x_new)
    # no tables serve the fit, or none were built
    assert not tables_built(pred)
    direct = direct_average(x_new, pred.x_train, pred.kind, pred.bandwidths, pred.beta)
    assert np.array_equal(got, direct)


def test_triangle_kernel_takes_the_direct_route():
    rng = np.random.default_rng(14)
    x = rng.uniform(size=(400, 2))
    y = np.sin(6.0 * x[:, 0]) + rng.normal(0.0, 0.1, 400)
    pred = fit(x, y, smoother=SmootherConfig(kernel="triangle", df=1.1)).predictor
    same_bits_as_direct(pred, rng.uniform(size=(300, 2)))


def test_five_columns_exceed_the_node_budget():
    # 16^5 nodes is far more than n = 300 design points
    rng = np.random.default_rng(15)
    x = rng.uniform(size=(300, 5))
    pred = KernelPredictor(x, "gaussian", np.full(5, 2.0), rng.normal(size=300))
    same_bits_as_direct(pred, rng.uniform(size=(200, 5)))


def test_column_spanning_many_bandwidths_predicts_directly():
    # 50 bandwidths per half range: far past the span rule
    rng = np.random.default_rng(16)
    x = rng.uniform(size=(300, 1))
    pred = KernelPredictor(x, "gaussian", np.array([0.01]), rng.normal(size=300))
    same_bits_as_direct(pred, rng.uniform(size=(200, 1)))
    assert pred._tables is None


def test_design_with_more_nodes_than_rows_predicts_directly():
    # the fit's factor takes 32 nodes per column, and 32 x 32 > n = 300
    rng = np.random.default_rng(18)
    x = rng.uniform(size=(300, 2))
    y = np.sin(6.0 * x[:, 0]) + rng.normal(0.0, 0.1, 300)
    pred = fit(x, y, smoother=SmootherConfig(df=1.1)).predictor
    ratios = kernel_smoother._unit_box(x)[1] / pred.bandwidths
    assert [chebyshev._accepted_nodes(r, 300)[0] for r in ratios] == [32, 32]
    same_bits_as_direct(pred, rng.uniform(size=(300, 2)))
    assert "_tables" in vars(pred) and pred._tables is None


def test_design_that_thins_out_inside_the_box_fails_the_tail():
    """Two clusters with a gap: s falls by orders of magnitude between them.
    Tables at the fit's 128 nodes read 7e6 floor units in the gap (a grid
    whose tail was judged by the floor at its largest node read 1e7); the
    span rule, 10 bandwidths per half range, keeps this fit off them."""
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.uniform(0.0, 0.2, 1000), rng.uniform(0.8, 1.0, 1000)])[:, None]
    h, beta = np.array([0.05]), rng.normal(size=2000) * 1e3
    pred = KernelPredictor(x, "gaussian", h, beta)
    same_bits_as_direct(pred, np.linspace(0.0, 1.0, 201)[:, None])


def test_batch_takes_the_tables_only_when_it_pays_for_them(kernel_fit_sized):
    """A batch takes the tables only once its d kernel evaluations per row
    and design point cover building them, sum p_j + 0.25 prod p_j, whatever
    came before: 160 rows on the kernel_fit-sized fit."""
    pred, x_new = kernel_fit_sized
    pred = fresh(pred)
    rows = grid_rows(pred)
    assert rows == 160
    for batch in (x_new[:1], x_new[: rows - 1]):
        same_bits_as_direct(pred, batch)
    big = x_new[in_box(pred, x_new)][:rows]
    got = pred.predict(big)
    assert tables_built(pred) and pred._tables.sizes == (32, 32)
    assert floor_units(pred, big, got).max() <= 1.0
    # with the tables built, smaller batches still predict directly
    small = x_new[: rows - 1]
    direct = direct_average(small, pred.x_train, pred.kind, pred.bandwidths, pred.beta)
    assert np.array_equal(pred.predict(small), direct)
    assert np.array_equal(fresh(pred).predict(big), got)


def test_vector_evaluate_routes_as_a_fit_predicts(kernel_fit_sized):
    """A smoother's predictor of a coefficient vector routes as the fit's
    does: a batch large enough takes the tables, with the bits of the fit's
    own predictor and within the rounding floor eps (|w| . |beta|) / (w . 1)
    of the direct route; a coefficient block stays on the direct route,
    within two floor units of the product_kernel weights' average."""
    pred, x_new = kernel_fit_sized
    x, h, beta = pred.x_train, pred.bandwidths, pred.beta
    sm = build_kernel_smoother(x, KernelSmootherSpec(kind="gaussian", bandwidths=tuple(h)))
    x_new = x_new[:500]
    assert len(x_new) >= grid_rows(pred)
    got = sm.predictor(beta).predict(x_new)
    assert np.array_equal(got, fresh(pred).predict(x_new))
    direct = direct_average(x_new, x, "gaussian", h, beta)
    assert not np.array_equal(got, direct)
    w = kernel_smoother.product_kernel(x_new, x, "gaussian", h)
    floor = EPS * (w @ np.abs(beta)) / w.sum(axis=1)
    assert np.all(np.abs(got - direct) <= floor)
    block = np.column_stack([beta, -beta])
    both = sm.predictor(block).predict(x_new)
    assert np.array_equal(both[:, 1], -both[:, 0])
    assert np.all(np.abs(both - (w @ block) / w.sum(axis=1)[:, None]) <= 2.0 * floor[:, None])
    assert sm.predictor(block)._tables is None


def test_grid_route_keeps_the_error_messages(kernel_fit_sized):
    pred, x_new = kernel_fit_sized
    x_new = x_new[: grid_rows(pred)].copy()
    x_new[4] = 1e3
    # a gap that squares past the float range is refused, not warned about
    x_new[13] = (1e160, 0.5)
    with pytest.raises(ValueError, match=r"prediction rows \[4, 13\] fall outside the kernel support of every design point"):
        pred.predict(x_new)
    assert tables_built(pred)
    with pytest.raises(ValueError, match="expected 2 columns, got 3"):
        pred.predict(np.ones((4, 3)))


def test_one_column_batch_takes_the_tables_from_forty_rows():
    """One column of n = 300 takes 32 nodes, so a batch pays for the tables
    from (32 + 0.25 * 32) / 1 = 40 rows, known before any n-length work; a
    batch one row smaller predicts directly."""
    pred = one_column_fit()
    rows = grid_rows(pred)
    assert rows == 40
    x_new = np.random.default_rng(19).uniform(-1.0, 1.0, (rows, 1))
    same_bits_as_direct(pred, x_new[:-1])
    got = pred.predict(x_new)
    assert tables_built(pred) and pred._tables.sizes == (32,)
    assert floor_units(pred, x_new, got).max() <= 1.0


# ------------------------------------------ direct route: the expanded exponent


def spanned_case(span: float, d: int):
    """n = 300 uniform in d columns, each bandwidth ``span`` bandwidths per
    half range (rounded up, so that 1.5 meets the span rule), random
    coefficients, and 200 rows drawn on [0, 1]^d."""
    rng = np.random.default_rng([0, d])
    x = rng.uniform(size=(300, d))
    h = np.nextafter(0.5 * (x.max(axis=0) - x.min(axis=0)) / span, np.inf)
    return KernelPredictor(x, "gaussian", h, rng.normal(size=300)), rng.uniform(size=(200, d))


def subtracted(pred: KernelPredictor, x_new) -> np.ndarray:
    """The kernel average from the per-column subtraction of product_kernel,
    over the full weight matrix, numerators and row sums from one product
    with [beta, 1] as the direct route takes them."""
    w = kernel_smoother.product_kernel(x_new, pred.x_train, pred.kind, pred.bandwidths)
    num = w @ np.column_stack([pred.beta, np.ones(len(pred.beta))])
    return num[:, 0] / num[:, 1]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("span", [0.55, 1.5])
def test_expanded_exponent_stays_near_the_rounding_floor(span, d):
    """Within the span rule, the direct route takes the exponent as
    2 u.v - |u|^2 - |v|^2 from one product: its worst row lies within 2
    floor units of an extended-precision reference, and within 0.5 of the
    per-column subtraction's worst on the same rows."""
    pred, x_new = spanned_case(span, d)
    assert pred._weights.augmented is not None
    got = direct_average(x_new, pred.x_train, pred.kind, pred.bandwidths, pred.beta)
    expanded = floor_units(pred, x_new, got).max()
    assert expanded <= 2.0
    assert expanded <= floor_units(pred, x_new, subtracted(pred, x_new)).max() + 0.5


@pytest.mark.parametrize("span", [3.0, 5.6])
def test_wide_spans_keep_the_per_column_subtraction(span):
    """Past the span rule the expansion's error, about eps (|u|^2 + |v|^2),
    outgrows the subtraction's, so these designs keep its bits."""
    for d in (1, 2, 3, 5):
        pred, x_new = spanned_case(span, d)
        assert pred._weights.augmented is None
        got = direct_average(x_new, pred.x_train, pred.kind, pred.bandwidths, pred.beta)
        assert np.array_equal(got, subtracted(pred, x_new))


def test_gram_builds_keep_the_per_column_subtraction():
    """The Gram matrix of a dense three-column smoother within the span rule
    has the bits of a broadcast per-column reference (squared gaps summed
    in column order, exp of the negated sum, times K(0)^3), not those of the
    expanded exponent: no fit's spectrum moves with the direct route."""
    rng = np.random.default_rng(31)
    x = rng.uniform(size=(60, 3))
    h = 0.5 * (x.max(axis=0) - x.min(axis=0)) / 0.55
    sm = build_kernel_smoother(x, KernelSmootherSpec(kind="gaussian", bandwidths=tuple(h)))
    assert sm._factor is None
    centre = 0.5 * x.max(axis=0) + 0.5 * x.min(axis=0)
    v = (x - centre) * (np.sqrt(0.5) / h)
    gaps = sum((v[:, None, j] - v[None, :, j]) ** 2 for j in range(3))
    reference = np.exp(-gaps) * kernel_values(np.zeros(1), "gaussian")[0] ** 3
    assert np.array_equal(sm.kmat, reference)
    expanded = np.empty_like(reference)
    smoothers._fill(kernel_smoother._KernelRows(x, "gaussian", h, expand=True).blocks(x, expanded))
    assert not np.array_equal(expanded, reference)


@pytest.mark.parametrize("unit", [1.0, 1e-300])
def test_rows_whose_scaled_norm_overflows_are_refused(unit):
    """Rows 1e160 and 1e300 half ranges out, and on a design of range 1e-300
    a row whose scaled value itself overflows, are refused by the expanded
    route with the usual message, with no warning and no NaN weight."""
    rng = np.random.default_rng(37)
    x = rng.uniform(size=(330, 3)) * unit
    half = 0.5 * (x.max(axis=0) - x.min(axis=0))
    pred = KernelPredictor(x, "gaussian", half / 0.55, rng.normal(size=330))
    x_new = rng.uniform(size=(12, 3)) * unit
    x_new[3, 0] = 1e160 * half[0]
    x_new[7] = 1e300 * half
    x_new[9, 2] = 1e10
    assert pred._tables is None and pred._weights.augmented is not None
    for w in (w for _, w in pred._weights.blocks(x_new)):
        assert np.isfinite(w).all() and not w[[3, 7, 9]].any()
    message = r"prediction rows \[3, 7, 9\] fall outside the kernel support of every design point"
    with pytest.raises(ValueError, match=message):
        pred.predict(x_new)
    with pytest.raises(ValueError, match=message):
        direct_average(x_new, x, "gaussian", pred.bandwidths, pred.beta)
    assert np.isfinite(pred.predict(np.delete(x_new, [3, 7, 9], axis=0))).all()


def test_a_row_whose_weights_sum_to_nan_is_refused():
    """A NaN row sum fails the dead-row test as a zero one does, so it can
    never come back as a prediction."""

    class NanRows:
        def blocks(self, x_new):
            w = np.ones((3, 4))
            w[1, 2] = np.nan
            yield slice(0, 3), w

    with pytest.raises(ValueError, match=r"prediction rows \[1\] fall outside the kernel support"):
        kernel_smoother._kernel_average(np.zeros((3, 1)), NanRows(), np.ones((4, 2)))


def test_many_dead_rows_name_the_first_ten_and_count_the_rest():
    """500 far rows among 600 make one short line, not one naming each row:
    the first 10 by their batch row numbers, then the count of the other 490."""
    rng = np.random.default_rng(41)
    x = rng.uniform(size=(400, 2))
    result = fit(x, np.sin(6 * x[:, 0]) + x[:, 1] + rng.normal(0, 0.1, 400))
    x_new = rng.uniform(size=(600, 2))
    far = np.sort(rng.choice(600, 500, replace=False))
    x_new[far] = 1e308
    with pytest.raises(ValueError) as caught:
        result.predict(x_new)
    assert str(caught.value) == (
        f"prediction rows {far[:10].tolist()} and 490 more fall outside the kernel support of every design point"
    )
