"""Metamorphic properties of fit(): what must not change when the input moves.

- Reordering the rows reorders the fit and leaves k alone.
- y -> a y + b (a != 0) maps the fit to a fit + b at the same k: both
  smoother families reproduce constants (eigenvalue 1), so the residuals
  only scale by a and every criterion that ignores the fitted energy shifts
  by a constant in k.
- The kernel smoother calibrates one bandwidth per column, so it ignores a
  per-column affine map of x; the thin-plate spline depends only on
  distances and on the polynomials below its order, so it ignores rigid
  motions and uniform scaling of x.

The numeric search stops within ``_K_TOL`` k of its minimum (a relative
tolerance), so numeric k must agree within 2 ``_K_TOL`` max(k); the
integer sweep must return the same k.
Fitted values agree to 1e-6 relative to their largest magnitude. n stays
at most 80, so the kernel spectrum takes the dense path.

Known failure: where the criterion is flat to rounding at large k (near
kmax, ROADMAP item 2), a rounding-level change of the input moves the
numeric k by a few times ``_K_TOL`` k (a few hundredths near k = 1e5), so
the k bound fails on such draws.

The plain tests at the end cover degenerate inputs: each either fits or
fails with one clear error.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ibrsmooth import BreakdownError, SelectionPlan, SmootherConfig, fit, tps_null_dim
from ibrsmooth.selection import _K_TOL

KERNEL = SmootherConfig(family="kernel")
TPS = SmootherConfig(family="tps")
CONFIGS = st.sampled_from([KERNEL, TPS])
SEEDS = st.integers(min_value=0, max_value=10_000)
SIZES = st.integers(min_value=30, max_value=80)
SCALES = st.floats(min_value=0.2, max_value=5.0)
SIGNS = st.sampled_from([-1.0, 1.0])
SHIFTS = st.floats(min_value=-10.0, max_value=10.0)

METAMORPHIC = settings(max_examples=10, deadline=None)


def problem(seed: int, n: int, d: int = 2) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    y = np.sin(4.0 * x[:, 0]) + x[:, -1] ** 2 + rng.normal(0.0, 0.2, n)
    return x, y


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def assert_same_fit(moved, base, perm=None) -> None:
    assert abs(moved.k - base.k) <= 2 * _K_TOL * max(moved.k, base.k)
    fitted = moved.fitted if perm is None else moved.fitted[np.argsort(perm)]
    assert_close(fitted, base.fitted)


@METAMORPHIC
@given(config=CONFIGS, seed=SEEDS, n=SIZES)
def test_row_permutation(config, seed, n):
    x, y = problem(seed, n)
    perm = np.random.default_rng(seed + 1).permutation(n)
    base = fit(x, y, smoother=config)
    moved = fit(x[perm], y[perm], smoother=config)
    assert_same_fit(moved, base, perm)


@METAMORPHIC
@given(
    config=CONFIGS,
    seed=SEEDS,
    n=SIZES,
    scale=SCALES,
    sign=SIGNS,
    shift=SHIFTS,
    criterion=st.sampled_from(["gcv", "aic", "aicc", "bic"]),
)
# the moved fit scores two counts 2e-7 k apart to exactly the same value,
# with slopes -1.5e-9 and 2.5e-14: the flatter slope must win the tie
@example(config=KERNEL, seed=1078, n=55, scale=1.25, sign=-1.0, shift=2.5, criterion="aicc")
def test_response_affine_map(config, seed, n, scale, sign, shift, criterion):
    x, y = problem(seed, n)
    a = sign * scale
    plan = SelectionPlan(criterion=criterion)
    base = fit(x, y, smoother=config, plan=plan)
    moved = fit(x, a * y + shift, smoother=config, plan=plan)
    assert abs(moved.k - base.k) <= 2 * _K_TOL * max(moved.k, base.k)
    assert_close(moved.fitted, a * base.fitted + shift)


@METAMORPHIC
@given(config=CONFIGS, seed=SEEDS, n=SIZES, scale=SCALES, sign=SIGNS, shift=SHIFTS)
def test_response_affine_map_exhaustive(config, seed, n, scale, sign, shift):
    x, y = problem(seed, n)
    a = sign * scale
    plan = SelectionPlan(mode="exhaustive")
    base = fit(x, y, smoother=config, plan=plan)
    moved = fit(x, a * y + shift, smoother=config, plan=plan)
    assert moved.k == base.k
    assert_close(moved.fitted, a * base.fitted + shift)


@METAMORPHIC
@given(
    seed=SEEDS,
    n=SIZES,
    scales=st.tuples(SCALES, SCALES),
    signs=st.tuples(SIGNS, SIGNS),
    shifts=st.tuples(SHIFTS, SHIFTS),
)
def test_kernel_ignores_per_column_affine_maps(seed, n, scales, signs, shifts):
    x, y = problem(seed, n)
    c = np.asarray(signs) * np.asarray(scales)
    base = fit(x, y, smoother=KERNEL)
    moved = fit(x * c + np.asarray(shifts), y, smoother=KERNEL)
    assert_same_fit(moved, base)


@METAMORPHIC
@given(
    seed=SEEDS,
    n=SIZES,
    angle=st.floats(min_value=0.0, max_value=2.0 * np.pi),
    scale=SCALES,
    shifts=st.tuples(SHIFTS, SHIFTS),
)
def test_tps_ignores_rigid_motion_and_uniform_scaling(seed, n, angle, scale, shifts):
    x, y = problem(seed, n)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    base = fit(x, y, smoother=TPS)
    moved = fit(scale * x @ rot.T + np.asarray(shifts), y, smoother=TPS)
    assert_same_fit(moved, base)


# ---------------------------------------------------------------------------
# degenerate designs


def test_kernel_fits_duplicate_rows():
    x, y = problem(0, 40)
    x = np.vstack([x, x[:10]])
    y = np.concatenate([y, y[:10] + 0.1])
    res = fit(x, y, smoother=KERNEL)
    assert res.final_df < res.n
    assert np.all(np.isfinite(res.predict(x)))


@pytest.mark.parametrize("config", [KERNEL, TPS], ids=["kernel", "tps"])
def test_near_constant_column_fits(config):
    x, y = problem(0, 40)
    x[:, 1] = 1.0 + 1e-12 * np.random.default_rng(1).normal(size=40)
    res = fit(x, y, smoother=config)
    assert np.all(np.isfinite(res.fitted))
    assert np.all(np.isfinite(res.predict(x)))


def test_tps_one_row_above_null_dim_breaks_down_at_the_df_ceiling():
    """Both modes refuse with one message that names the ceiling."""
    m = tps_null_dim(2, 2)
    x, y = problem(2, m + 1)
    messages = []
    for mode in ("numeric", "exhaustive"):
        with pytest.raises(BreakdownError, match="ceiling") as caught:
            fit(x, y, smoother=TPS, plan=SelectionPlan(mode=mode))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_tps_two_rows_above_null_dim_fits():
    m = tps_null_dim(2, 2)
    x, y = problem(2, m + 2)
    res = fit(x, y, smoother=TPS)
    assert res.final_df < res.n


@pytest.mark.parametrize("config", [KERNEL, TPS], ids=["kernel", "tps"])
def test_constant_response_is_refused(config):
    x, _ = problem(0, 30)
    with pytest.raises(ValueError, match="y is constant"):
        fit(x, np.full(30, 2.5), smoother=config)
