"""Row-normalized product-kernel smoother with trace-based calibration.

The smoothing matrix is S = D K where K has entries
K_ij = prod_k k((x_ik - x_jk) / h_k) and D is the diagonal of inverse row
sums, so every row of S sums to one. Bandwidths are not tuned against the
data fit; each one is calibrated so the corresponding univariate smoother
has a prescribed (small) trace, which keeps the base smoother deliberately
over-smooth.

Every calibration here and in :mod:`ibrsmooth.tps` solves trace(scale) =
target for a trace that decreases in its scale (a bandwidth, a common
bandwidth factor or a spline penalty). One root finder serves them all:
safeguarded Newton steps on log(scale), using the closed-form slope
d trace / d log(scale), inside a sign bracket that falls back to bisection
(``rtsafe``, Numerical Recipes section 9.4). A Gaussian column typically
needs four to six trace evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import is_positive_definite, kernel_slopes, kernel_values, resolve_kernel
from .smoothers import BaseSmoother, DesignMatrix, SpectralForm

__all__ = [
    "CalibrationError",
    "KernelSmootherSpec",
    "KernelSmoother",
    "build_kernel_smoother",
    "calibrate_bandwidth",
    "calibrate_total_df",
]

# starting sign bracket of the bandwidth search, as multiples of the column
# range (of the column standard deviations for the common factor). An end is
# only evaluated when a step heads past it; while the target lies beyond it,
# it moves out tenfold, at most _MAX_EXPANSIONS times.
_BRACKET_LO = 1e-3
_BRACKET_HI = 1e3
_MAX_EXPANSIONS = 10
# the search stops once a Newton step or the bracket is this short in log
# scale, i.e. relative to the scale; _MAX_STEPS covers bisecting the fully
# expanded bracket down to it
_LOG_XTOL = 1e-12
_MAX_STEPS = 100
_LN10 = math.log(10.0)
# kernel_predict builds the weights of new rows in blocks of about this many
# bytes: the two block buffers stay in cache and under the size at which
# numpy asks for huge pages
_PREDICT_BLOCK_BYTES = 1 << 18
# positive-definite kernels decompose only the top of the spectrum: a block
# of _SPECTRUM_BLOCK vectors plus _SPECTRUM_OVERSAMPLE, doubled while the tail
# certificate fails, and dense eigh once the next block would exceed
# n / _SPECTRUM_GATE columns (there a failed attempt costs more than eigh)
_SPECTRUM_BLOCK = 64
_SPECTRUM_OVERSAMPLE = 16
_SPECTRUM_GATE = 8
_EPS = float(np.finfo(float).eps)


class CalibrationError(RuntimeError):
    """Raised when a degrees-of-freedom target cannot be bracketed or hit."""


@dataclass(frozen=True)
class KernelSmootherSpec:
    """Calibrated description of a product-kernel smoother.

    Exactly one of ``df_target`` (per-variable trace) and
    ``total_df_target`` (trace of the full product smoother) is set when the
    spec comes out of calibration; both are None when bandwidths were given
    directly.
    """

    kind: str
    bandwidths: tuple[float, ...]
    df_target: float | None = None
    total_df_target: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", resolve_kernel(self.kind))
        if len(self.bandwidths) == 0:
            raise ValueError("need one bandwidth per column")
        if any(h <= 0 or not np.isfinite(h) for h in self.bandwidths):
            raise ValueError(f"bandwidths must be positive, got {self.bandwidths}")

    @property
    def positive_definite(self) -> bool:
        return is_positive_definite(self.kind)


def product_kernel(
    x_new: np.ndarray,
    x: np.ndarray,
    kind: str,
    bandwidths,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Product-kernel weights prod_k K((x_new_ik - x_jk) / h_k).

    One row per row of ``x_new``, one column per row of ``x``. The result is
    built in place in one output array plus, for several columns, one
    scratch array of the same shape, however many columns there are. Both
    are new arrays unless given.
    """
    shape = (x_new.shape[0], x.shape[0])
    if out is None:
        out = np.empty(shape)
    if x.shape[1] == 1:
        scratch = out
    elif scratch is None:
        scratch = np.empty(shape)
    for j, h in enumerate(bandwidths):
        buf = out if j == 0 else scratch
        np.subtract(x_new[:, j, None], x[None, :, j], out=buf)
        buf /= h
        kernel_values(buf, kind, out=buf)
        if j:
            out *= buf
    return out


def kernel_predict(x_new, x: np.ndarray, kind: str, bandwidths, beta: np.ndarray) -> np.ndarray:
    """Kernel-weighted average sum_j w_ij beta_j / sum_j w_ij at new points.

    ``beta`` has shape (n,) or (n, c). The weights are built a block of
    rows at a time in two buffers of about ``_PREDICT_BLOCK_BYTES`` each,
    reused for every block. A call never holds an m x n weight matrix, so
    its speed per row does not depend on m or on whether the allocator
    hands out fresh pages for multi-megabyte arrays, which varies from one
    process to the next. A block is a whole number of eight-row groups, so
    the blocked products line up with one product over all rows; with
    OpenBLAS a vector ``beta`` gives the same bits as ``(w @ beta) / sums``
    over the full weight matrix. Raises ValueError when ``x_new`` has the
    wrong number of columns or a row outside the kernel support of every
    design point.
    """
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    if x_new.shape[1] != x.shape[1]:
        raise ValueError(f"expected {x.shape[1]} columns, got {x_new.shape[1]}")
    m, n = x_new.shape[0], x.shape[0]
    rows = max(1, min(m, max(8, _PREDICT_BLOCK_BYTES // (8 * n) // 8 * 8)))
    out_buf = np.empty((rows, n))
    scratch_buf = np.empty((rows, n))
    pred = np.empty((m,) + beta.shape[1:])
    dead = []
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        w = product_kernel(
            x_new[start:stop], x, kind, bandwidths,
            out_buf[: stop - start], scratch_buf[: stop - start],
        )
        sums = w.sum(axis=1)
        dead_here = np.nonzero(sums <= 0)[0]
        if dead_here.size:
            dead.extend((start + dead_here).tolist())
            continue
        # transposed, the row sums broadcast along the last axis of an
        # (rows, c) block; a vector is its own transpose
        np.divide((w @ beta).T, sums, out=pred[start:stop].T)
    if dead:
        raise ValueError(
            f"prediction rows {dead} fall outside the kernel "
            "support of every design point"
        )
    return pred


class KernelSmoother(BaseSmoother):
    """Row-stochastic kernel smoother over a fixed design."""

    def __init__(self, design: DesignMatrix, spec: KernelSmootherSpec):
        if len(spec.bandwidths) != design.d:
            raise ValueError(
                f"{len(spec.bandwidths)} bandwidths for {design.d} columns"
            )
        self.design = design
        self.spec = spec
        self.kmat = product_kernel(design.x, design.x, spec.kind, spec.bandwidths)
        self.row_sums = self.kmat.sum(axis=1)
        if np.any(self.row_sums <= 0):
            bad = np.nonzero(self.row_sums <= 0)[0]
            raise ValueError(
                f"kernel rows {bad.tolist()} sum to zero; bandwidths too small "
                "for the design spacing"
            )

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.kmat / self.row_sums[:, None]

    @property
    def initial_df(self) -> float:
        k0 = float(kernel_values(np.zeros(1), self.spec.kind)[0]) ** self.d
        return float(np.sum(k0 / self.row_sums))

    def spectral(self) -> SpectralForm:
        return self._spectral

    @cached_property
    def _spectral(self) -> SpectralForm:
        # symmetrize: A = D^{1/2} K D^{1/2} shares eigenvalues with S = D K
        d_half = 1.0 / np.sqrt(self.row_sums)
        if self.spec.positive_definite:
            top = _top_eigenpairs(self.kmat, d_half)
            if top is not None:
                lam, u, tail = top
                return SpectralForm(d_half=d_half, u=u, lam=lam, tail_trace=tail)
        a = self.kmat * d_half[:, None] * d_half[None, :]
        lam, u = np.linalg.eigh(a)
        order = np.argsort(lam)[::-1]
        return SpectralForm(
            d_half=d_half,
            u=u[:, order],
            lam=lam[order],
            pd_family=self.spec.positive_definite,
        )

    def evaluate(self, x_new: np.ndarray, coef: np.ndarray) -> np.ndarray:
        return kernel_predict(
            x_new, self.design.x, self.spec.kind, self.spec.bandwidths, coef
        )

    def describe(self) -> str:
        return f"{self.spec.kind} kernel (with {self.initial_df:.4g} df)"


def _top_eigenpairs(kmat: np.ndarray, d_half: np.ndarray):
    """Certified top eigenpairs of a PSD A = D^{1/2} K D^{1/2}, or None.

    A randomized range finder (Halko, Martinsson & Tropp 2011): Q spans
    A (A Omega) for a Gaussian test block Omega drawn from a fixed seed, so
    repeated builds give the same bits, and the Ritz pairs come from eigh
    of Q'AQ. A is applied as D^{1/2} (K (D^{1/2} Q)) and never formed. The
    pairs with a Ritz value above eps/2 are kept; 1 - lambda rounds to 1
    below that, where the dense path gives a pair zero weight at every k.

    By Ky Fan's maximum principle the kept Ritz values sum to at most the
    same number of top eigenvalues, so tau = tr(A) - sum(kept) bounds the
    sum of every eigenvalue left out. The block doubles until
    tau <= n eps tr(A); returns (lam descending, U, tau), or None once the
    next block would exceed n / ``_SPECTRUM_GATE`` columns.
    """
    n = d_half.size
    block = _SPECTRUM_BLOCK
    if (block + _SPECTRUM_OVERSAMPLE) * _SPECTRUM_GATE > n:
        return None
    trace = float(np.sum(np.diagonal(kmat) * d_half * d_half))
    rng = np.random.default_rng(0)

    def apply(q: np.ndarray) -> np.ndarray:
        return d_half[:, None] * (kmat @ (d_half[:, None] * q))

    while (block + _SPECTRUM_OVERSAMPLE) * _SPECTRUM_GATE <= n:
        omega = rng.standard_normal((n, block + _SPECTRUM_OVERSAMPLE))
        q = np.linalg.qr(apply(omega))[0]
        q = np.linalg.qr(apply(q))[0]
        ritz, w = np.linalg.eigh(q.T @ apply(q))
        keep = np.flatnonzero(ritz > 0.5 * _EPS)[::-1]
        tail = trace - float(np.sum(ritz[keep]))
        if tail <= n * _EPS * trace:
            return ritz[keep], q @ w[:, keep], max(tail, 0.0)
        block *= 2
    return None


def build_kernel_smoother(x, spec: KernelSmootherSpec) -> KernelSmoother:
    """Build the smoother for a design and an already-calibrated spec."""
    design = x if isinstance(x, DesignMatrix) else DesignMatrix.from_array(x)
    return KernelSmoother(design, spec)


def _trace_objective(x: np.ndarray, kind: str, scales: np.ndarray):
    """Trace of the row-normalized product smoother over the rows of x.

    Returns a function of c that gives the trace with bandwidths
    ``c * scales`` and its slope d trace / d log c. With row sums
    s_i = sum_j K_ij, the trace is K(0)^d * sum_i 1 / s_i and its slope is
    -K(0)^d * sum_i s_i' / s_i^2, where s_i' = d s_i / d log c follows from
    :func:`ibrsmooth.kernels.kernel_slopes` by the product rule.
    """
    n, d = x.shape
    if kind == "gaussian":
        # K_ij = exp(q_ij / c^2) with q = -1/2 sum_k gap_k^2 / scale_k^2, up
        # to a constant factor that cancels in the trace; u^2 K = -2 q K / c^2
        q = np.zeros((n, n))
        for j in range(d):
            gap = np.subtract.outer(x[:, j], x[:, j])
            gap /= scales[j]
            gap *= gap
            gap *= 0.5
            q -= gap
        kmat = np.empty_like(q)

        def gaussian_trace(c: float) -> tuple[float, float]:
            inv_c2 = 1.0 / (c * c)
            np.multiply(q, inv_c2, out=kmat)
            np.exp(kmat, out=kmat)
            sums = kmat.sum(axis=1)
            slopes = np.einsum("ij,ij->i", kmat, q)
            slopes *= -2.0 * inv_c2
            return float(np.sum(1.0 / sums)), float(-np.sum(slopes / (sums * sums)))

        return gaussian_trace

    k0 = float(kernel_values(np.zeros(1), kind)[0]) ** d

    def product_trace(c: float) -> tuple[float, float]:
        kmat = np.ones((n, n))
        dkmat = np.zeros((n, n))
        for j in range(d):
            u = np.subtract.outer(x[:, j], x[:, j]) / (c * scales[j])
            values = kernel_values(u, kind)
            dkmat *= values
            dkmat += kmat * kernel_slopes(u, kind)
            kmat *= values
        sums = kmat.sum(axis=1)
        slopes = dkmat.sum(axis=1)
        return float(k0 * np.sum(1.0 / sums)), float(-k0 * np.sum(slopes / (sums * sums)))

    return product_trace


def _log_newton_root(trace, target: float, floor: float, lo: float, hi: float, what: str):
    """Scale x in [lo, hi] (or the expanded bracket) where trace(x) = target.

    ``trace(x)`` must decrease in x towards ``floor`` as x grows, with
    floor < target, and return the trace together with its slope
    d trace / d log x. The search runs on t = log x from the middle of the
    bracket. It keeps a sign bracket [a, b], trace above the target at a and
    below it at b, and takes a Newton step only when it lands strictly
    inside; otherwise it bisects (``rtsafe``). The steps are Newton steps
    for log(trace - floor) = log(target - floor), which has the same root
    and is close to linear in t where the trace decays like a power of x,
    so steps from far out land near the root instead of overshooting. An
    end that has not been evaluated is evaluated first when a step heads
    past it, and moved out tenfold while the target lies beyond it. A zero
    slope always bisects, so a piecewise constant trace narrows down to its
    jump.

    Returns the last evaluated scale and the trace there, so the caller
    checks the achieved trace without another evaluation.
    """
    a, b = math.log(lo), math.log(hi)
    a_known = b_known = False
    a_moves = b_moves = 0
    log_goal = math.log(target - floor)
    t = 0.5 * (a + b)
    for _ in range(_MAX_STEPS):
        x = math.exp(t)
        value, slope = trace(x)
        gap = value - target
        if gap == 0.0:
            break
        if gap > 0.0:
            a, a_known = t, True
            if a >= b:
                if b_moves == _MAX_EXPANSIONS:
                    raise _no_bracket(what, target, x, value)
                b, b_known, b_moves = b + _LN10, False, b_moves + 1
        else:
            b, b_known = t, True
            if b <= a:
                if a_moves == _MAX_EXPANSIONS:
                    raise _no_bracket(what, target, x, value)
                a, a_known, a_moves = a - _LN10, False, a_moves + 1
        excess = value - floor
        if slope < 0.0 and excess > 0.0:
            step = excess * (log_goal - math.log(excess)) / slope
        else:
            step = math.copysign(math.inf, gap)
        if abs(step) <= _LOG_XTOL or b - a <= _LOG_XTOL:
            break
        t += step
        if not a < t < b:
            if step > 0.0 and not b_known:
                t = b
            elif step < 0.0 and not a_known:
                t = a
            else:
                t = 0.5 * (a + b)
    return x, value


def _no_bracket(what: str, target: float, x: float, value: float) -> CalibrationError:
    return CalibrationError(
        f"could not bracket the {what} target {target:g}: "
        f"trace {value:.6g} at {x:.3e}, the end of the widest search range"
    )


def calibrate_bandwidth(
    column: np.ndarray,
    kind: str,
    df_target: float,
    tol: float = 1e-6,
    name: str = "column",
) -> float:
    """Bandwidth whose univariate smoother trace equals ``df_target``.

    The trace decreases from (nearly) n at tiny bandwidths to 1 as the
    bandwidth grows, so the target must lie strictly inside (1, n). The
    search takes safeguarded Newton steps on log h from the middle of
    [1e-3, 1e3] times the column range; each step costs one n x n trace
    evaluation.
    """
    col = np.asarray(column, dtype=float).ravel()
    n = col.size
    if not 1.0 < df_target < n:
        raise ValueError(
            f"per-variable df target must lie in (1, {n}), got {df_target}"
        )
    rng = float(col.max() - col.min())
    if rng == 0.0:
        raise CalibrationError(f"{name} is constant; cannot calibrate a bandwidth")
    kind = resolve_kernel(kind)
    trace = _trace_objective(col[:, None], kind, np.ones(1))
    h, achieved = _log_newton_root(
        trace, df_target, 1.0, _BRACKET_LO * rng, _BRACKET_HI * rng, "df"
    )
    if abs(achieved - df_target) > tol:
        raise CalibrationError(
            f"{name}: {kind} trace is not continuous enough to reach "
            f"df {df_target} (closest {achieved:.6f}); "
            "try the gaussian kernel"
        )
    return h


def calibrate_total_df(
    x, kind: str, total_df: float, tol: float = 1e-4
) -> np.ndarray:
    """Common-factor bandwidths h_j = c * s_j hitting a total-trace target.

    s_j is the sample standard deviation of column j, so a single scalar c
    is tuned until the trace of the full product smoother equals
    ``total_df``. With one column this agrees with
    :func:`calibrate_bandwidth` up to tolerance. c is found by the same
    safeguarded Newton search on log c, starting inside [1e-3, 1e3].
    """
    design = x if isinstance(x, DesignMatrix) else DesignMatrix.from_array(x)
    xm = design.x
    n = design.n
    if not 1.0 < total_df < n:
        raise ValueError(f"total df target must lie in (1, {n}), got {total_df}")
    scales = xm.std(axis=0, ddof=1)
    flat = np.nonzero(scales == 0)[0]
    if flat.size:
        names = [design.names[j] for j in flat]
        raise CalibrationError(f"constant columns {names}; cannot calibrate")
    kind = resolve_kernel(kind)
    trace = _trace_objective(xm, kind, scales)
    c, achieved = _log_newton_root(
        trace, total_df, 1.0, _BRACKET_LO, _BRACKET_HI, "total df"
    )
    if abs(achieved - total_df) > tol:
        raise CalibrationError(
            f"total-df calibration reached {achieved:.6f} instead of "
            f"{total_df}; the {kind} kernel trace jumps at this design"
        )
    return c * scales
