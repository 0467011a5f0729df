"""Thin-plate spline base smoother.

The penalized fit solves the saddle system

    (E + n*lam*I) delta + T c = y,    T' delta = 0,

where E holds the radial basis eta(|x_i - x_j|) and T the polynomials of
total degree below the spline order. Smoothness is controlled through lam,
which is calibrated so the smoother trace equals a small multiple of the
polynomial null-space dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gamma as gamma_fn

from .kernel_smoother import CalibrationError, _log_newton_root
from .smoothers import BaseSmoother, DesignMatrix, SpectralForm, _apply_q, _householder_qr

__all__ = [
    "TpsSpec",
    "TpsSmoother",
    "build_calibrated_tps",
    "default_tps_order",
    "tps_evaluate",
    "tps_null_dim",
]

# largest miss of the trace target that a calibrated penalty may leave
_TRACE_TOL = 1e-4


def default_tps_order(d: int) -> int:
    """Smallest admissible order: 2*order > d, never below 2."""
    return max(2, d // 2 + 1)


def tps_null_dim(order: int, d: int) -> int:
    """Dimension of the polynomial null space (total degree < order)."""
    return math.comb(order + d - 1, d)


@dataclass(frozen=True)
class TpsSpec:
    """Order and penalty of a thin-plate spline smoother."""

    order: int
    lam: float

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"spline order must be >= 2, got {self.order}")
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError(f"penalty must be a finite non-negative number, got {self.lam}")

    def null_dim(self, d: int) -> int:
        if 2 * self.order <= d:
            raise ValueError(
                f"order {self.order} too low for {d} columns; need 2*order > d"
            )
        return tps_null_dim(self.order, d)


def _radial_constant(order: int, d: int) -> float:
    """Leading constant of the polyharmonic radial basis (Duchon/Wahba)."""
    nu = order
    if d % 2 == 0:
        sign = (-1.0) ** (d // 2 + nu + 1)
        return sign / (
            2.0 ** (2 * nu - 1)
            * math.pi ** (d / 2)
            * math.factorial(nu - 1)
            * math.factorial(nu - d // 2)
        )
    return float(gamma_fn(d / 2.0 - nu)) / (
        2.0 ** (2 * nu) * math.pi ** (d / 2) * math.factorial(nu - 1)
    )


def _radial_values(r: np.ndarray, order: int, d: int) -> np.ndarray:
    """eta(r) with the removable singularity at r = 0 set to its limit 0."""
    out = r ** (2 * order - d)
    out *= _radial_constant(order, d)
    if d % 2 == 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            out *= np.log(r)
    out[r == 0.0] = 0.0
    return out


def _poly_powers(order: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the monomials spanning the null space."""
    powers = []
    for deg in range(order):
        for combo in itertools.combinations_with_replacement(range(d), deg):
            expo = [0] * d
            for j in combo:
                expo[j] += 1
            powers.append(tuple(expo))
    return powers


def _poly_block(x: np.ndarray, powers: list[tuple[int, ...]]) -> np.ndarray:
    cols = [np.prod(x**np.asarray(p), axis=1) for p in powers]
    return np.column_stack(cols)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and the rows of b.

    The squared gaps are added up one column at a time, in column order, so
    no rows x rows x d difference tensor is formed.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    gap = np.empty_like(out)
    for j in range(a.shape[1]):
        np.subtract.outer(a[:, j], b[:, j], out=gap)
        gap *= gap
        out += gap
    return np.sqrt(out, out=out)


def tps_evaluate(x_new, x_train: np.ndarray, order: int, powers, a, b) -> np.ndarray:
    """eta(|x - x_i|)' a + p(x)' b at every row x of x_new.

    ``a`` has one row per training point x_i and ``b`` one per monomial of
    ``powers``, each with one column per evaluated function or none: the
    pair :meth:`TpsSmoother.prediction_parts` solves for a coefficient
    vector, or a fit's saved (delta, poly) coefficients.
    """
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    d = x_train.shape[1]
    if x_new.shape[1] != d:
        raise ValueError(f"expected {d} columns, got {x_new.shape[1]}")
    eta = _radial_values(_distances(x_new, x_train), order, d)
    return eta @ a + _poly_block(x_new, powers) @ b


class _TpsCore:
    """Design-dependent geometry shared by calibration and the smoother.

    With T = Q [R; 0] the QR of the n x m polynomial block, Q = [q1 q2] and
    q2' E q2 = V diag(theta) V', the smoother's eigenvectors are the columns
    of q1 (eigenvalue 1) and of g2 = q2 V (eigenvalue theta / (theta + n lam)).

    Q is held only as dgeqrf's m Householder reflectors; no n x n Q is formed.
    The distances and E cost O(d n^2), the QR O(m^2 n), Q' E Q two
    reflector passes over E at O(m n^2), and u = [q1 g2] one pass over
    blockdiag(I, V) at O(m n^2). The dense eigh of q2' E q2, O(n^3), is the
    floor. ``theta`` descends, and ``q1`` and ``g2`` are views of ``u``, so
    the geometry keeps two n x n arrays: E and u.
    """

    def __init__(self, design: DesignMatrix, order: int):
        n, d = design.n, design.d
        if 2 * order <= d:
            raise ValueError(f"order {order} too low for {d} columns; need 2*order > d")
        self.design = design
        self.order = order
        self.m = m = tps_null_dim(order, d)
        if n <= m:
            raise ValueError(
                f"need more than {m} rows for a thin-plate spline of "
                f"order {order} in {d} variables, got {n}"
            )
        r = _distances(design.x, design.x)
        np.fill_diagonal(r, np.inf)
        if r.min() <= 0.0:
            i, j = divmod(int(np.argmin(r)), n)
            raise ValueError(
                f"duplicate design points at rows {i} and {j}; "
                "thin-plate splines need distinct points"
            )
        np.fill_diagonal(r, 0.0)
        self.e = _radial_values(r, order, d)
        del r
        self.powers = _poly_powers(order, d)
        qr, tau = _householder_qr(_poly_block(design.x, self.powers))
        self.r = np.triu(qr[:m])
        diag = np.abs(np.diag(self.r))
        if diag.min() <= n * np.finfo(float).eps * max(diag.max(), 1.0):
            raise ValueError(
                "polynomial block is rank deficient (collinear design); "
                "thin-plate splines need points in general position"
            )
        theta, v = np.linalg.eigh(self._penalized_block(qr, tau))
        floor = -1e-8 * max(abs(theta[-1]), 1.0)
        if theta[0] < floor:
            raise ValueError(
                f"radial block has a negative penalized eigenvalue {theta[0]:.3e}; "
                "the design does not support this spline order"
            )
        self.theta = np.maximum(theta[::-1], 0.0)
        u = np.zeros((n, n), order="F")
        u[:m, :m] = np.eye(m)
        u[m:, m:] = v[:, ::-1]
        self.u = _apply_q("L", "N", qr, tau, u)
        self.q1 = self.u[:, :m]
        self.g2 = self.u[:, m:]

    def _penalized_block(self, qr: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """q2' E q2, symmetrised; the n x n Q' E Q dies with this call."""
        # E is symmetric, so its copy's transpose is a Fortran-ordered E
        qeq = _apply_q("R", "N", qr, tau, _apply_q("L", "T", qr, tau, self.e.copy().T))
        b = qeq[self.m :, self.m :]
        return (b + b.T) / 2.0

    def trace_and_slope(self, lam: float) -> tuple[float, float]:
        """Smoother trace m + sum theta / (theta + n lam) and its slope in log lam.

        With r = theta / (theta + n lam), the slope is -sum r (1 - r), which
        equals -sum theta n lam / (theta + n lam)^2.
        """
        nl = self.design.n * lam
        if nl == 0.0:
            return float(self.design.n), 0.0
        ratio = self.theta / (self.theta + nl)
        return float(self.m + np.sum(ratio)), float(-np.sum(ratio * (1.0 - ratio)))


class TpsSmoother(BaseSmoother):
    """Symmetric smoothing matrix of a penalized thin-plate spline."""

    def __init__(self, design: DesignMatrix, spec: TpsSpec, core: _TpsCore | None = None):
        self.design = design
        self.spec = spec
        self.core = core if core is not None else _TpsCore(design, spec.order)
        nl = design.n * spec.lam
        c = self.core
        if nl == 0.0 and c.theta.min() <= 0.0:
            raise ValueError("cannot interpolate: radial block is singular")
        self._ratio = c.theta / (c.theta + nl) if nl > 0 else np.ones_like(c.theta)

    @cached_property
    def matrix(self) -> np.ndarray:
        c = self.core
        return c.q1 @ c.q1.T + (c.g2 * self._ratio) @ c.g2.T

    @property
    def initial_df(self) -> float:
        return float(self.core.m + np.sum(self._ratio))

    def spectral(self) -> SpectralForm:
        return self._spectral

    @cached_property
    def _spectral(self) -> SpectralForm:
        c = self.core
        lam = np.concatenate([np.ones(c.m), self._ratio])
        return SpectralForm(d_half=np.ones(self.n), u=c.u, lam=lam, pd_family=True)

    def evaluate(self, x_new: np.ndarray, coef: np.ndarray) -> np.ndarray:
        return tps_evaluate(
            x_new, self.design.x, self.spec.order, self.core.powers,
            *self.prediction_parts(coef),
        )

    def describe(self) -> str:
        return (
            f"thin plate spline of order {self.spec.order} "
            f"(with {self.initial_df:.4g} df)"
        )

    def prediction_parts(self, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve the penalized saddle system with ``coef`` as the response.

        Returns (delta, poly), of shape (n,) and (m,), or (n, k) and (m, k)
        for coef of shape (n, k), so that the smoother applied to coef is
        eta(x)' delta + p(x)' poly at any x, an O(n*d) payload per column:
        delta = g2 diag(1 / (theta + n lam)) g2' coef and
        poly = R^-1 q1' (coef - E delta - n lam delta).
        """
        c = self.core
        nl = self.design.n * self.spec.lam
        # scale the rows of g2' coef; the transposes let a vector pass too
        delta = c.g2 @ ((c.g2.T @ coef).T / (c.theta + nl)).T
        poly = solve_triangular(c.r, c.q1.T @ (coef - c.e @ delta - nl * delta))
        return delta, poly


def build_calibrated_tps(
    x, order: int | None = None, df_multiplier: float = 1.1
) -> TpsSmoother:
    """The smoother whose trace equals df_multiplier * null_dim.

    The trace decreases monotonically from n (lam -> 0) to the null-space
    dimension (lam -> inf), so the multiplier must satisfy
    1 < df_multiplier and df_multiplier * null_dim < n. The penalty is found
    by safeguarded Newton steps on log lam, each an O(n) trace evaluation;
    past the shared geometry the build is O(n). The calibrated penalty is
    the returned smoother's ``spec``.
    """
    design = x if isinstance(x, DesignMatrix) else DesignMatrix.from_array(x)
    if order is None:
        order = default_tps_order(design.d)
    if df_multiplier <= 1.0:
        raise ValueError(f"df multiplier must exceed 1, got {df_multiplier}")
    core = _TpsCore(design, order)
    n = design.n
    target = df_multiplier * core.m
    if target >= n:
        raise ValueError(f"df target {target:.3g} must stay below n = {n}")
    positive = core.theta[core.theta > 0]
    if positive.size == 0:
        raise CalibrationError("radial block is identically zero; cannot calibrate")
    scale = float(np.median(positive)) / n
    lam, achieved = _log_newton_root(
        core.trace_and_slope, target, core.m, scale * 1e-9, scale * 1e9, "spline df"
    )
    if not abs(achieved - target) <= _TRACE_TOL:
        raise CalibrationError(
            f"spline calibration reached trace {achieved:.6f} instead of {target}"
        )
    spec = TpsSpec(order=order, lam=lam)
    return TpsSmoother(design, spec, core=core)
