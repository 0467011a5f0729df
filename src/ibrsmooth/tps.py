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
from scipy.linalg import qr, solve_triangular
from scipy.special import gamma as gamma_fn

from .kernel_smoother import CalibrationError, _log_newton_root
from .smoothers import BaseSmoother, DesignMatrix, SpectralForm

__all__ = [
    "TpsSpec",
    "TpsSmoother",
    "build_tps_smoother",
    "build_calibrated_tps",
    "calibrate_tps_lambda",
    "default_tps_order",
    "tps_evaluate",
    "tps_null_dim",
]


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
    df_multiplier: float | None = None

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
    theta = _radial_constant(order, d)
    p = 2 * order - d
    with np.errstate(divide="ignore", invalid="ignore"):
        if d % 2 == 0:
            out = theta * r**p * np.log(r)
        else:
            out = theta * r**p
    return np.where(r == 0.0, 0.0, out)


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
    """Euclidean distances between the rows of a and the rows of b."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


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

    With T = [q1 q2] [R; 0] the QR of the polynomial block and
    q2' E q2 = V diag(theta) V', the smoother's eigenvectors are the columns
    of q1 (eigenvalue 1) and of g2 = q2 V (eigenvalue theta / (theta + n lam)).
    """

    def __init__(self, design: DesignMatrix, order: int):
        n, d = design.n, design.d
        if 2 * order <= d:
            raise ValueError(f"order {order} too low for {d} columns; need 2*order > d")
        self.design = design
        self.order = order
        self.m = tps_null_dim(order, d)
        if n <= self.m:
            raise ValueError(
                f"need more than {self.m} rows for a thin-plate spline of "
                f"order {order} in {d} variables, got {n}"
            )
        r = _distances(design.x, design.x)
        off = r + np.eye(n)
        if off.min() <= 0.0:
            i, j = divmod(int(np.argmin(off)), n)
            raise ValueError(
                f"duplicate design points at rows {i} and {j}; "
                "thin-plate splines need distinct points"
            )
        self.e = _radial_values(r, order, d)
        self.powers = _poly_powers(order, d)
        q, r_full = qr(_poly_block(design.x, self.powers), mode="full")
        self.r = r_full[: self.m, : self.m]
        diag = np.abs(np.diag(self.r))
        if diag.min() <= n * np.finfo(float).eps * max(diag.max(), 1.0):
            raise ValueError(
                "polynomial block is rank deficient (collinear design); "
                "thin-plate splines need points in general position"
            )
        self.q1 = q[:, : self.m]
        q2 = q[:, self.m :]
        b = q2.T @ self.e @ q2
        theta, v = np.linalg.eigh((b + b.T) / 2.0)
        floor = -1e-8 * max(abs(theta[-1]), 1.0)
        if theta[0] < floor:
            raise ValueError(
                f"radial block has a negative penalized eigenvalue {theta[0]:.3e}; "
                "the design does not support this spline order"
            )
        self.theta = np.maximum(theta, 0.0)
        self.g2 = q2 @ v

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
        u = np.hstack([c.q1, c.g2[:, ::-1]])
        lam = np.concatenate([np.ones(c.m), self._ratio[::-1]])
        return SpectralForm(d_half=np.ones(self.n), u=u, lam=lam, pd_family=True)

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


def build_tps_smoother(x, spec: TpsSpec) -> TpsSmoother:
    design = x if isinstance(x, DesignMatrix) else DesignMatrix.from_array(x)
    return TpsSmoother(design, spec)


def calibrate_tps_lambda(
    x,
    order: int | None = None,
    df_multiplier: float = 1.1,
    tol: float = 1e-4,
) -> TpsSpec:
    """Penalty whose smoother trace equals df_multiplier * null_dim.

    The trace decreases monotonically from n (lam -> 0) to the null-space
    dimension (lam -> inf), so the multiplier must satisfy
    1 < df_multiplier and df_multiplier * null_dim < n. The penalty is found
    by safeguarded Newton steps on log lam, each an O(n) trace evaluation.
    """
    return build_calibrated_tps(x, order, df_multiplier, tol).spec


def build_calibrated_tps(
    x, order: int | None = None, df_multiplier: float = 1.1, tol: float = 1e-4
) -> TpsSmoother:
    """Calibrate the penalty (see :func:`calibrate_tps_lambda`) and build
    the smoother; past the shared geometry the build is O(n)."""
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
    if abs(achieved - target) > tol:
        raise CalibrationError(
            f"spline calibration reached trace {achieved:.6f} instead of {target}"
        )
    spec = TpsSpec(order=order, lam=lam, df_multiplier=df_multiplier)
    return TpsSmoother(design, spec, core=core)
