"""Thin-plate spline base smoother.

The penalized fit solves the saddle system

    (E + n*lam*I) delta + T c = y,    T' delta = 0,

where E holds the radial basis eta(|x_i - x_j|) and T the polynomials of
total degree below the spline order. Smoothness is controlled through lam,
which is calibrated so the smoother trace equals a small multiple of the
polynomial null-space dimension. A fit and a loaded model evaluate the
spline through one evaluator, :meth:`TpsPredictor.predict`.

Only the spline loads scipy, and only on first use: its LAPACK routines
(the tridiagonal reduction and eigensolver, the reduction's reflector
passes and the triangular solves) inside the functions that call them,
BLAS ``dsyr2k`` inside :meth:`~ibrsmooth.smoothers.HouseholderQ.project`,
which only the spline calls, and ``scipy.special``'s gamma only for an odd
number of columns. Importing the package, every kernel workflow and
predicting from a saved spline of an even number of columns load numpy
alone, and scipy's import (about 0.3 s and 30 MB, its array-API layer
pulling in ``numpy.testing`` and ``numpy.f2py``) is paid by the first
spline fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .smoothers import (
    BaseSmoother,
    CalibrationError,
    DesignMatrix,
    FactoredBasis,
    HouseholderQ,
    SpectralForm,
    _AugmentedGaps,
    _fill,
    _finite_rows,
    _log_newton_root,
    _pairwise_blocks,
    _squared_distances,
    _unit_box,
)

__all__ = [
    "TpsPredictor",
    "TpsSpec",
    "TpsSmoother",
    "build_calibrated_tps",
    "default_tps_order",
    "tps_null_dim",
    "tps_powers",
]

# largest miss of the trace target that a calibrated penalty may leave
_TRACE_TOL = 1e-4
# phi takes log(max(s, _TINY)) for even d, so s = 0 gives s log(_TINY) = 0
_TINY = float(np.finfo(float).tiny)


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
    """kappa with eta(r) = kappa phi(r^2) (:class:`_RadialRows`): the
    leading constant c of the polyharmonic radial basis (Duchon/Wahba),
    halved for even d, where log r = log(r^2) / 2."""
    nu = order
    if d % 2 == 0:
        sign = (-1.0) ** (d // 2 + nu + 1)
        return sign / (
            2.0 ** (2 * nu)
            * math.pi ** (d / 2)
            * math.factorial(nu - 1)
            * math.factorial(nu - d // 2)
        )
    from scipy.special import gamma

    return float(gamma(d / 2.0 - nu)) / (
        2.0 ** (2 * nu) * math.pi ** (d / 2) * math.factorial(nu - 1)
    )


def tps_powers(order: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the monomials spanning the null space, in the
    order of a fit's (and a saved model's) polynomial coefficients."""
    powers = []
    for deg in range(order):
        for combo in itertools.combinations_with_replacement(range(d), deg):
            expo = [0] * d
            for j in combo:
                expo[j] += 1
            powers.append(tuple(expo))
    return powers


def _poly_block(x: np.ndarray, powers: list[tuple[int, ...]]) -> np.ndarray:
    # a column at a time: a product along a row's few entries is several
    # times slower
    out = np.ones((len(x), len(powers)))
    for k, p in enumerate(powers):
        for j, e in enumerate(p):
            if e:
                out[:, k] *= x[:, j] ** e
    return out


class _RadialRows:
    """``scale`` phi(|a_i - x_j|^2) of rows a against a fixed design ``x``,
    a block of rows at a time (:func:`~ibrsmooth.smoothers._pairwise_blocks`).

    phi comes straight from the squared distance s: phi(s) =
    s^(order - d/2) log s for even d, with no root, and s^(order - d/2) for
    odd d, with one, so eta(r) = kappa phi(r^2) with kappa from
    :func:`_radial_constant`, and phi(0) = 0, its limit.

    For even d, rows at new points take s from one product per block of
    rows, s = |u|^2 + |v|^2 - 2 u.v with both sides centred on the design's
    box (:class:`~ibrsmooth.smoothers._AugmentedGaps`, built on first use),
    clipped at 0, and phi in place. Odd d and the Gram build E
    (``distinct``) subtract a column at a time
    (:func:`~ibrsmooth.smoothers._squared_distances`): for odd d,
    r = sqrt(s) amplifies the expansion's absolute error eps (|u|^2 + |v|^2)
    by about that over r, and E must see exact zeros at duplicate rows, its
    bits fixing the spectrum.
    """

    def __init__(self, x: np.ndarray, order: int, scale: float = 1.0):
        self.x, self.scale = x, scale
        self.power, self.odd = divmod(2 * order - x.shape[1], 2)

    @cached_property
    def _gaps(self) -> _AugmentedGaps:
        return _AugmentedGaps(self.x, _unit_box(self.x)[0])

    def blocks(self, a: np.ndarray, out=None, distinct: bool = False):
        """Yield (rows, block), the values at the rows ``rows`` of ``a``,
        written into ``out[rows]`` when ``out`` is given. With
        ``distinct``, a is the design itself and a zero distance off the
        diagonal raises ValueError naming the first such pair."""
        if not (self.odd or distinct):

            def expanded(s, scratch):
                np.maximum(s, 0.0, out=s)
                self._phi(s, scratch)

            return self._gaps.blocks(a, expanded, out)
        xt = np.ascontiguousarray(self.x.T)

        def fill(rows, r2, scratch):
            _squared_distances(a[rows], xt, r2, scratch)
            if distinct:
                diagonal = (np.arange(rows.stop - rows.start), np.arange(rows.start, rows.stop))
                r2[diagonal] = np.inf
                if r2.min() <= 0.0:
                    i, j = divmod(int(np.argmin(r2)), r2.shape[1])
                    raise ValueError(
                        f"duplicate design points at rows {rows.start + i} and {j}; "
                        "thin-plate splines need distinct points"
                    )
                r2[diagonal] = 0.0
            self._phi(r2, scratch)

        return _pairwise_blocks(a, self.x, fill, out)

    def _phi(self, r2: np.ndarray, scratch: np.ndarray) -> None:
        """``scale`` phi in place of the squared distances r2."""
        power = self.power
        if self.odd and not power:
            np.sqrt(r2, out=r2)
        else:
            factor = (
                np.sqrt(r2, out=scratch)
                if self.odd
                else np.log(np.maximum(r2, _TINY, out=scratch), out=scratch)
            )
            if power > 1:
                r2 **= power
            r2 *= factor
        if self.scale != 1.0:
            r2 *= self.scale


@dataclass
class TpsPredictor:
    """A thin plate spline's evaluator: eta(|x - x_i|)' delta + p(x)'
    poly_coef at every row x, for the pair :meth:`TpsSmoother.prediction_parts`
    solves for a coefficient vector or block.

    ``delta`` has one row per training point x_i and ``poly_coef`` one per
    monomial of ``powers``, each with one column per evaluated function or
    none. The radial part is added a block of rows at a time
    (:class:`_RadialRows`, built on the first call), so a call holds no
    rows x n array, with kappa folded into ``delta``; the blocks depend
    only on ``x_train`` and the rows, so a saved and reloaded model gives
    the same bits. :meth:`predict` reads ``x_new`` as the kernel predictor
    does: a 1-D array holds points of a one-column design, and a
    non-finite entry is refused.
    """

    x_train: np.ndarray
    order: int
    powers: list[tuple[int, ...]]
    delta: np.ndarray
    poly_coef: np.ndarray

    def predict(self, x_new: np.ndarray) -> np.ndarray:
        d = self.x_train.shape[1]
        x_new = _finite_rows(x_new, d)
        pred = _poly_block(x_new, self.powers) @ self.poly_coef
        a = _radial_constant(self.order, d) * self.delta
        for rows, block in self._radial.blocks(x_new):
            pred[rows] += block @ a
        return pred

    @cached_property
    def _radial(self) -> _RadialRows:
        # the design's radial rows, prepared once for every batch
        return _RadialRows(self.x_train, self.order)


def _reflect(trans: str, qr: np.ndarray, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q v or Q' v (``trans`` "N" or "T") for the Q of dsytrd's reflectors
    and v of shape (rows,) or (rows, c); v is left unchanged."""
    from scipy.linalg.lapack import dormqr

    c = np.array(v[:, None] if v.ndim == 1 else v, dtype=float, order="F")
    if c.size == 0:
        return c.reshape(v.shape)
    # one column takes dormqr's unblocked route: forming the blocked route's
    # triangular factors costs about twice the product itself (900-point
    # spline: 0.46 ms against 1.37 ms per pass, one BLAS thread, 2-vCPU x86-64)
    lwork = 1 if c.shape[1] == 1 else dormqr("L", trans, qr, tau, c, -1, overwrite_c=1)[1][0]
    cq, _, info = dormqr("L", trans, qr, tau, c, int(lwork), overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dormqr failed with info {info}")
    return cq.reshape(v.shape)


def _tridiagonal_eigh(b: np.ndarray):
    """(theta, W, reflectors) of the symmetric matrix in ``b``'s lower triangle; b is overwritten.

    dsyevd's first two stages: dsytrd reduces b = Q_t T Q_t' and dstevd
    (dstedc, as dsyevd calls it) gives T = W diag(theta) W', theta
    ascending. dsyevd's third stage, the back-transformation Q_t W, is left
    out. With lower=1, Q_t = diag(1, H) and H is dormqr's Q of the
    reflectors that dsytrd leaves in the [1:, :-1] sub-block, returned as
    a Fortran-ordered copy with their tau.
    """
    from scipy.linalg.lapack import dstevd, dsytrd, dsytrd_lwork

    lwork, info = dsytrd_lwork(b.shape[0], lower=1)
    a, diag, off, tau, info = dsytrd(b, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsytrd failed with info {info}")
    # dstevd wants one off-diagonal entry even for a 1 x 1 block
    theta, w, info = dstevd(diag, off if off.size else np.zeros(1))
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info {info}")
    # copied after dstevd, whose n^2 workspace is gone by then
    return theta, w, (np.asfortranarray(a[1:, :-1]), tau)


class _TpsCore(FactoredBasis):
    """Design-dependent geometry shared by calibration and the smoother.

    With T = Q [R; 0] the QR of the n x m polynomial block, Q = [q1 q2] and
    q2' E q2 = V diag(theta) V', the smoother's eigenvectors are the columns
    of q1 (eigenvalue 1) and of g2 = q2 V (eigenvalue theta / (theta + n lam)).

    The eigenbasis U = [q1 g2] = Q blockdiag(I_m, Q_t W) is held factored:
    Q as a :class:`~ibrsmooth.smoothers.HouseholderQ`, the m reflectors of
    the polynomial block's QR in compact WY form, the reduction q2' E q2 =
    Q_t T Q_t' to tridiagonal T as dsytrd's reflectors, and T = W diag(theta)
    W' as dstevd's eigenvectors W. U v and U' v (:meth:`dot`,
    :meth:`t_dot`) are reflector passes and one product with W, O(n^2) per
    vector; :meth:`dense` forms U only when a consumer asks for the block.

    E costs O(d n^2), filled in place a block of rows at a time from the
    squared distances (:class:`_RadialRows`), the QR O(m^2 n), Q' E Q
    (:meth:`HouseholderQ.project`) O(m n^2), the reduction 4/3 n^3 flops
    and dstedc at most as much; a dense eigh's 2 n^3 back-transformation
    Q_t W is skipped. ``theta`` descends while the columns of W ascend. Of E the
    geometry keeps only the m x (n - m) block q1' E q2 that
    :meth:`TpsSmoother.prediction_parts` needs, so it holds two
    (n - m)-square arrays, the dsytrd reflectors and W. The build peaks at
    three n x n arrays, in the eigensolver (the reduced block, W and
    dstevd's workspace); E and the copy of its projected block take two.
    """

    def __init__(self, design: DesignMatrix, order: int):
        n, d = design.n, design.d
        if 2 * order <= d:
            raise ValueError(f"order {order} too low for {d} columns; need 2*order > d")
        self.design = design
        self.order = order
        self.m = m = tps_null_dim(order, d)
        self.shape = (n, n)
        if n <= m:
            raise ValueError(
                f"need more than {m} rows for a thin-plate spline of "
                f"order {order} in {d} variables, got {n}"
            )
        e = np.empty((n, n))
        kappa = _radial_constant(order, d)
        _fill(_RadialRows(design.x, order, kappa).blocks(design.x, e, distinct=True))
        self.powers = tps_powers(order, d)
        self._null = HouseholderQ(_poly_block(design.x, self.powers))
        diag = np.abs(np.diag(self._null.r))
        if diag.min() <= n * np.finfo(float).eps * max(diag.max(), 1.0):
            raise ValueError(
                "polynomial block is rank deficient (collinear design); "
                "thin-plate splines need points in general position"
            )
        b, self._cross = self._null.project(e)
        del e
        theta, self._w, self._tri = _tridiagonal_eigh(b)
        floor = -1e-8 * max(abs(theta[-1]), 1.0)
        if theta[0] < floor:
            raise ValueError(
                f"radial block has a negative penalized eigenvalue {theta[0]:.3e}; "
                "the design does not support this spline order"
            )
        self.theta = np.maximum(theta[::-1], 0.0)

    def dot(self, v: np.ndarray) -> np.ndarray:
        """U v for v of shape (n,) or (n, c): W, then Q_t, then Q."""
        m = self.m
        x = np.empty(v.shape)
        x[:m] = v[:m]
        # U's columns descend in theta and W's ascend: reverse the coordinates
        t = self._w @ np.ascontiguousarray(v[m:][::-1])
        x[m] = t[0]
        x[m + 1 :] = _reflect("N", *self._tri, t[1:])
        return self._null.dot(x)

    def t_dot(self, v: np.ndarray) -> np.ndarray:
        """U' v for v of shape (n,) or (n, c): Q', then Q_t', then W'."""
        x = self._null.t_dot(v)
        x[self.m :] = self._tail_t(x[self.m :])
        return x

    def _tail_t(self, x: np.ndarray) -> np.ndarray:
        """g2' q2 x = W' Q_t' x for x of shape (n - m,) or (n - m, c), in
        U's (descending) column order; x is overwritten."""
        x[1:] = _reflect("T", *self._tri, x[1:])
        return (self._w.T @ x)[::-1]

    def dense(self) -> np.ndarray:
        """U = [q1 g2] as an n x n array: dsyevd's back-transformation Q_t W
        and one pass of Q, done on each call; the core keeps no copy."""
        n, m = self.shape[0], self.m
        u = np.zeros((n, n), order="F")
        u[:m, :m] = np.eye(m)
        u[m, m:] = self._w[0, ::-1]
        u[m + 1 :, m:] = _reflect("N", *self._tri, self._w[1:, ::-1])
        return self._null.dot(u)

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
        """U diag(lam) U', formed on the first call from a dense U that is
        then dropped; the fit itself never forms it."""
        u = self.core.dense()
        # every eigenvalue lies in [0, 1], so S = (U sqrt(lam)) (U sqrt(lam))'
        u *= np.sqrt(self._spectral.lam)
        return u @ u.T

    @property
    def initial_df(self) -> float:
        return float(self.core.m + np.sum(self._ratio))

    def spectral(self) -> SpectralForm:
        return self._spectral

    @cached_property
    def _spectral(self) -> SpectralForm:
        c = self.core
        lam = np.concatenate([np.ones(c.m), self._ratio])
        return SpectralForm(d_half=np.ones(self.n), u=c, lam=lam, pd_family=True)

    def predictor(self, coef: np.ndarray) -> TpsPredictor:
        x, order, powers = self.design.x.copy(), self.spec.order, self.core.powers
        return TpsPredictor(x, order, powers, *self.prediction_parts(coef))

    def evaluate_basis(self, x_new: np.ndarray) -> np.ndarray:
        """W(x_new) U in O(rows n^2), with no dense U.

        The penalized solve for coef = U has U'U = I, so delta = U D with
        D = diag(0_m, 1 / (theta + n lam)) and poly = R^-1 ([I_m 0] -
        (q1' E q2) q2' U D), where q2' U = [0 Q_t W]: the radial part is
        one :meth:`_TpsCore.t_dot` pass over the radial rows, the
        polynomial part one pass over m columns.
        """
        from scipy.linalg import solve_triangular

        c, m = self.core, self.core.m
        x_new = _finite_rows(x_new, self.d)
        kappa = _radial_constant(self.spec.order, self.d)
        scale = np.concatenate([np.zeros(m), 1.0 / (c.theta + self.n * self.spec.lam)])
        phi = np.empty((x_new.shape[0], self.n))
        _fill(_RadialRows(self.design.x, self.spec.order).blocks(x_new, phi))
        radial = c.t_dot(phi.T).T * (kappa * scale)
        poly = np.zeros((m, self.n))
        poly[:, :m] = np.eye(m)
        poly[:, m:] = -c._tail_t(c._cross.T.copy()).T * scale[m:]
        return radial + _poly_block(x_new, c.powers) @ solve_triangular(c._null.r, poly)

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
        poly = R^-1 q1' (coef - E delta - n lam delta), where q1' delta = 0
        leaves R^-1 (q1' coef - (q1' E q2) (q2' delta)).
        """
        from scipy.linalg import solve_triangular

        c = self.core
        nl = self.design.n * self.spec.lam
        a = c.t_dot(coef)
        q1_coef = a[: c.m].copy()
        a[: c.m] = 0.0
        # scale the rows of g2' coef; the transposes let a vector pass too
        a[c.m :] = (a[c.m :].T / (c.theta + nl)).T
        delta = c.dot(a)
        q2_delta = c._null.t_dot(delta)[c.m :]
        return delta, solve_triangular(c._null.r, q1_coef - c._cross @ q2_delta)


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
    design = DesignMatrix.from_array(x)
    if order is None:
        order = default_tps_order(design.d)
    if not df_multiplier > 1.0:
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
    lam = _log_newton_root(
        core.trace_and_slope, target, core.m, scale * 1e-9, scale * 1e9, "spline df", _TRACE_TOL
    )
    spec = TpsSpec(order=order, lam=lam)
    return TpsSmoother(design, spec, core=core)
