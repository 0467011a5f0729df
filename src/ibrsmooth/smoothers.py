"""Shared types and helpers of the linear base smoothers.

A base smoother is an n x n linear map S that is deliberately chosen too
smooth; the bias-reduction iteration then sharpens it. Both smoother
families expose the same interface: the dense matrix (the reference the
fast paths are checked against), a symmetrized eigendecomposition whose
eigenvector block may be held in factored form, and ``predictor(coef)``,
the family's one evaluator of its weights at new points applied to one
or more coefficient vectors, without forming the weight matrix; the fit,
the cross-validation folds and a saved model all predict through it.
What both families use lives here, so neither imports the other's
internals: the pairwise block loop (:func:`_pairwise_blocks`), the
squared gaps at new rows as one product (:class:`_AugmentedGaps`: the
Gaussian exponent and the spline's radial rows for even d), the
calibrations' root finder (:func:`_log_newton_root`),
:class:`CalibrationError` and :class:`HouseholderQ`, the one way a
Householder Q is held and applied (the Gaussian factor's eigenvectors and
the spline's polynomial null space).
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BaseSmoother",
    "CalibrationError",
    "DesignMatrix",
    "EIGEN_TOL",
    "FactoredBasis",
    "HouseholderQ",
    "SpectralForm",
]

# slack allowed on the [0, 1] eigenvalue range before the real-k path refuses
EIGEN_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# pairwise values against the design (kernel weights, the spline's radial
# basis) are built in blocks of new rows of about this many bytes: the two
# block buffers stay in cache and under the size at which numpy asks for
# huge pages
_PREDICT_BLOCK_BYTES = 1 << 18
# an end of a calibration's sign bracket is only evaluated when a step heads
# past it; while the target lies beyond it, it moves out tenfold, at most
# _MAX_EXPANSIONS times. The search stops once a Newton step or the bracket
# is _LOG_XTOL short in log scale, i.e. relative to the scale; _MAX_STEPS
# covers bisecting the fully expanded bracket down to it
_MAX_EXPANSIONS = 10
_LOG_XTOL = 1e-12
_MAX_STEPS = 100
_LN10 = math.log(10.0)


def _accuracy_floor(n: int, norm: float) -> float:
    """The accuracy floor f = n eps ||A|| of the computed eigenvalues of an
    n x n symmetric A, ``norm`` being ||A|| = max |lambda|.

    A backward-stable eigensolver returns the eigenvalues of A + E with
    ||E|| of about n eps ||A||, so by Weyl's inequality each lies within
    about f of the exact one (Golub & Van Loan, *Matrix Computations*, 4th
    ed., section 8.1): an eigenvalue below f is rounding.
    """
    return n * _EPS * norm


class CalibrationError(RuntimeError):
    """Raised when a degrees-of-freedom target cannot be bracketed or hit."""


@dataclass
class DesignMatrix:
    """Numeric design with named columns, rows in original order.

    ``x`` is the design's own float copy of the array it is given, so a
    caller who later writes into that array changes no fit built on it.
    """

    x: np.ndarray
    names: list[str]

    def __post_init__(self) -> None:
        self.x = np.atleast_2d(np.array(self.x, dtype=float))
        if self.x.ndim != 2:
            raise ValueError("design must be a 2-d array")
        n, d = self.x.shape
        if n < 2:
            raise ValueError(f"need at least 2 rows, got {n}")
        if d < 1:
            raise ValueError("need at least one column")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("design contains non-finite values")
        if len(self.names) != d:
            raise ValueError(f"{len(self.names)} names for {d} columns")

    @classmethod
    def from_array(cls, x, names: list[str] | None = None) -> "DesignMatrix":
        """A design from an array (1-D: one column), named x1, x2, ... unless
        ``names`` is given; a DesignMatrix is returned as it is, without names."""
        if isinstance(x, DesignMatrix):
            if names is not None:
                raise ValueError("names are given by the DesignMatrix; pass names with an array")
            return x
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if names is None:
            names = [f"x{j + 1}" for j in range(x.shape[1])]
        return cls(x=x, names=list(names))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _is_real(value) -> bool:
    # a boolean is a number to Python but not a smoothing or search parameter
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _read_y(y, n: int) -> np.ndarray:
    """y as a float vector of n finite entries, else ValueError."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != n:
        raise ValueError(f"y has {y.size} entries for {n} rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    return y


def _read_xy(x, y, names: list[str] | None = None) -> tuple[DesignMatrix, np.ndarray]:
    """(x, y) as every entry point reads them: :func:`_read_y`, y not constant."""
    design = DesignMatrix.from_array(x, names)
    y = _read_y(y, design.n)
    if np.all(y == y[0]):
        raise ValueError(f"y is constant ({y[0]:g}); there is nothing to smooth")
    return design, y


class FactoredBasis(ABC):
    """An n x r block U with orthonormal columns, held in a factored form
    whose products with a vector cost less than a dense U would hold."""

    shape: tuple[int, int]

    @abstractmethod
    def dot(self, v: np.ndarray) -> np.ndarray:
        """U v for v of shape (r,) or (r, c)."""

    @abstractmethod
    def t_dot(self, v: np.ndarray) -> np.ndarray:
        """U' v for v of shape (n,) or (n, c)."""

    @abstractmethod
    def dense(self) -> np.ndarray:
        """U as an n x r array, formed on each call and not kept."""


class HouseholderQ:
    """Householder QR of a tall n x w block ``a``: R as ``r`` and Q as the w
    reflectors of ``np.linalg.qr(mode="raw")`` in compact WY form.

    The raw block is w x n: its row j holds R's column j up to the diagonal
    and the reflector v_j below it (H_j = I - tau_j v_j v_j', v_j unit at j,
    zero above), and V is written over it in place. Q = H_1 ... H_w =
    I - V T V' (Schreiber & Van Loan 1989) with T^{-1} = triu(V'V, 1) +
    diag(1 / tau) (Joffrain et al. 2006). An identity reflector (tau_j = 0)
    is taken as v_j = 0 with a unit diagonal entry, with no division by zero.
    """

    def __init__(self, a: np.ndarray):
        vt, tau = np.linalg.qr(a, mode="raw")
        width = tau.size
        self.r = np.triu(vt[:, :width].T)
        np.copyto(vt[:, :width], np.eye(width), where=np.tri(width, dtype=bool))
        identity = tau == 0.0
        vt[identity] = 0.0
        self._vt = vt
        self._inv_t = np.triu(vt @ vt.T, 1)
        self._inv_t[np.diag_indices(width)] = 1.0 / np.where(identity, 1.0, tau)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Q [x; 0] for x of shape (rows,) or (rows, c), w <= rows <= n."""
        return self._apply(self._inv_t, x)

    def t_dot(self, x: np.ndarray) -> np.ndarray:
        """Q' x for x of shape (n,) or (n, c)."""
        return self._apply(self._inv_t.T, x)

    def _apply(self, inv_t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """[x; 0] - V Y for ``inv_t`` Y = V_1' x, V_1 the top rows of V: two
        products with V, O(n w c), and one w x w solve. A 2-D product is
        Fortran-ordered, as a reflector pass leaves it."""
        rows = x.shape[0]
        y = np.negative(np.linalg.solve(inv_t, self._vt[:, :rows] @ x))
        # (-Y' V')' is the n x c product in Fortran order
        u = (y.T @ self._vt).T
        u[:rows] += x
        return u

    def project(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Q_2' E Q_2, Q_1' E Q_2), Q = [Q_1 Q_2] split after w columns, for
        a symmetric n x n E, which is overwritten: with F = E V and
        X = F T - V T' (V' F) T / 2, Q' E Q = E - V X' - X V', one GEMM and
        one in-place BLAS dsyr2k (lower=1, loaded from scipy here, as only
        the spline projects), O(w n^2). The first block is a Fortran-ordered
        copy whose lower triangle is what dsytrd(lower=1) reads; its upper
        triangle holds E's. The second comes from the [w:, :w] block."""
        from scipy.linalg.blas import dsyr2k

        width = self.r.shape[0]
        # E is symmetric, so its transpose is E in Fortran order
        v, t = self._vt.T, np.linalg.inv(self._inv_t)
        f = e.T @ v
        x = f @ t - 0.5 * (v @ (t.T @ (v.T @ f) @ t))
        qeq = dsyr2k(-1.0, v, x, beta=1.0, c=e.T, lower=1, overwrite_c=1)
        tail = qeq[width:]
        return np.array(tail[:, width:], order="F"), np.ascontiguousarray(tail[:, :width].T)


@dataclass
class SpectralForm:
    """Eigendecomposition of a smoother under a diagonal similarity.

    The smoother factors as S = diag(d_half) U diag(lam) U' diag(1/d_half)
    with U orthogonal. For symmetric smoothers d_half is all ones and this
    is the plain eigendecomposition.

    A truncated form keeps only the top ``rank`` < n eigenpairs (the
    Gaussian factor route keeps those above :attr:`floor`): U is n x rank
    with orthonormal columns, and ``tail_trace`` bounds the sum of the
    discarded (non-negative) eigenvalues, so no eigenpair left out can add
    more than k * tail_trace to the df at k. The full form has rank n and
    tail_trace 0.

    ``u`` is an array or a :class:`FactoredBasis`. Consumers reach U
    through :meth:`u_dot` and :meth:`ut_dot`; the few that need the block
    itself call :meth:`dense_u`, which forms a factored U on each call.

    Two flags are read off the spectrum once, at construction: ``symmetric``
    (d_half all ones) and ``real_k_ok`` (every eigenvalue within
    ``EIGEN_TOL`` of [0, 1], so fractional iteration counts are defined).
    """

    d_half: np.ndarray
    u: np.ndarray | FactoredBasis
    lam: np.ndarray
    # set for families whose eigenvalues must lie in [0, 1] (PD kernels, TPS)
    pd_family: bool = True
    tail_trace: float = 0.0

    def __post_init__(self) -> None:
        self.d_half = np.asarray(self.d_half, dtype=float)
        if not isinstance(self.u, FactoredBasis):
            self.u = np.asarray(self.u, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.u.shape != (self.d_half.size, self.lam.size):
            raise ValueError(
                f"eigenvector block of shape {self.u.shape} for "
                f"{self.d_half.size} points and {self.lam.size} eigenvalues"
            )
        if np.any(np.diff(self.lam) > 1e-12):
            raise ValueError("eigenvalues must be sorted in descending order")
        self.symmetric = bool(np.all(self.d_half == 1.0))
        lo, hi = self.lam.min(), self.lam.max()
        self.real_k_ok = bool(lo > -EIGEN_TOL and hi <= 1.0 + EIGEN_TOL)
        if self.pd_family and not self.real_k_ok:
            raise ValueError(
                "eigenvalues outside [0, 1] for a positive-definite "
                f"smoother family: range [{lo:.3e}, {hi:.3e}]"
            )

    @property
    def n(self) -> int:
        return self.d_half.shape[0]

    @property
    def rank(self) -> int:
        """Number of eigenpairs kept."""
        return self.lam.shape[0]

    @property
    def floor(self) -> float:
        """The accuracy floor n eps max |lambda| (:func:`_accuracy_floor`):
        a kept eigenvalue below it in magnitude is rounding."""
        return _accuracy_floor(self.n, float(np.abs(self.lam).max()))

    def u_dot(self, v: np.ndarray) -> np.ndarray:
        """U v for v of shape (rank,) or (rank, c)."""
        return self.u.dot(v) if isinstance(self.u, FactoredBasis) else self.u @ v

    def ut_dot(self, v: np.ndarray) -> np.ndarray:
        """U' v for v of shape (n,) or (n, c)."""
        return self.u.t_dot(v) if isinstance(self.u, FactoredBasis) else self.u.T @ v

    def dense_u(self) -> np.ndarray:
        """U as an n x rank array: ``u`` itself, or a factored U formed now."""
        return self.u.dense() if isinstance(self.u, FactoredBasis) else self.u

    def reconstruct(self) -> np.ndarray:
        """Rebuild the dense smoother matrix from the (kept) factors."""
        u = self.dense_u()
        core = (u * self.lam) @ u.T
        return (self.d_half[:, None] * core) / self.d_half[None, :]


def _finite_rows(x_new, d: int) -> np.ndarray:
    """New points as a 2-D float array of d columns, refusing any non-finite
    entry. A 1-D array holds m points of a one-column fit, as ``fit`` reads
    a 1-D x, and one row of any other fit."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim > 2:
        raise ValueError(f"prediction rows must be a 1-D or 2-D array, got shape {x_new.shape}")
    x_new = x_new[:, None] if x_new.ndim == 1 and d == 1 else np.atleast_2d(x_new)
    if not np.isfinite(x_new).all():
        row = int(np.argmin(np.isfinite(x_new).all(axis=1)))
        raise ValueError(f"prediction row {row} has non-finite values")
    if x_new.shape[1] != d:
        raise ValueError(f"expected {d} columns, got {x_new.shape[1]}")
    return x_new


def _squared_distances(a: np.ndarray, bt: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """|a_i - b_j|^2 into ``out`` (rows of a by columns of ``bt``, the
    second point set transposed), the squared gaps added up one column at a
    time, in column order, through ``scratch`` of the same shape: no
    rows x rows x d difference tensor is formed. Each gap block is a's
    column written by a broadcast fill, less b's column as a contiguous row
    broadcast: a stride-0 operand in numpy's inner loop runs several times
    slower. It serves the Gaussian Gram builds (``kmat``, ``matrix`` and the
    dense spectrum), Gaussian prediction against a design wider than the
    prediction tables' span rule, the spline's radial block E (its Gram
    build) and the spline's radial rows at new points for an odd number of
    columns; compact kernels take their own column loop of the same form.
    Gaussian prediction within the span rule and the spline's radial rows
    at new points for an even number of columns expand the squared gap
    into one product instead (:class:`_AugmentedGaps`)."""
    for j in range(a.shape[1]):
        gap = scratch if j else out
        gap[...] = a[:, j, None]
        gap -= bt[j]
        gap *= gap
        if j:
            out += gap
    return out


class _AugmentedGaps:
    """Squared gaps s_ij = |u_i - v_j|^2 between new rows and a fixed design
    ``x``, times ``sign`` (1 or -1), by one GEMM per block of rows.

    Both sides are taken in one frame, v = (x - centre) scale, with
    ``centre`` and ``scale`` (None: 1) per column: centring on the design's
    box keeps a design far from the origin from losing accuracy to |v|^2.
    The design is held as the (d + 2) x n block -sign [2v; 1; -|v|^2]
    (``block``) and each call builds the rows' block [u, -|u|^2, 1], so the
    product is sign (|u|^2 + |v|^2 - 2 u.v), with an absolute error of
    about eps (|u|^2 + |v|^2): only the subtraction
    (:func:`_squared_distances`) gives exact zeros at duplicate points. A
    row's gap to the centre is clipped to ``reach`` first, when given.
    Unclipped, a row whose |u|^2 passes the float range reads inf, which
    meets the zeros the BLAS pads a block with and reads NaN, in that row
    only.
    """

    def __init__(self, x: np.ndarray, centre: np.ndarray, scale=None, reach=None, sign=1.0):
        self.centre, self.scale, self.reach = centre, scale, reach
        v = x - centre
        if scale is not None:
            v *= scale
        self.block = np.vstack([2.0 * v.T, np.ones(len(x)), -_row_norms(v)])
        if sign > 0:
            np.negative(self.block, out=self.block)

    def blocks(self, x_new: np.ndarray, finish, out=None):
        """:func:`_pairwise_blocks` of sign |u_i - v_j|^2 for the rows of
        ``x_new``, each block then passed through ``finish(block, scratch)``,
        which works in place."""
        u = self._rows(x_new)

        def fill(rows, w, scratch):
            np.matmul(u[rows], self.block, out=w)
            finish(w, scratch)

        return _pairwise_blocks(x_new, self.block.T, fill, out)

    def _rows(self, x_new: np.ndarray) -> np.ndarray:
        """The rows' block [u, -|u|^2, 1]."""
        d = x_new.shape[1]
        u = np.empty((len(x_new), d + 2))
        gap = np.subtract(x_new, self.centre, out=u[:, :d])
        if self.reach is not None:
            np.minimum(gap, self.reach, out=gap)
            np.maximum(gap, -self.reach, out=gap)
        if self.scale is not None:
            gap *= self.scale
        np.negative(_row_norms(gap), out=u[:, d])
        u[:, d + 1] = 1.0
        return u


def _column_range(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest entry of each column of an (n, d) array (a
    column at a time: a reduction along axis 0 of a few columns is several
    times slower)."""
    return np.array([c.min() for c in x.T]), np.array([c.max() for c in x.T])


def _row_norms(a: np.ndarray) -> np.ndarray:
    """|a_i|^2 for each row of an (m, d) array, a column at a time."""
    sq = a[:, 0] * a[:, 0]
    for col in a.T[1:]:
        sq += col * col
    return sq


def _unit_box(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and half range of each column, so (x - centre) / half maps the
    training box onto [-1, 1] (halved first, so it cannot overflow)."""
    lo, hi = _column_range(x)
    return 0.5 * hi + 0.5 * lo, 0.5 * hi - 0.5 * lo


def _pairwise_blocks(a: np.ndarray, b: np.ndarray, fill, out=None):
    """Yield (rows, block) for slices ``rows`` of the rows of ``a``, each
    block (rows of a by rows of b) filled by ``fill(rows, block, scratch)``
    with one block-shaped scratch buffer. A block holds about
    ``_PREDICT_BLOCK_BYTES`` in whole eight-row groups, and is ``out[rows]``
    when ``out`` is given, else one buffer that the next block overwrites."""
    m, n = a.shape[0], b.shape[0]
    step = max(1, min(m, max(8, _PREDICT_BLOCK_BYTES // (8 * n) // 8 * 8)))
    buf = _cache_aligned((step, n)) if out is None else out
    scratch = _cache_aligned((step, n))
    for start in range(0, m, step):
        rows = slice(start, min(start + step, m))
        block = buf[rows] if out is not None else buf[: rows.stop - start]
        fill(rows, block, scratch[: rows.stop - start])
        yield rows, block


def _cache_aligned(shape) -> np.ndarray:
    """An empty C-ordered float array starting on a 64-byte cache line.

    malloc aligns to 16 bytes only, so a plain block buffer starts at one of
    four places in its cache line, set by the heap's state, which differs
    from one fit and one process to the next: 500-row predicts of the
    900-point spline ran 6% slower with both block buffers 32 bytes into a
    line and 13-14% slower at 16 or 48 (one BLAS thread).
    """
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + size].reshape(shape)


def _fill(blocks) -> None:
    """Run a block generator given an ``out`` array to its end, keeping no
    reference to its last block."""
    for _ in blocks:
        pass


def _log_newton_root(
    trace, target: float, floor: float, lo: float, hi: float, what: str, tol: float, hint: str = ""
) -> float:
    """Scale x in [lo, hi] (or the expanded bracket) where trace(x) = target.

    ``trace(x)`` must decrease in x towards ``floor`` as x grows, with
    floor < target, and return the trace together with its slope
    d trace / d log x. The search runs on t = log x from the middle of the
    bracket. It keeps a sign bracket [a, b], trace above the target at a and
    below it at b, and takes a Newton step only when it lands strictly
    inside; otherwise it bisects (``rtsafe``, Numerical Recipes section
    9.4). The steps are Newton steps for log(trace - floor) =
    log(target - floor), which has the same root and is close to linear in
    t where the trace decays like a power of x, so steps from far out land
    near the root instead of overshooting. An end that has not been
    evaluated is evaluated first when a step heads past it, and moved out
    tenfold while the target lies beyond it. A zero slope always bisects,
    so a piecewise constant trace narrows down to its jump.

    Returns the last evaluated scale. Raises CalibrationError, naming the
    ``what`` target, when no bracket is found or when the trace there misses
    the target by more than ``tol``, the miss followed by ``hint``.
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
    if not abs(value - target) <= tol:
        raise CalibrationError(
            f"the {what} calibration reached trace {value:.6f} instead of {target}{hint}"
        )
    return x


def _no_bracket(what: str, target: float, x: float, value: float) -> CalibrationError:
    return CalibrationError(
        f"could not bracket the {what} target {target:g}: "
        f"trace {value:.6g} at {x:.3e}, the end of the widest search range"
    )


class BaseSmoother(ABC):
    """Interface shared by the kernel and thin-plate-spline smoothers."""

    design: DesignMatrix

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def d(self) -> int:
        return self.design.d

    @property
    @abstractmethod
    def matrix(self) -> np.ndarray:
        """Dense n x n smoothing matrix."""

    @property
    @abstractmethod
    def initial_df(self) -> float:
        """Trace of the smoothing matrix (degrees of freedom of one pass)."""

    @abstractmethod
    def spectral(self) -> SpectralForm:
        """Similarity-symmetrized eigendecomposition, cached."""

    def smooth(self, v: np.ndarray) -> np.ndarray:
        """S v for v of shape (n,). This default takes S from the full
        spectrum's own pairs, diag(d_half) U diag(lam) U' diag(1 / d_half),
        so at a fitted coefficient vector it gives the spectral fitted values
        to rounding; a smoother whose spectrum is truncated overrides it."""
        form = self.spectral()
        return form.d_half * form.u_dot(form.lam * form.ut_dot(v / form.d_half))

    @abstractmethod
    def predictor(self, coef: np.ndarray):
        """The family's evaluator of W(x) @ coef for coef of shape (n,) or
        (n, c), holding a copy of the design and ``coef`` itself: its
        ``predict(x_new)`` gives one value (or row of c) per row of x_new."""

    def evaluate_basis(self, x_new: np.ndarray) -> np.ndarray:
        """W(x_new) G for G = diag(d_half) U of :meth:`spectral`, so that
        W(x_new) times a fitted coefficient vector G v is this times v.
        Row x of W holds the evaluation weights w(x), so w(x)' y is one
        smoothing pass at x; at the training rows W is ``matrix``. This
        default forms G densely and evaluates it through :meth:`predictor`."""
        form = self.spectral()
        return self.predictor(form.d_half[:, None] * form.dense_u()).predict(x_new)

    @abstractmethod
    def describe(self) -> str:
        """One-line human description for fit reports."""

