"""Shared types for linear base smoothers.

A base smoother is an n x n linear map S that is deliberately chosen too
smooth; the bias-reduction iteration then sharpens it. Both smoother
families expose the same interface: the dense matrix (the reference the
fast paths are checked against), a symmetrized eigendecomposition whose
eigenvector block may be held in factored form, and
``evaluate(x, coef)``, the smoother's weights at new points applied to one
or more coefficient vectors without forming the weight matrix.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["DesignMatrix", "FactoredBasis", "SpectralForm", "BaseSmoother", "EIGEN_TOL"]

# slack allowed on the [0, 1] eigenvalue range before the real-k path refuses
EIGEN_TOL = 1e-10


@dataclass
class DesignMatrix:
    """Numeric design with named columns, rows in original order."""

    x: np.ndarray
    names: list[str]

    def __post_init__(self) -> None:
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
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
    def from_array(cls, x: np.ndarray, names: list[str] | None = None) -> "DesignMatrix":
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


@dataclass
class SpectralForm:
    """Eigendecomposition of a smoother under a diagonal similarity.

    The smoother factors as S = diag(d_half) U diag(lam) U' diag(1/d_half)
    with U orthogonal. For symmetric smoothers d_half is all ones and this
    is the plain eigendecomposition.

    A truncated form keeps only the top ``rank`` < n eigenpairs: U is
    n x rank with orthonormal columns, and ``tail_trace`` bounds the sum of
    the discarded (non-negative) eigenvalues, so no eigenpair left out can
    add more than k * tail_trace to the df at k. The full form has rank n
    and tail_trace 0.

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
    x_new = x_new[:, None] if x_new.ndim == 1 and d == 1 else np.atleast_2d(x_new)
    if not np.isfinite(x_new).all():
        row = int(np.argmin(np.isfinite(x_new).all(axis=1)))
        raise ValueError(f"prediction row {row} has non-finite values")
    if x_new.shape[1] != d:
        raise ValueError(f"expected {d} columns, got {x_new.shape[1]}")
    return x_new


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

    @abstractmethod
    def evaluate(self, x_new: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """W(x_new) @ coef for coef of shape (n,) or (n, c).

        Row x of W holds the evaluation weights w(x), so w(x)' y is one
        smoothing pass at x; at the training rows W is ``matrix``. At most a
        block of W is formed.
        """

    def evaluate_basis(self, x_new: np.ndarray) -> np.ndarray:
        """W(x_new) G for G = diag(d_half) U of :meth:`spectral`, so that
        W(x_new) times a fitted coefficient vector G v is this times v.
        This default forms G densely."""
        form = self.spectral()
        return self.evaluate(x_new, form.d_half[:, None] * form.dense_u())

    @abstractmethod
    def describe(self) -> str:
        """One-line human description for fit reports."""

