"""Shared types for linear base smoothers.

A base smoother is an n x n linear map S that is deliberately chosen too
smooth; the bias-reduction iteration then sharpens it. Both smoother
families expose the same interface: the dense matrix (the reference the
fast paths are checked against), a symmetrized eigendecomposition, and
``evaluate(x, coef)``, the smoother's weights at new points applied to one
or more coefficient vectors without forming the weight matrix.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["DesignMatrix", "SpectralForm", "BaseSmoother", "EIGEN_TOL"]

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
    """

    d_half: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    # set for families whose eigenvalues must lie in [0, 1] (PD kernels, TPS)
    pd_family: bool = True
    tail_trace: float = 0.0

    def __post_init__(self) -> None:
        self.d_half = np.asarray(self.d_half, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.u.shape != (self.d_half.size, self.lam.size):
            raise ValueError(
                f"eigenvector block of shape {self.u.shape} for "
                f"{self.d_half.size} points and {self.lam.size} eigenvalues"
            )
        if np.any(np.diff(self.lam) > 1e-12):
            raise ValueError("eigenvalues must be sorted in descending order")
        if self.pd_family:
            if self.lam.min() <= -EIGEN_TOL or self.lam.max() > 1.0 + EIGEN_TOL:
                raise ValueError(
                    "eigenvalues outside [0, 1] for a positive-definite "
                    f"smoother family: range [{self.lam.min():.3e}, "
                    f"{self.lam.max():.3e}]"
                )

    @property
    def n(self) -> int:
        return self.d_half.shape[0]

    @property
    def rank(self) -> int:
        """Number of eigenpairs kept."""
        return self.lam.shape[0]

    @property
    def symmetric(self) -> bool:
        return bool(np.all(self.d_half == 1.0))

    @property
    def real_k_ok(self) -> bool:
        """True when fractional iteration counts are well defined."""
        return bool(
            self.lam.min() > -EIGEN_TOL and self.lam.max() <= 1.0 + EIGEN_TOL
        )

    def reconstruct(self) -> np.ndarray:
        """Rebuild the dense smoother matrix from the (kept) factors."""
        core = (self.u * self.lam) @ self.u.T
        return (self.d_half[:, None] * core) / self.d_half[None, :]


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
    def initial_df(self) -> float:
        """Trace of the smoothing matrix (degrees of freedom of one pass)."""
        return float(np.trace(self.matrix))

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

    @abstractmethod
    def describe(self) -> str:
        """One-line human description for fit reports."""
