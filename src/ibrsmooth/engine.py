"""Bias-reduction iteration along a smoother's eigendecomposition.

One smoothing pass leaves bias (I - S) m; smoothing the residuals and
adding the estimate back k - 1 times yields fitted values

    m_k = (I - (I - S)^k) y.

Under the similarity S = diag(d) U L U' diag(1/d) every quantity along the
iteration path (fitted values, coefficients, degrees of freedom, residual
sum of squares) reduces to cheap per-eigenvalue weights, and k may be any
non-negative real number as long as the spectrum stays inside [0, 1].
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .smoothers import BaseSmoother, SpectralForm, _read_y

__all__ = ["IterationDomainError", "KPath", "iterate_fitted_recursive"]

# below this magnitude the coefficient factor (1 - (1-l)^k) / l switches to
# its small-eigenvalue series
_SERIES_EIGEN = 1e-12

# integer sweeps walk the powers in row blocks of about this many bytes: a
# block, its base rows and its square stay in cache while each block's C pow
# calls serve enough rows (1e5-count sweep of a 900-point spline, one BLAS
# thread on a 2-vCPU Xeon: 0.30 s at 512 KB, 0.32 s at 256 KB and 1 MB,
# 0.42 s at 128 KB)
_SWEEP_BLOCK_BYTES = 1 << 19


class IterationDomainError(ValueError):
    """Fractional k requested for a spectrum outside [0, 1]."""


def _is_integer(k: float) -> bool:
    return abs(k - round(k)) < 1e-9


class KPath:
    """Precomputed quantities for walking the iteration path of one fit.

    For a kernel smoother the similarity is non-orthogonal, so Euclidean
    residual norms need the Gram matrix H = G'G with G = D^{1/2} U; the
    eigen-coordinate shortcut is only used when the smoother is symmetric
    (H = I).

    On a truncated spectral form (rank r < n) y = G z + t, where t is the
    part of y outside the kept basis. t is never smoothed: it stays in
    every residual, so rss = t't + 2 v'G't + v'Hv with H r x r, while df,
    fitted values, their energy and the coefficients run over the r kept
    pairs. On a full form there is no t and no extra term.

    Every set of counts reaches the path through one function of power rows
    (1 - lambda)^k, :meth:`_pow_rows`: a ``range`` of consecutive counts
    takes its power recurrence, any other vector of integers C ``pow`` and
    a fractional count exp(k log(1 - lambda)). df, rss and the
    fitted energy have one set of formulas on those rows (:meth:`_stats`,
    served by :meth:`batch_stats`) and the coefficient factors one
    (:meth:`batch_coef_factors`); :meth:`stats`, :meth:`weights` and
    :meth:`coefficients` take the one row of a single count.
    :meth:`batch_stat_slopes` and :meth:`batch_coef_factor_slopes` pair
    each with its derivatives in t = log k, formed from the same rows:
    d(1 - lambda)^k / dt = k log(1 - lambda) (1 - lambda)^k, with
    log(1 - lambda) taken on the clipped base (0 for a pair with
    lambda >= 1, whose power is 0).
    """

    def __init__(self, spectral: SpectralForm, y: np.ndarray):
        self.spectral = spectral
        self.y = y = _read_y(y, spectral.n)
        self.lam = spectral.lam
        self.mu = 1.0 - self.lam
        self.z = z = spectral.ut_dot(y / spectral.d_half)
        # the weights of every norm of G v when H = I
        self._z2 = z * z
        # (base, block, scratch) row buffers of integer sweeps, see _pow_rows
        self._sweep = None

    @property
    def n(self) -> int:
        return self.y.size

    # G, H and the remainder are formed on first use: a CV fold reads only z

    @cached_property
    def _g(self) -> np.ndarray | None:
        """G with G z = y exactly; fitted values are G (w * z). None when the
        form is symmetric (d_half all ones): G is U, reached only through the
        form's products."""
        s = self.spectral
        return None if s.symmetric else s.d_half[:, None] * s.u

    @cached_property
    def _norms(self):
        """(H = G'G, Hz, z'Hz), shared by every norm of G v; H is None and
        Hz is z when H = I."""
        h = None if self._g is None else self._g.T @ self._g
        hz = self.z if h is None else h @ self.z
        return h, hz, float(self.z @ hz)

    @cached_property
    def _rest(self) -> tuple[float, np.ndarray] | None:
        """(t't, z * G't) of the unsmoothed remainder t = y - G z of a
        truncated form, or None."""
        if self.spectral.rank == self.n:
            return None
        t = self.y - self._g_dot(self.z)
        return float(t @ t), self.z * self._gt_dot(t)

    @cached_property
    def _log_mu(self) -> np.ndarray:
        """log(1 - lambda) on the clipped base, 0 where lambda >= 1."""
        with np.errstate(divide="ignore"):
            ell = np.log1p(-np.clip(self.lam, 0.0, 1.0))
        return np.where(np.isfinite(ell), ell, 0.0)

    def _slope_rows(self, counts: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Rows d p / d log k = k log(1 - lambda) p of the power rows p."""
        return counts[:, None] * self._log_mu * p

    def _g_dot(self, v: np.ndarray) -> np.ndarray:
        return self.spectral.u_dot(v) if self._g is None else self._g @ v

    def _gt_dot(self, v: np.ndarray) -> np.ndarray:
        return self.spectral.ut_dot(v) if self._g is None else self._g.T @ v

    @property
    def sweep_rows(self) -> int:
        """Counts per block of an integer sweep: about ``_SWEEP_BLOCK_BYTES`` of powers."""
        return max(1, _SWEEP_BLOCK_BYTES // (8 * self.lam.size))

    def _check_real_k(self) -> None:
        if not self.spectral.real_k_ok:
            raise IterationDomainError(
                "fractional iteration counts are undefined for eigenvalues "
                f"outside [0, 1] (range [{self.lam.min():.3e}, "
                f"{self.lam.max():.3e}]); use integer counts via the "
                "exhaustive search or the residual recursion"
            )

    def _pow_rows(self, ks: range | np.ndarray):
        """(counts, P, scratch): rows P[j] = (1 - lambda)^counts[j] for the
        real counts ks >= 0, and scratch of P's shape or None.

        A ``range`` of consecutive counts, the block an integer sweep asks
        for, takes a recurrence: its rows are ``base * mu^ks[0]``, where
        ``base`` holds mu^0 .. mu^(B-1), built by repeated multiplication on
        the first block and kept for the next ones. Each block then costs one
        C ``pow`` per eigenvalue and one multiply, and the rounding error of
        a row is that of at most B products at every k, where chaining k
        products would accumulate k of them. P and its scratch are reused
        buffers that the next range overwrites.

        Any other vector takes the integer power of 1 - lambda for an integer
        count, one C ``pow`` per entry (an integral exponent keeps a negative
        mu valid on both routes; powers of |mu| > 1 overflow to inf). A
        fractional count needs the spectrum in [0, 1] and takes
        exp(k log(1 - lambda)) from ``_log_mu``, as the slope rows do (0
        where lambda >= 1): a power of the rounded 1 - lambda loses a tiny
        lambda's digits, so at large k its values would disagree with the
        slopes. Any other count set (a bare number, a 2-D array, an empty
        one) raises ValueError.
        """
        run = isinstance(ks, range) and ks.step == 1
        # np.asarray would walk a range in Python; a range's ends bound its counts
        counts = np.arange(ks.start, ks.stop, dtype=float) if run else np.asarray(ks, dtype=float)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError(f"iteration counts must be a range or a non-empty 1-D vector, got {ks!r}")
        lo, hi = (ks.start, ks.stop - 1) if run else (counts.min(), counts.max())
        if not 0.0 <= lo <= hi < np.inf:
            raise ValueError(f"iteration counts must be finite numbers >= 0, got {ks}")
        m, r = counts.size, self.lam.size
        with np.errstate(over="ignore", invalid="ignore"):
            if run:
                if self._sweep is None or self._sweep[0].shape[0] < m:
                    base = np.empty((m, r))
                    base[0] = 1.0
                    np.cumprod(np.broadcast_to(self.mu, (m - 1, r)), axis=0, out=base[1:])
                    self._sweep = (base, np.empty_like(base), np.empty_like(base))
                base, block, scratch = self._sweep
                p = np.multiply(base[:m], np.power(self.mu, counts[0]), out=block[:m])
                return counts, p, scratch[:m]
            whole = np.round(counts)
            frac = np.abs(counts - whole) >= 1e-9
            if not frac.any():
                return counts, np.power(self.mu, whole[:, None]), None
            self._check_real_k()
            p = np.exp(counts[:, None] * self._log_mu)
            p[:, self.lam >= 1.0] = 0.0
            if not frac.all():
                p[~frac] = np.power(self.mu, whole[~frac, None])
        return counts, p, None

    def _stats(self, p: np.ndarray, out: np.ndarray | None = None, dp: np.ndarray | None = None):
        """((df, rss, fitted_energy), slopes) arrays for power rows
        p[j] = (1 - lambda)^k_j; ``out`` is scratch of p's shape.

        With v = p_j * z the residual of count k_j is t + G v: df = (1 - p_j) 1
        over the r kept pairs, rss = v'Hv (+ t't + 2 v'G't on a truncated
        form), |fitted|^2 = z'Hz - 2 z'Hv + v'Hv, and when H = I, v'Hv =
        (p * p) z^2 and z'Hv = p z^2. slopes is None, or with the slope rows
        dp (:meth:`_slope_rows`) and v' = dp_j * z the slopes in log k:
        df' = -dp_j 1, rss' = 2 v''Hv (+ 2 v''G't) and |fitted|^2' =
        2 v''(Hv - Hz), from the same Hv.
        """
        w = np.subtract(1.0, p, out=out)
        df = w.sum(axis=1)
        h, hz, zhz = self._norms
        if h is None:
            cross = p @ self._z2
            if dp is not None:
                dvhv = 2.0 * ((dp * p) @ self._z2)
                dcross = dp @ self._z2
            vhv = np.multiply(p, p, out=w) @ self._z2
        else:
            vz = p * self.z
            hv = vz @ h
            vhv = np.einsum("ij,ij->i", hv, vz)
            cross = vz @ hz
            if dp is not None:
                dvz = dp * self.z
                dvhv = 2.0 * np.einsum("ij,ij->i", hv, dvz)
                dcross = dvz @ hz
        energy = zhz - 2.0 * cross + vhv
        rest = self._rest
        stats = df, vhv if rest is None else vhv + (rest[0] + 2.0 * (p @ rest[1])), energy
        if dp is None:
            return stats, None
        drss = dvhv if rest is None else dvhv + 2.0 * (dp @ rest[1])
        return stats, (-dp.sum(axis=1), drss, dvhv - 2.0 * dcross)

    def batch_stats(self, ks: range | np.ndarray):
        """(df, rss, fitted_energy) arrays over the counts ks, a ``range`` or a
        vector (:meth:`_pow_rows`): their power rows put through :meth:`_stats`."""
        _, p, scratch = self._pow_rows(ks)
        return self._stats(p, scratch)[0]

    def batch_stat_slopes(self, ks: np.ndarray):
        """The triple of :meth:`batch_stats` over a vector of counts ks and the
        triple of its slopes in log k, from the same power rows in one pass."""
        counts, p, _ = self._pow_rows(ks)
        return self._stats(p, dp=self._slope_rows(counts, p))

    def stats(self, k: float) -> tuple[float, float, float]:
        """(df, rss, fitted_energy) at one count k: a one-row :meth:`batch_stats`."""
        df, rss, energy = self.batch_stats([k])
        return float(df[0]), float(rss[0]), float(energy[0])

    def weights(self, k: float) -> np.ndarray:
        """Per-eigenvalue shrinkage weights 1 - (1 - lambda)^k."""
        return 1.0 - self._pow_rows([k])[1][0]

    def df(self, k: float) -> float:
        """tr(I - (I - S)^k), the sum of the weights; as :meth:`stats` without the norms."""
        return float(np.sum(self.weights(k)))

    def fitted(self, k: float) -> np.ndarray:
        return self._g_dot(self.weights(k) * self.z)

    def rss(self, k: float) -> float:
        return self.stats(k)[1]

    def fitted_energy(self, k: float) -> float:
        return self.stats(k)[2]

    def batch_coef_factors(self, ks: range | np.ndarray) -> np.ndarray:
        """Rows of per-eigenvalue factors (1 - (1 - lambda)^k) / lambda over the
        counts ks, taken as :meth:`batch_stats` takes them; eigenvalues below
        ``_SERIES_EIGEN`` take the series k (1 - (k - 1) lambda / 2)."""
        counts, p, _ = self._pow_rows(ks)
        return self._factors(counts, p)[0]

    def batch_coef_factor_slopes(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of :meth:`batch_coef_factors` over a vector of counts ks and
        the rows of their slopes in log k, -dp / lambda from the same power
        rows (the series k (1 - (k - 1/2) lambda) below ``_SERIES_EIGEN``)."""
        counts, p, _ = self._pow_rows(ks)
        return self._factors(counts, p, self._slope_rows(counts, p))

    def _factors(self, counts: np.ndarray, p: np.ndarray, dp: np.ndarray | None = None):
        """(factors, slopes): the factor rows of :meth:`batch_coef_factors`
        for power rows p, and None or, with the slope rows dp
        (:meth:`_slope_rows`), the slope rows of those factors."""
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (1.0 - p) / self.lam
            slopes = None if dp is None else -dp / self.lam
        small = np.abs(self.lam) < _SERIES_EIGEN
        if small.any():
            k, lam = counts[:, None], self.lam[small]
            out[:, small] = k * (1.0 - 0.5 * (k - 1.0) * lam)
            if dp is not None:
                slopes[:, small] = k * (1.0 - (k - 0.5) * lam)
        return out, slopes

    def coefficients(self, k: float) -> np.ndarray:
        return self._g_dot(self.batch_coef_factors([k])[0] * self.z)


def iterate_fitted_recursive(smoother, y: np.ndarray, k: int) -> np.ndarray:
    """Reference path: smooth residuals k times with the dense matrix.

    Mathematically identical to :meth:`KPath.fitted` for integer k; kept
    as an independent check and as the safe route for non-positive-definite
    kernels.
    """
    if not _is_integer(k) or k < 0:
        raise ValueError(f"the residual recursion needs an integer k >= 0, got {k}")
    s = smoother.matrix if isinstance(smoother, BaseSmoother) else np.asarray(smoother)
    y = np.asarray(y, dtype=float).ravel()
    r = y.copy()
    for _ in range(int(round(k))):
        r = r - s @ r
    return y - r
