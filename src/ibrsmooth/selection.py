"""Information criteria and search for the number of iterations.

All criteria live on the log scale, so differences rather than ratios
matter and additive constants are kept only where the original criterion
has them. The search treats the iteration count as a continuous variable
(numeric mode, the default) or sweeps integers (exhaustive mode); both
refuse any k whose effective degrees of freedom or residual sum of squares
signal that the iteration has effectively reached interpolation.
"""

from __future__ import annotations

import math
import warnings
from contextlib import closing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import minimize_scalar

from .engine import KPath
from .smoothers import SpectralForm

if TYPE_CHECKING:
    from .crossval import CvPlan

__all__ = [
    "CRITERIA",
    "CV_LOSSES",
    "RSS_FLOOR",
    "BreakdownError",
    "SelectionPlan",
    "SelectionResult",
    "criterion_value",
    "df_ceiling",
    "minimize_on_breaks",
    "search_k_exhaustive",
    "search_k_numeric",
    "search_mode",
]

CRITERIA = ("gcv", "aic", "aicc", "bic", "gmdl")
CV_LOSSES = ("rmse", "map")

# residual sums of squares at or below this are treated as interpolation
RSS_FLOOR = 1e-10
# effective df may never come within a relative 1e-10 of n
_DF_CEILING_FACTOR = 1.0 - 1e-10
# absolute tolerance on k for the scalar minimizer
_K_TOL = 0.01
# breakpoints splitting [kmin, kmax] into minimizer subintervals
_BREAKS = (100.0, 200.0, 500.0, 1000.0, 5000.0, 1e4, 5e4, 1e5, 5e5, 1e6)


class BreakdownError(RuntimeError):
    """Every candidate k was rejected by the interpolation guards."""


def df_ceiling(n: int, dfmaxi: float | None) -> float:
    """Largest admissible effective df for a sample of size n."""
    cap = n * _DF_CEILING_FACTOR
    if dfmaxi is None:
        return min(2.0 * n / 3.0, cap)
    if dfmaxi <= 0:
        raise ValueError(f"dfmaxi must be positive, got {dfmaxi}")
    return min(float(dfmaxi), cap)


def criterion_value(
    kind: str,
    n: int,
    rss: float,
    df: float,
    fitted_energy: float | None = None,
) -> float:
    """Evaluate one model-choice criterion on the log scale.

    ``fitted_energy`` (the squared norm of the fitted vector) is only
    needed for gmdl. Inadmissible inputs raise; admissible ones go through
    the same formulas as the integer sweep.
    """
    if kind not in CRITERIA:
        raise ValueError(f"unknown criterion {kind!r}; expected one of {CRITERIA}")
    if rss <= RSS_FLOOR:
        raise BreakdownError(
            f"residual sum of squares {rss:.3e} is at the interpolation "
            "floor; use a smoother base fit (smaller df target)"
        )
    if df >= n:
        raise ValueError(f"effective df {df} must stay below n = {n}")
    if kind == "aicc" and df >= n - 2:
        raise ValueError(
            f"aicc needs df < n - 2 = {n - 2}, got {df}; "
            "the fit is too close to interpolation"
        )
    if kind == "gmdl" and fitted_energy is None:
        raise ValueError("gmdl needs the fitted energy |m_k|^2")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(_criterion_array(kind, n, rss, df, fitted_energy))


def _criterion_array(kind: str, n: int, rss, df, energy) -> np.ndarray:
    """The criterion formulas, elementwise over (rss, df) arrays or scalars.

    ``energy`` is read by gmdl only. Entries outside the admissible range
    give inf or nan; callers mask them and hold ``np.errstate(divide=
    "ignore", invalid="ignore")``.
    """
    log_ms = np.log(rss / n)
    if kind == "gcv":
        return log_ms - 2.0 * np.log(1.0 - df / n)
    if kind == "aic":
        return log_ms + 2.0 * df / n
    if kind == "bic":
        return log_ms + math.log(n) * df / n
    if kind == "aicc":
        return np.where(
            df < n - 2,
            log_ms + 1.0 + 2.0 * (df + 1.0) / (n - df - 2.0),
            np.inf,
        )
    s = rss / (n - df)
    f = np.where(df > 0, energy / np.maximum(df * s, 1e-300), 1.0)
    return np.log(s) + (df / n) * np.log(np.maximum(f, 1.0))


@dataclass
class SelectionPlan:
    """How to choose the number of bias-reduction iterations.

    A ``CV_LOSSES`` criterion selects by cross-validation, with folds ``cv``.
    """

    criterion: str = "gcv"
    mode: str = "numeric"
    kmin: float = 1.0
    kmax: float = 1e5
    dfmaxi: float | None = None
    fixed_k: float | None = None
    cv: CvPlan | None = None

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA + CV_LOSSES:
            raise ValueError(
                f"criterion must be one of {CRITERIA + CV_LOSSES}, "
                f"got {self.criterion!r}"
            )
        if self.mode not in ("numeric", "exhaustive", "fixed"):
            raise ValueError(f"mode must be numeric, exhaustive or fixed: {self.mode!r}")
        if self.mode == "fixed":
            if self.fixed_k is None or self.fixed_k < 1:
                raise ValueError("fixed mode needs fixed_k >= 1")
        if not 1.0 <= self.kmin < self.kmax:
            raise ValueError(
                f"need 1 <= kmin < kmax, got kmin={self.kmin}, kmax={self.kmax}"
            )
        if self.cv is not None and self.criterion not in CV_LOSSES:
            raise ValueError(
                f"a cv plan needs a cross-validated loss {CV_LOSSES}, "
                f"got criterion {self.criterion!r}"
            )
        if self.mode == "exhaustive":
            _integer_range(self)


@dataclass
class SelectionResult:
    """Chosen iteration count plus the evaluated criterion trace."""

    k: float
    value: float
    criterion: str
    mode: str
    df: float
    rss: float
    trace_k: np.ndarray = field(repr=False)
    trace_value: np.ndarray = field(repr=False)
    trace_df: np.ndarray = field(repr=False)
    trace_rss: np.ndarray = field(repr=False)

    @property
    def k_rounded(self) -> int:
        return int(round(self.k))


def _integer_range(plan: SelectionPlan) -> tuple[int, int]:
    """The integers (ceil(kmin), floor(kmax)) an exhaustive sweep covers."""
    k_lo, k_hi = int(math.ceil(plan.kmin)), int(math.floor(plan.kmax))
    if k_lo > k_hi:
        raise ValueError(
            f"no integer k in [kmin={plan.kmin:g}, kmax={plan.kmax:g}] "
            "for the exhaustive search"
        )
    return k_lo, k_hi


def search_mode(mode: str, real_k_ok: bool) -> str:
    """The search mode to run: numeric becomes exhaustive, with a warning,
    when the eigenvalues leave [0, 1] and fractional k is undefined."""
    if mode == "numeric" and not real_k_ok:
        warnings.warn(
            "kernel eigenvalues leave [0, 1]; numeric search is undefined, "
            "switching to exhaustive integer search",
            stacklevel=3,
        )
        return "exhaustive"
    return mode


def _bisect_last_ok(predicate, lo: float, hi: float, iters: int = 100) -> float:
    """Largest x in [lo, hi] with predicate(x) true, for monotone predicates."""
    if predicate(hi):
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, abs(hi)):
            break
    return lo


def minimize_on_breaks(objective, lo: float, hi: float) -> tuple[float, float]:
    """Minimize objective(k) over [lo, hi]; return (k, value), value inf if none.

    The breakpoints lo, the ``_BREAKS`` entries inside (lo, hi) and hi are
    evaluated, then each stretch between them gets its own bounded
    ``minimize_scalar`` run (tolerance ``_K_TOL`` in k), which keeps a
    single local dip from hiding the global one. Guards are the caller's:
    :func:`search_k_numeric` caps hi at the df ceiling and RSS floor, while
    the CV search applies none and runs to ``kmax``, so a CV-selected k may
    carry more df than a criterion search would admit.
    """
    breaks = [lo]
    breaks += [b for b in _BREAKS if lo < b < hi]
    breaks.append(hi)
    best_k, best_value = lo, np.inf
    for k in breaks:
        value = objective(k)
        if value < best_value:
            best_k, best_value = k, value
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a <= _K_TOL:
            continue
        res = minimize_scalar(
            objective, bounds=(a, b), method="bounded", options={"xatol": _K_TOL}
        )
        if res.fun < best_value:
            best_k, best_value = float(res.x), float(res.fun)
    return best_k, best_value


def _pick_numeric(objective, lo, hi, name: str, empty_msg: str) -> SelectionResult:
    """Minimize objective(k) -> (value, df, rss); finite values form the trace."""
    trace: list[tuple[float, float, float, float]] = []

    def value_at(k: float) -> float:
        value, df, rss = objective(k)
        if np.isfinite(value):
            trace.append((k, value, df, rss))
        return value

    best_k, best_value = minimize_on_breaks(value_at, lo, hi)
    if not np.isfinite(best_value):
        raise BreakdownError(empty_msg)
    arr = np.asarray(sorted(trace))
    j = int(np.flatnonzero(arr[:, 0] == best_k)[0])
    return SelectionResult(
        k=best_k,
        value=best_value,
        criterion=name,
        mode="numeric",
        df=float(arr[j, 2]),
        rss=float(arr[j, 3]),
        trace_k=arr[:, 0],
        trace_value=arr[:, 1],
        trace_df=arr[:, 2],
        trace_rss=arr[:, 3],
    )


def _pick_integer(k_lo: int, value, df, rss, name: str, empty_msg: str) -> SelectionResult:
    """k = k_lo + argmin(value), ties to the smaller k; non-finite = inadmissible."""
    ok = np.isfinite(value)
    if not ok.any():
        raise BreakdownError(empty_msg)
    j = int(np.argmin(np.where(ok, value, np.inf)))
    return SelectionResult(
        k=float(k_lo + j),
        value=float(value[j]),
        criterion=name,
        mode="exhaustive",
        df=float(df[j]),
        rss=float(rss[j]),
        trace_k=np.arange(k_lo, k_lo + value.size)[ok],
        trace_value=value[ok],
        trace_df=df[ok],
        trace_rss=rss[ok],
    )


def search_k_numeric(
    spectral: SpectralForm, y: np.ndarray, plan: SelectionPlan
) -> SelectionResult:
    """Minimize the criterion over real-valued k on guarded subintervals.

    k is capped below the df ceiling and above the RSS floor, then
    :func:`minimize_on_breaks` searches [kmin, cap].
    """
    if plan.criterion not in CRITERIA:
        raise ValueError(f"numeric search needs a spectral criterion, got {plan.criterion!r}")
    kpath = KPath(spectral, y)
    n = kpath.n
    limit = df_ceiling(n, plan.dfmaxi)
    if not spectral.real_k_ok:
        raise ValueError(
            "numeric search needs eigenvalues in [0, 1]; "
            "use exhaustive integer search for this kernel"
        )
    if kpath.df(plan.kmin) > limit:
        raise BreakdownError(
            f"df({plan.kmin:g}) = {kpath.df(plan.kmin):.4g} already exceeds "
            f"the ceiling {limit:.4g}; increase dfmaxi or smooth less"
        )
    k_hi = _bisect_last_ok(lambda k: kpath.df(k) <= limit, plan.kmin, plan.kmax)
    if kpath.rss(k_hi) <= RSS_FLOOR:
        k_hi = _bisect_last_ok(
            lambda k: kpath.rss(k) > RSS_FLOOR, plan.kmin, k_hi
        )
    if kpath.rss(plan.kmin) <= RSS_FLOOR:
        raise BreakdownError(
            "the base smoother already interpolates the data "
            f"(rss(kmin) <= {RSS_FLOOR:g}); smooth less or check for "
            "duplicate responses"
        )

    def objective(k: float) -> tuple[float, float, float]:
        df = kpath.df(k)
        rss = kpath.rss(k)
        if df > limit or rss <= RSS_FLOOR or not np.isfinite(rss):
            return np.inf, df, rss
        energy = kpath.fitted_energy(k) if plan.criterion == "gmdl" else None
        return criterion_value(plan.criterion, n, rss, df, energy), df, rss

    return _pick_numeric(
        objective, plan.kmin, k_hi, plan.criterion,
        "no admissible iteration count in "
        f"[{plan.kmin:g}, {plan.kmax:g}]; increase dfmaxi or smooth less",
    )


def search_k_exhaustive(
    spectral: SpectralForm, y: np.ndarray, plan: SelectionPlan
) -> SelectionResult:
    """Sweep every integer k in [kmin, kmax], ties going to the smaller k."""
    if plan.criterion not in CRITERIA:
        raise ValueError(
            f"exhaustive search needs a spectral criterion, got {plan.criterion!r}"
        )
    k_lo, k_hi = _integer_range(plan)
    kpath = KPath(spectral, y)
    n = kpath.n
    limit = df_ceiling(n, plan.dfmaxi)
    # rows value (inf where inadmissible), df, rss of every count swept
    trace = np.empty((3, k_hi - k_lo + 1))
    swept = 0
    blocks = kpath.batch(k_lo, k_hi)
    with np.errstate(divide="ignore", invalid="ignore"), closing(blocks):
        for ks, df, rss, energy in blocks:
            value = _criterion_array(plan.criterion, n, rss, df, energy)
            value[~(np.isfinite(rss) & (df <= limit) & (rss > RSS_FLOOR) & (df < n))] = np.inf
            trace[:, swept : swept + ks.size] = value, df, rss
            swept += ks.size
            if df[-1] > limit and spectral.real_k_ok:
                break
    return _pick_integer(
        k_lo, *trace[:, :swept], plan.criterion,
        f"no admissible integer k in [{k_lo}, {k_hi}]; increase dfmaxi or smooth less",
    )
