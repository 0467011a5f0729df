"""Information criteria and the one search for the number of iterations.

All criteria live on the log scale, so differences rather than ratios
matter and additive constants are kept only where the original criterion
has them. :func:`search_k` is the only search driver: it minimizes a
score of k over real k (numeric mode, the default) or sweeps integers
(exhaustive mode), and is the only place where a numeric search falls back
to the sweep because real k is undefined. The criterion score here walks
the fit's :class:`~ibrsmooth.engine.KPath` and refuses any k whose
effective degrees of freedom or residual sum of squares signal that the
iteration has effectively reached interpolation; the cross-validation score
lives in :mod:`ibrsmooth.crossval`. A score takes every set of counts through
one ``batch`` method: the numeric and bounded searches pass vectors of
counts, the integer sweep a ``range`` per block, which the path walks by its
power recurrence.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .crossval import CvPlan
    from .engine import KPath

__all__ = [
    "CRITERIA",
    "CV_LOSSES",
    "RSS_FLOOR",
    "BreakdownError",
    "SelectionPlan",
    "SelectionResult",
    "criterion_value",
    "df_ceiling",
    "search_k_exhaustive",
    "search_k_numeric",
]

CRITERIA = ("gcv", "aic", "aicc", "bic", "gmdl")
CV_LOSSES = ("rmse", "map")

# residual sums of squares at or below this are treated as interpolation
RSS_FLOOR = 1e-10
# effective df may never come within a relative 1e-10 of n
_DF_CEILING_FACTOR = 1.0 - 1e-10
# absolute tolerance on k for the bounded Brent minimizer
_K_TOL = 0.01
# the bounded Brent minimizer's constants, as scipy's minimize_scalar has them
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500
# breakpoints splitting [kmin, kmax] into minimizer subintervals
_BREAKS = (100.0, 200.0, 500.0, 1000.0, 5000.0, 1e4, 5e4, 1e5, 5e5, 1e6)
# log-spaced counts the bounded integer search evaluates before splitting
_BOUND_GRID = 64
# the bounded search drops an interval once its bound exceeds the best value
# by this, relative to max(1, |best|): room for the rounding of df, rss and
# the criterion, so no count that the full sweep would pick is dropped
_BOUND_MARGIN = 1e-12


class BreakdownError(RuntimeError):
    """Every candidate k was rejected by the interpolation guards."""


def df_ceiling(n: int, dfmaxi: float | None, criterion: str | None = None) -> float:
    """Largest admissible effective df for n points; below n - 2 for aicc."""
    cap = (n - 2 if criterion == "aicc" else n) * _DF_CEILING_FACTOR
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
    the same formulas as both searches.
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
    are meaningless; callers refuse or mask them.
    """
    log_ms = np.log(rss / n)
    if kind == "gcv":
        return log_ms - 2.0 * np.log(1.0 - df / n)
    if kind == "aic":
        return log_ms + 2.0 * df / n
    if kind == "bic":
        return log_ms + math.log(n) * df / n
    if kind == "aicc":
        return log_ms + 1.0 + 2.0 * (df + 1.0) / (n - df - 2.0)
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
            if self.fixed_k is None or not 1 <= self.fixed_k < math.inf:
                raise ValueError(f"fixed mode needs a finite fixed_k >= 1, got {self.fixed_k}")
        if not 1.0 <= self.kmin < self.kmax:
            raise ValueError(
                f"need 1 <= kmin < kmax, got kmin={self.kmin}, kmax={self.kmax}"
            )
        if not math.isfinite(self.kmax):
            raise ValueError(f"kmax must be a finite number, got {self.kmax}")
        if self.dfmaxi is not None and not self.dfmaxi > 0:
            raise ValueError(f"dfmaxi must be a positive number, got {self.dfmaxi}")
        if self.cv is not None and self.criterion not in CV_LOSSES:
            raise ValueError(
                f"a cv plan needs a cross-validated loss {CV_LOSSES}, "
                f"got criterion {self.criterion!r}"
            )
        if self.mode == "exhaustive":
            _integer_range(self)


@dataclass
class SelectionResult:
    """Chosen iteration count plus the evaluated criterion trace.

    The trace holds the admissible counts the search evaluated, in
    ascending k. An exhaustive search with a certified bound (symmetric
    spectrum in [0, 1]; gcv, aic, aicc or bic) evaluates only a few hundred
    of them and still returns the full sweep's k; every other exhaustive
    search holds every admissible count up to its stop.
    """

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


def _bounded_brent(a: float, b: float):
    """Bounded Brent minimization on [a, b] as a generator.

    It yields each k to evaluate, is sent the value there and returns the
    (k, value) it settles on. The steps are those of scipy's
    ``minimize_scalar(method="bounded", options={"xatol": _K_TOL})``
    (Brent 1973, ch. 5), with its golden ratio, its sqrt(eps) and its cap
    of ``_MAX_EVALS`` evaluations, so it evaluates the same k in the same
    order and returns the same point; the caller decides when each value
    is computed.
    """
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _K_TOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _K_TOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf, fx


def minimize_on_breaks(objective, lo: float, hi: float) -> tuple[float, float]:
    """Minimize over [lo, hi]; return (k, value), value inf if none.

    ``objective(ks)`` scores a vector of counts at once. The breakpoints
    lo, the ``_BREAKS`` entries inside (lo, hi) and hi are scored in one
    call, then each stretch between them wider than ``_K_TOL`` gets its own
    :func:`_bounded_brent` run, which keeps a single local dip from hiding
    the global one. The runs advance in lockstep: each round scores the
    next k of every live run in one call, so a search makes as many calls
    as its longest run, not the sum of them. Ties go to the earliest
    breakpoint, then to the earliest stretch. hi is the score's upper end
    in :func:`search_k`: the criterion score caps it at the df ceiling and
    RSS floor, while the CV score applies no guard and runs to ``kmax``, so
    a CV-selected k may carry more df than a criterion search would admit.
    """
    breaks = [lo]
    breaks += [b for b in _BREAKS if lo < b < hi]
    breaks.append(hi)
    values = objective(np.array(breaks))
    j = int(np.argmin(values))
    best_k, best_value = breaks[j], float(values[j])
    runs = [_bounded_brent(a, b) for a, b in zip(breaks[:-1], breaks[1:]) if b - a > _K_TOL]
    # the next k each live run asks for, and the (k, value) each ended run settled on
    asked = {run: next(run) for run in runs}
    ends = {}
    while asked:
        values = objective(np.array(list(asked.values())))
        for run, value in zip(list(asked), values.tolist()):
            try:
                asked[run] = run.send(value)
            except StopIteration as stop:
                del asked[run]
                ends[run] = stop.value
    for run in runs:
        k, value = ends[run]
        if value < best_value:
            best_k, best_value = k, value
    return best_k, best_value


def _sweep(score, k_lo: int, k_hi: int) -> np.ndarray:
    """Rows (k, value, df, rss) of every count from k_lo, in blocks of
    ``score.rows``, to k_hi or the end of the first block whose last df
    exceeds ``score.df_stop``; only the blocks swept are held."""
    pieces = []
    for start in range(k_lo, k_hi + 1, score.rows):
        ks = range(start, min(start + score.rows, k_hi + 1))
        value, df, rss = score.batch(ks)
        pieces.append(np.stack([np.arange(ks.start, ks.stop), value, df, rss]))
        if df[-1] > score.df_stop:
            break
    return np.concatenate(pieces, axis=1)


def _bounded_search(score, k_lo: int, k_hi: int) -> np.ndarray:
    """Rows (k, value, df, rss) of the counts a certified branch and bound
    evaluates, in ascending k; its minimum is the full sweep's.

    ``score.bound(rss(b), df(a))`` bounds the value of every count in
    [a, b] from below. The counts that pass the guards form a prefix
    [k_lo, cap], so integer bisection finds cap; ``_BOUND_GRID`` log-spaced
    counts in [k_lo, cap] follow, scored in one batch, then the open
    interval with the smallest bound is split at its midpoint until that
    bound exceeds the best value by ``_BOUND_MARGIN`` (relative to
    max(1, |best|), for the rounding of df, rss and the criterion, and for
    batched rows rounding apart from single ones). An
    interval whose ends have the same df and rss is not split: they pin
    every count inside to the value at its left end, up to rounding, and
    that tie goes to the left end.
    """
    seen = {}

    def evaluate(ks: list[int]) -> None:
        rows = zip(*(c.tolist() for c in score.batch(np.array(ks, dtype=float))))
        seen.update(zip(ks, rows))

    def at(k: int):
        if k not in seen:
            evaluate([k])
        return seen[k]

    def ok(k: int) -> bool:
        return bool(np.isfinite(at(k)[0]))

    def push(a: int, b: int) -> None:
        if b - a > 1 and seen[a][1:] != seen[b][1:]:
            heapq.heappush(heap, (score.bound(seen[b][2], seen[a][1]), a, b))

    heap = []
    if ok(k_lo):
        cap = k_hi
        if not ok(cap):
            lo, hi = k_lo, k_hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if ok(mid) else (lo, mid)
            cap = lo
        grid = sorted({k_lo, cap, *map(int, np.rint(np.geomspace(k_lo, cap, _BOUND_GRID)))})
        # k_lo and cap again too: rows of one batch share their rounding
        evaluate(grid)
        best = min(seen[k][0] for k in grid)
        for a, b in zip(grid[:-1], grid[1:]):
            push(a, b)
        while heap and heap[0][0] <= best + _BOUND_MARGIN * max(1.0, abs(best)):
            _, a, b = heapq.heappop(heap)
            m = (a + b) // 2
            best = min(best, at(m)[0])
            push(a, m)
            push(m, b)
    return np.array([(k, *seen[k]) for k in sorted(seen)]).T


def search_k(score, plan: SelectionPlan, exhaustive: bool) -> SelectionResult:
    """The one k search behind the criterion and cross-validation searches.

    ``score`` scores the iteration count; non-finite values mark an
    inadmissible k. It provides ``batch(ks)`` -> (value, df, rss) arrays
    over a vector of real counts or a ``range`` of consecutive integers (a
    sweep block, which :meth:`~ibrsmooth.engine.KPath.batch_stats` walks
    by its power recurrence), ``real_k_ok`` (whether fractional k is defined),
    ``upper(kmin, kmax)`` (the numeric upper end), ``rows`` (counts per
    sweep block), ``df_stop`` (the sweep ends after a block whose last df
    exceeds it), ``bound`` (None, or ``bound(rss(b), df(a))`` -> a lower
    bound of the value on the integers [a, b]), ``name`` and ``hint`` (for
    the error when no k is admissible).

    The numeric search runs :func:`minimize_on_breaks` over [kmin, upper].
    When real k is undefined it warns and sweeps integers instead, the only
    place where that fallback is decided. The exhaustive search minimizes
    over the integers in [ceil(kmin), floor(kmax)], ties going to the
    smaller k. With a ``bound`` it runs :func:`_bounded_search`, which
    returns the full sweep's k from the few counts it evaluates; otherwise
    it sweeps them all in blocks. The trace holds every admissible k
    evaluated, in ascending order.
    """
    if not exhaustive and not score.real_k_ok:
        warnings.warn(
            "kernel eigenvalues leave [0, 1]; numeric search is undefined, "
            "switching to exhaustive integer search",
            # the caller of the search_k_* entry point
            stacklevel=3,
        )
        exhaustive = True
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if exhaustive:
            k_lo, k_hi = _integer_range(plan)
            sweep = _sweep if score.bound is None else _bounded_search
            trace = sweep(score, k_lo, k_hi)
        else:
            evals = []

            def values_at(ks: np.ndarray) -> np.ndarray:
                evals.append(np.stack([ks, *score.batch(ks)]))
                return np.where(np.isfinite(evals[-1][1]), evals[-1][1], np.inf)

            kmin = float(plan.kmin)
            best_k, _ = minimize_on_breaks(values_at, kmin, score.upper(kmin, plan.kmax))
            trace = np.concatenate(evals, axis=1)
            trace = trace[:, np.argsort(trace[0], kind="stable")]
    trace = trace[:, np.isfinite(trace[1])]
    if trace.shape[1] == 0:
        raise BreakdownError(
            f"no admissible {'integer ' * exhaustive}k in "
            f"[{plan.kmin:g}, {plan.kmax:g}]{score.hint}"
        )
    k, value, df, rss = trace
    # the first minimum of the sweep is its smallest k
    j = int(np.argmin(value) if exhaustive else np.flatnonzero(k == best_k)[0])
    return SelectionResult(
        k=float(k[j]), value=float(value[j]), criterion=score.name,
        mode="exhaustive" if exhaustive else "numeric", df=float(df[j]), rss=float(rss[j]),
        trace_k=k, trace_value=value, trace_df=df, trace_rss=rss,
    )


class _CriterionScore:
    """A spectral criterion along the fit's path, with the interpolation guards.

    Every count whose df exceeds the ceiling (for aicc also n - 2) or whose
    rss is at the floor scores inf: one rule for both modes. The numeric
    search also caps k where the rule first fails, so its minimizer only
    sees finite values, and the sweep stops once df passes the ceiling on a
    spectrum in [0, 1], where df grows with k.

    On a symmetric form with every eigenvalue in [0, 1] (without the
    ``EIGEN_TOL`` slack of ``real_k_ok``: (1 - lambda)^k grows with k for
    lambda < 0), df rises and rss falls with k. gcv, aic, aicc and bic rise
    with both, so ``bound`` gives their value at (rss(b), df(a)), a lower
    bound on [a, b] that lets the exhaustive search skip counts; gmdl has
    no such bound.
    """

    hint = "; increase dfmaxi or smooth less"

    def __init__(self, kpath: KPath, plan: SelectionPlan):
        if plan.criterion not in CRITERIA:
            raise ValueError(f"the criterion search needs a spectral criterion: {plan.criterion!r}")
        self.kpath = kpath
        self.name = plan.criterion
        self.real_k_ok = kpath.spectral.real_k_ok
        self.rows = kpath.sweep_rows
        self.limit = df_ceiling(kpath.n, plan.dfmaxi, plan.criterion)
        self.df_stop = self.limit if self.real_k_ok else np.inf
        lam = kpath.lam
        monotone = kpath.spectral.symmetric and lam.min() >= 0.0 and lam.max() <= 1.0
        # a partial, not a bound method: a score that held itself would keep
        # the path (and the spectrum it shares) alive until a cyclic collection
        self.bound = (
            partial(_criterion_array, self.name, kpath.n, energy=None)
            if monotone and self.name != "gmdl" else None
        )

    def _value(self, df, rss, energy):
        value = _criterion_array(self.name, self.kpath.n, rss, df, energy)
        return np.where((df <= self.limit) & (rss > RSS_FLOOR) & np.isfinite(rss), value, np.inf)

    def batch(self, ks: range | np.ndarray):
        df, rss, energy = self.kpath.batch_stats(ks)
        return self._value(df, rss, energy), df, rss

    def upper(self, kmin: float, kmax: float) -> float:
        """kmax capped below the df ceiling and above the RSS floor."""
        kpath, limit = self.kpath, self.limit
        if kpath.df(kmin) > limit:
            raise BreakdownError(
                f"df({kmin:g}) = {kpath.df(kmin):.4g} already exceeds "
                f"the ceiling {limit:.4g}; increase dfmaxi or smooth less"
            )
        k_hi = _bisect_last_ok(lambda k: kpath.df(k) <= limit, kmin, kmax)
        k_hi = _bisect_last_ok(lambda k: kpath.rss(k) > RSS_FLOOR, kmin, k_hi)
        if kpath.rss(kmin) <= RSS_FLOOR:
            raise BreakdownError(
                "the base smoother already interpolates the data "
                f"(rss(kmin) <= {RSS_FLOOR:g}); smooth less or check for "
                "duplicate responses"
            )
        return k_hi


def search_k_numeric(kpath: KPath, plan: SelectionPlan) -> SelectionResult:
    """Minimize the criterion over real k along the fit's path ``kpath``.

    k is capped below the df ceiling and above the RSS floor, then
    :func:`minimize_on_breaks` searches [kmin, cap]. When the spectrum
    leaves [0, 1], fractional k is undefined: the search warns and sweeps
    integers as :func:`search_k_exhaustive` does.
    """
    return search_k(_CriterionScore(kpath, plan), plan, exhaustive=False)


def search_k_exhaustive(kpath: KPath, plan: SelectionPlan) -> SelectionResult:
    """Minimize the criterion over every integer k in [kmin, kmax] along the
    fit's path ``kpath``, ties going to the smaller k; see :func:`search_k`."""
    return search_k(_CriterionScore(kpath, plan), plan, exhaustive=True)
