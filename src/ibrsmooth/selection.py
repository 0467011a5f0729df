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
lives in :mod:`ibrsmooth.crossval`. A score takes counts through one
``batch`` method, which the multisection for the admissible range and the
bounded search pass vectors of counts and the integer sweep a ``range`` per
block (the path walks it by its power recurrence), and real counts through
``batch_slopes``, which also returns the slope of the value in log k from
the same power rows. The numeric
search scores a log grid of counts in one call and then solves slope = 0
only in the grid cells where the slope changes sign, where a kink (the map
loss has one wherever a held-out error changes sign) may hide a minimum, or
where a cubic Hermite through the cell's ends dips below both. It runs
breadth-first, in rounds: each round scores the counts of every live cell
in one call and splits each cell at its new points into the next round's
cells. Its one tolerance in k, ``_K_TOL``, is relative to k, so a search
to kmax 1e15 takes about as many rounds as one to 1e5.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .smoothers import _is_real

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
# the numeric search stops once a bracket [kl, kr] of a slope sign change is
# at most twice this wide relative to kr: 0.01 at k = 1e5, and far above the
# float spacing of k at every k
_K_TOL = 1e-7
# the numeric search grid has at least this many cells per decade of k
_GRID_PER_DECADE = 4
# log-spaced counts a round of the admissible range's multisection scores, and
# that the bounded integer search evaluates before splitting
_BOUND_GRID = 64
# the bounded search drops an interval once its bound exceeds the best value
# by this, relative to max(1, |best|): room for the rounding of df, rss and
# the criterion, so no count that the full sweep would pick is dropped. The
# numeric search takes the same room: it probes no dip and refines no
# bracket whose promised gain is below it, which rounding alone could fake
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


def _criterion_slope(kind: str, n: int, stats, slopes) -> np.ndarray:
    """The slopes in t = log k of :func:`_criterion_array`, elementwise.

    ``stats`` is (df, rss, energy) and ``slopes`` their slopes in log k. gmdl's
    (df / n) log max(F, 1) term contributes where F > 1 only; its kink at
    F = 1 takes slope 0.
    """
    df, rss, energy = stats
    ddf, drss, denergy = slopes
    dlog_rss = drss / rss
    if kind == "gcv":
        return dlog_rss + 2.0 * ddf / (n - df)
    if kind == "aic":
        return dlog_rss + 2.0 * ddf / n
    if kind == "bic":
        return dlog_rss + math.log(n) * ddf / n
    if kind == "aicc":
        return dlog_rss + 2.0 * (n - 1.0) * ddf / (n - df - 2.0) ** 2
    s = rss / (n - df)
    dlog_s = dlog_rss + ddf / (n - df)
    f = np.where(df > 0, energy / np.maximum(df * s, 1e-300), 1.0)
    dlog_f = denergy / energy - ddf / df - dlog_s
    return dlog_s + np.where(f > 1.0, (ddf / n) * np.log(np.maximum(f, 1.0)) + (df / n) * dlog_f, 0.0)


@dataclass
class SelectionPlan:
    """How to choose the number of bias-reduction iterations.

    A ``CV_LOSSES`` criterion selects by cross-validation, with folds ``cv``.
    ``kmin``, ``kmax``, ``dfmaxi`` and ``fixed_k`` must be real numbers
    (a boolean is refused); the last two may be None.
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
        for name in ("kmin", "kmax", "dfmaxi", "fixed_k"):
            value = getattr(self, name)
            if not (_is_real(value) or (value is None and name in ("dfmaxi", "fixed_k"))):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.mode == "fixed":
            if self.fixed_k is None or not 1 <= self.fixed_k < math.inf:
                raise ValueError(f"fixed mode needs a finite fixed_k >= 1, got {self.fixed_k}")
        elif self.fixed_k is not None:
            raise ValueError(f"fixed_k = {self.fixed_k} is read only with mode='fixed', got mode {self.mode!r}")
        if not 1.0 <= self.kmin < self.kmax:
            raise ValueError(
                f"need 1 <= kmin < kmax, got kmin={self.kmin}, kmax={self.kmax}"
            )
        if not math.isfinite(self.kmax):
            raise ValueError(f"kmax must be a finite number, got {self.kmax}")
        if self.dfmaxi is not None and not self.dfmaxi > 0:
            raise ValueError(f"dfmaxi must be a positive number, got {self.dfmaxi}")
        if self.cv is not None and self.mode == "fixed":
            raise ValueError(f"cv = {self.cv} is read only with mode='numeric' or 'exhaustive', got mode 'fixed'")
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
    of them, in batched rounds, and still returns the full sweep's k; every
    other exhaustive search holds every admissible count up to its stop.
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


def _search_grid(lo: float, hi: float) -> np.ndarray:
    """Counts from lo to hi, both exact, split into log-equal cells, at least
    ``_GRID_PER_DECADE`` per decade; lo alone if hi is not above it."""
    if not hi > lo:
        return np.array([lo])
    cells = max(1, math.ceil(_GRID_PER_DECADE * math.log10(hi / lo)))
    return np.array([lo, *(lo * (hi / lo) ** (i / cells) for i in range(1, cells)), hi])


def _hermite(a, b):
    """The cubic Hermite through the points a and b, each (k, value, slope in
    t = log k): (ta, h, c, u) with p(u) = a's value + c[0] u + c[1] u^2 +
    c[2] u^3 on u = (t - ta) / h in [0, 1], and u the place of its interior
    minimum (the root of p' where p'' = 2 sqrt(disc) > 0), or None if it has
    none inside."""
    ta, tb = math.log(a[0]), math.log(b[0])
    h = tb - ta
    c1 = h * a[2]
    c2 = 3.0 * (b[1] - a[1]) - h * (2.0 * a[2] + b[2])
    c3 = 2.0 * (a[1] - b[1]) + h * (a[2] + b[2])
    disc = c2 * c2 - 3.0 * c3 * c1
    if not disc > 0.0:
        return ta, h, (c1, c2, c3), None
    # in the form without cancellation
    den = c2 + math.sqrt(disc)
    u = -c1 / den if den != 0.0 else math.nan
    return ta, h, (c1, c2, c3), u if 0.0 < u < 1.0 else None


def _hermite_dip(a, b) -> list[float]:
    """Where the cubic Hermite through the points a and b has its interior
    minimum, if that lies below both ends by more than ``_BOUND_MARGIN``
    (relative to max(1, |end|)), and where its slope is steepest between
    that minimum and the maximum beside it (its inflection), if inside: a
    pair of counts that brackets the minimum when the cubic is right.
    Otherwise no count."""
    ta, h, (c1, c2, c3), u = _hermite(a, b)
    low = min(a[1], b[1])
    if u is None or a[1] + u * (c1 + u * (c2 + u * c3)) >= low - _BOUND_MARGIN * max(1.0, abs(low)):
        return []
    turn = -c2 / (3.0 * c3) if c3 != 0.0 else math.nan
    return [math.exp(ta + v * h) for v in (u, turn) if 0.0 < v < 1.0]


def _close(lo, hi, halved: bool) -> list[float]:
    """The counts a round scores inside a bracket of a local minimum: the
    points lo and hi, each (k, value, slope, kinks), at counts kl < kr,
    have slopes below and above 0, and ``halved`` says whether the round
    that made the bracket halved its parent in t = log k (a fresh bracket
    counts as halved).

    A round scores the minimum of the cubic Hermite through the ends
    (:func:`_hermite`), for a smooth minimum, the count where the
    tangents at the ends cross and the bracket's :func:`_kink_probes`, for
    a kink (the map loss has one wherever a held-out error changes sign),
    and the bracket's midpoint in t after a round that did not halve it.
    While the bracket is wider than 2 ``_K_TOL`` kr, no count comes within
    ``_K_TOL`` kr of its ends, so a minimum that one end has all but
    reached gets a count on its other side, as in Brent's zeroin (1973,
    ch. 4). :func:`minimize_by_slope` then goes on with the first pair of
    neighbouring points whose slope turns from negative to positive.

    Where the score is convex on the bracket, the larger tangent bounds it
    from below, least where the tangents cross. No count is scored once the
    bracket is at most 2 ``_K_TOL`` kr wide and the better end stands within
    ``_BOUND_MARGIN`` (relative to max(1, |end|)) of that bound, at a zero
    or non-finite slope, or once no count lies strictly inside the bracket.
    """
    (kl, vl, gl, _), (kr, vr, gr, _) = lo, hi
    tl, tr = math.log(kl), math.log(kr)
    tx = min(max((vr - vl + gl * tl - gr * tr) / (gl - gr), tl), tr)
    floor = max(vl + gl * (tx - tl), vr + gr * (tx - tr))
    best = min(vl, vr)
    wide = kr - kl > 2.0 * _K_TOL * kr
    if not wide and best - floor <= _BOUND_MARGIN * max(1.0, abs(best)):
        return []
    trials = [math.exp(tx)]
    if (u := _hermite(lo, hi)[3]) is not None:
        trials.append(math.exp(tl + u * (tr - tl)))
    if not halved:
        trials.append(math.exp(0.5 * (tl + tr)))
    if wide:
        trials = [min(max(k, kl + _K_TOL * kr), kr - _K_TOL * kr) for k in trials]
    return sorted({k for k in trials + _kink_probes(lo, hi) if kl < k < kr})


def _kink_probes(a, b) -> list[float]:
    """Counts inside the cell [a, b] where the value may have a kink that the
    slopes at its ends do not show.

    A point's ``kinks`` is None or a pair (e, e') of m smooth pieces and their
    slopes in t = log k, where the value is a mean of |e| (the held-out
    errors of the map loss): its slope jumps up by 2 |e'| / m where a piece
    crosses 0. Those jumps can turn a value falling from an end into a
    rising one only if together they exceed that end's slope, and then,
    from each end whose slope falls into the cell, each piece that changes
    sign across it is linearised, e + e' dt = 0, and scored at that zero
    (at the secant zero of e if the tangent's leaves the cell), unless the
    gain the end's slope promises over dt is below ``_BOUND_MARGIN``
    (relative to max(1, |end|)). Newton's steps from an end that keeps
    falling pin each kink, and a pair of points around a kink minimum
    brackets it for :func:`_close`.
    """
    if a[3] is None or b[3] is None:
        return []
    (ea, da), (eb, db) = a[3], b[3]
    turns = ea * eb < 0.0
    ea, da, eb, db = ea[turns], da[turns], eb[turns], db[turns]
    jumps = np.sum(np.abs(da) + np.abs(db)) / turns.size
    ta, tb = math.log(a[0]), math.log(b[0])
    secant = ta + (tb - ta) * ea / (ea - eb)
    zeros = []
    for end, e, de, fall in ((a, ea, da, -a[2]), (b, eb, db, b[2])):
        if not 0.0 < fall < jumps:
            continue
        t0 = math.log(end[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t0 - e / de
        t = np.where((t > ta) & (t < tb), t, secant)
        zeros += t[fall * np.abs(t - t0) > _BOUND_MARGIN * max(1.0, abs(end[1]))].tolist()
    return sorted({k for k in map(math.exp, zeros) if a[0] < k < b[0]})


def _is_bracket(a, b) -> bool:
    """Whether the points a and b score finite values and slopes that turn
    from negative to positive between them."""
    return a[2] < 0.0 < b[2] and all(map(math.isfinite, (a[1], a[2], b[1], b[2])))


def _cell_counts(a, b, halved: bool) -> list[float]:
    """The counts a live cell [a, b] scores in the next round, none once it
    is done.

    A bracket (:func:`_is_bracket`) takes a round of :func:`_close`. Any
    other cell is scored where a kink may hide a minimum
    (:func:`_kink_probes`) or, if it has none and is wider in k than 2
    ``_K_TOL`` times b's count, where its cubic Hermite dips below both ends
    (:func:`_hermite_dip`), a smooth minimum the slopes at its ends do not
    show. A cell with one end that scores no finite value or slope (past a
    guard's cap) is halved in log k while it is that wide and its finite
    end falls towards the other, to reach the edge of the finite stretch.
    """
    if _is_bracket(a, b):
        return _close(a, b, halved)
    finite_a, finite_b = (all(map(math.isfinite, p[1:3])) for p in (a, b))
    wide = b[0] - a[0] > 2.0 * _K_TOL * b[0]
    if finite_a != finite_b:
        falls = a[2] < 0.0 if finite_a else b[2] > 0.0
        return [math.sqrt(a[0] * b[0])] if wide and falls else []
    if not finite_a:
        return []
    return _kink_probes(a, b) or (_hermite_dip(a, b) if wide else [])


def _split(a, b, new: list[tuple]) -> list[tuple]:
    """The live cells (left point, right point, halved) that the cell [a, b]
    leaves once the points ``new`` inside it are scored: one per piece
    between neighbouring points. A bracket goes on as its first piece whose
    slope turns from negative to positive, halved when that piece spans at
    most half of [a, b] in t = log k; every other piece starts fresh."""
    ends = [a, *sorted(new, key=lambda p: p[0]), b]
    cells = [(p, q, True) for p, q in zip(ends[:-1], ends[1:])]
    if _is_bracket(a, b):
        span = math.log(b[0]) - math.log(a[0])
        for i, (p, q, _) in enumerate(cells):
            if p[2] < 0.0 < q[2]:
                cells[i] = (p, q, math.log(q[0] / p[0]) <= 0.5 * span)
                break
    return cells


def _points(objective, ks: np.ndarray) -> list[tuple]:
    """The points (k, value, slope, kinks) of the counts ks, scored in one
    call of an objective that returns (values, slopes, kinks)."""
    values, slopes, kinks = objective(ks)
    per_count = [None] * ks.size if kinks is None else zip(*kinks)
    return list(zip(ks.tolist(), values.tolist(), slopes.tolist(), per_count))


def minimize_by_slope(objective, lo: float, hi: float) -> tuple[float, float]:
    """Minimize over [lo, hi]; return (k, value), value inf if none.

    ``objective(ks)`` scores a vector of counts at once and returns their
    values (inf where inadmissible), their slopes in t = log k and their
    kinks: None, or a pair of arrays (e, e') with one row per count, smooth
    pieces whose sign changes put kinks in the value and their slopes
    (:func:`_kink_probes`). One call scores the grid of
    :func:`_search_grid`, and each cell between neighbouring grid counts is
    a live cell. Then each round asks every live cell for its counts
    (:func:`_cell_counts`), which it has only where the slope changes sign
    from negative to positive, where a kink may hide a minimum or where a
    cubic Hermite through the cell's ends hints at a hidden one, scores
    them all in one call and splits each cell at its new points
    (:func:`_split`); the pieces are the next round's live cells, so a
    search that closed on one local minimum still leaves the others to be
    found. A search makes 1 call plus one per round of its deepest chain
    of rounds, and one call where the score is monotone between grid
    counts. Every count scored is a candidate; among counts whose values
    tie exactly, the flattest slope wins (a non-finite slope last), then
    the smallest k.
    In :func:`search_k`, [lo, hi] is the admissible range of
    :func:`_admissible_range`: the criterion score's guards cap hi at the
    df ceiling and RSS floor, while the CV score applies no guard and runs
    to ``kmax``, so a CV-selected k may carry more df than a criterion
    search would admit.
    """
    points = _points(objective, _search_grid(lo, hi))
    candidates = list(points)
    cells = [(a, b, True) for a, b in zip(points[:-1], points[1:])]
    while asked := [(a, b, ks) for a, b, halved in cells if (ks := _cell_counts(a, b, halved))]:
        new = _points(objective, np.array([k for *_, ks in asked for k in ks]))
        candidates += new
        rows = iter(new)
        cells = [cell for a, b, ks in asked for cell in _split(a, b, [next(rows) for _ in ks])]
    k, value, *_ = min(
        candidates, key=lambda p: (p[1], abs(p[2]) if math.isfinite(p[2]) else math.inf, p[0])
    )
    return k, value


def _evaluate(score, seen: dict, ks: list) -> None:
    """Score the counts ks by ``score.batch`` in chunks of ``score.rows`` and
    put their rows (value, df, rss) into ``seen``."""
    for start in range(0, len(ks), score.rows):
        chunk = ks[start : start + score.rows]
        rows = zip(*(c.tolist() for c in score.batch(np.array(chunk, dtype=float))))
        seen.update(zip(chunk, rows))


def _admissible_range(score, lo, hi, exhaustive: bool):
    """(cap, seen): the end of the prefix [lo, cap] of counts in [lo, hi]
    that score a finite value, and the rows {k: (value, df, rss)} scored to
    find it.

    The prefix is found by multisection: lo and hi are scored first, then
    each round scores up to ``_BOUND_GRID`` log-spaced counts between the
    last finite count and the first count past it, in one batch of chunks
    of ``score.rows``. Integer counts (``exhaustive``) stop when the two are
    neighbours, real ones once they are within 1e-9 relative of each other.
    The rule is monotone in k on a spectrum in [0, 1], where df grows with
    k. A lo that scores no finite value is its own cap.
    """
    seen = {}

    def ok(k) -> bool:
        return math.isfinite(seen[k][0])

    _evaluate(score, seen, sorted({lo, hi}))
    while ok(lo) and not ok(hi) and hi - lo > (1 if exhaustive else 1e-9 * max(1.0, hi)):
        grid = np.geomspace(lo, hi, _BOUND_GRID + 2)
        # the integer midpoint too: near 2^53 geomspace's rounding can miss every integer inside
        probes = {(lo + hi) // 2, *map(int, np.rint(grid))} if exhaustive else set(grid.tolist())
        probes = sorted(k for k in probes if lo < k < hi)
        _evaluate(score, seen, probes)
        lo = max(k for k in [lo, *probes] if ok(k))
        hi = min(k for k in [*probes, hi] if k > lo)
    return (hi if ok(hi) else lo), seen


def _sweep(score, k_lo: int, k_hi: int) -> np.ndarray:
    """Rows (k, value, df, rss) of every count from k_lo to k_hi, scored in
    blocks of ``score.rows``."""
    pieces = []
    for start in range(k_lo, k_hi + 1, score.rows):
        ks = range(start, min(start + score.rows, k_hi + 1))
        pieces.append(np.stack([np.arange(ks.start, ks.stop), *score.batch(ks)]))
    return np.concatenate(pieces, axis=1)


def _bounded_search(score, k_lo: int, cap: int, seen: dict) -> None:
    """Add to ``seen`` the rows {k: (value, df, rss)} that a certified branch
    and bound evaluates on the admissible integers [k_lo, cap]; the least
    value among them is the full sweep's.

    ``score.bound(rss(b), df(a))`` bounds the value of every count in
    [a, b] from below, elementwise over arrays of ends. ``_BOUND_GRID``
    log-spaced counts in [k_lo, cap] come first. Each later round drops
    every interval whose bound exceeds the best value by ``_BOUND_MARGIN``
    (relative to max(1, |best|), for the rounding of df, rss and the
    criterion, and for rows of one batch rounding apart from another's)
    and scores the midpoints of the others. Every round is one batch, in
    chunks of ``score.rows`` counts. An interval whose ends have the same
    df and rss is not split: they pin every count inside to the value at
    its left end, up to rounding, and that tie goes to the left end.
    """

    def splits(pairs) -> list[tuple[int, int]]:
        return [(a, b) for a, b in pairs if b - a > 1 and seen[a][1:] != seen[b][1:]]

    grid = sorted({k_lo, cap, *map(int, np.rint(np.geomspace(k_lo, cap, _BOUND_GRID)))})
    # k_lo and cap again too: rows of one batch share their rounding
    _evaluate(score, seen, grid)
    best = min(seen[k][0] for k in grid)
    live = splits(zip(grid[:-1], grid[1:]))
    while live:
        df_a, rss_b = (np.array([seen[k][i] for k in ks]) for i, ks in zip((1, 2), zip(*live)))
        margin = best + _BOUND_MARGIN * max(1.0, abs(best))
        live = [pair for pair, low in zip(live, score.bound(rss_b, df_a)) if low <= margin]
        mids = [(a + b) // 2 for a, b in live]
        _evaluate(score, seen, mids)
        best = min([best, *(seen[m][0] for m in mids)])
        live = splits(p for (a, b), m in zip(live, mids) for p in ((a, m), (m, b)))


def search_k(score, plan: SelectionPlan, exhaustive: bool) -> SelectionResult:
    """The one k search behind the criterion and cross-validation searches.

    ``score`` scores the iteration count; non-finite values mark an
    inadmissible k. It provides ``batch(ks)`` -> (value, df, rss) arrays
    over a vector of real counts or a ``range`` of consecutive integers (a
    sweep block, which :meth:`~ibrsmooth.engine.KPath.batch_stats` walks
    by its power recurrence), ``batch_slopes(ks)`` -> (value, slope, df,
    rss, kinks) over a vector of real counts, the slope taken in t = log k
    and kinks None or the pieces whose sign changes put kinks in the value
    (:func:`minimize_by_slope`), ``real_k_ok`` (whether fractional k is
    defined), ``rows`` (counts per batch of the integer searches),
    ``bound`` (None, or ``bound(rss(b), df(a))`` -> a lower bound of the
    value on the integers [a, b]), ``name`` and ``refusal(k, df, rss)``
    (why a count scores no finite value).

    When real k is undefined the numeric search warns and sweeps integers
    instead, the only place where that fallback is decided. On a spectrum
    in [0, 1] every search first finds the admissible prefix [kmin, cap]
    of its counts (:func:`_admissible_range`); elsewhere the range stays
    [kmin, kmax]. The numeric search then runs :func:`minimize_by_slope`
    over it on ``batch_slopes``. The exhaustive search minimizes over its
    integers, ties going to the smaller k: with a ``bound`` by
    :func:`_bounded_search`, which returns the full sweep's k from the few
    counts it evaluates, otherwise by sweeping them all in blocks. The
    trace holds every admissible k evaluated, the range's included, in
    ascending order and with the later row of a count scored twice.
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
        lo, hi = _integer_range(plan) if exhaustive else (float(plan.kmin), float(plan.kmax))
        seen = {}
        if score.real_k_ok:
            hi, seen = _admissible_range(score, lo, hi, exhaustive)
        pieces = []
        if exhaustive and score.bound is not None:
            _bounded_search(score, lo, hi, seen)
        elif exhaustive:
            pieces.append(_sweep(score, lo, hi))
        else:

            def scored(ks: np.ndarray):
                value, slope, df, rss, kinks = score.batch_slopes(ks)
                pieces.append(np.stack([ks, value, df, rss]))
                finite = np.isfinite(value)
                return np.where(finite, value, np.inf), np.where(finite, slope, np.nan), kinks

            best_k, _ = minimize_by_slope(scored, lo, hi)
        ranged = np.array([(k, *row) for k, row in seen.items()]).reshape(-1, 4).T
        trace = np.concatenate([ranged, *pieces], axis=1)
    # in ascending k, with the later row of a count scored twice
    trace = trace[:, np.argsort(trace[0], kind="stable")]
    trace = trace[:, np.append(trace[0, 1:] != trace[0, :-1], True)]
    admissible = trace[:, np.isfinite(trace[1])]
    if admissible.shape[1] == 0:
        # the first row is kmin's
        raise BreakdownError(
            f"no admissible k in [{plan.kmin:g}, {plan.kmax:g}]: {score.refusal(*trace[[0, 2, 3], 0])}"
        )
    k, value, df, rss = admissible
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
    rss is at the floor scores inf: one rule for both modes, which
    :func:`search_k` turns into the range of counts it searches.

    On a symmetric form with every eigenvalue in [0, 1] (without the
    ``EIGEN_TOL`` slack of ``real_k_ok``: (1 - lambda)^k grows with k for
    lambda < 0), df rises and rss falls with k. gcv, aic, aicc and bic rise
    with both, so ``bound`` gives their value at (rss(b), df(a)), a lower
    bound on [a, b] that lets the exhaustive search skip counts; gmdl has
    no such bound.
    """

    def __init__(self, kpath: KPath, plan: SelectionPlan):
        if plan.criterion not in CRITERIA:
            raise ValueError(f"the criterion search needs a spectral criterion: {plan.criterion!r}")
        self.kpath = kpath
        self.name = plan.criterion
        self.real_k_ok = kpath.spectral.real_k_ok
        self.rows = kpath.sweep_rows
        self.limit = df_ceiling(kpath.n, plan.dfmaxi, plan.criterion)
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

    def batch_slopes(self, ks: np.ndarray):
        stats, slopes = self.kpath.batch_stat_slopes(ks)
        df, rss, energy = stats
        slope = _criterion_slope(self.name, self.kpath.n, stats, slopes)
        return self._value(df, rss, energy), slope, df, rss, None

    def refusal(self, k: float, df: float, rss: float) -> str:
        """The guard that count k fails, with its numbers."""
        if df > self.limit:
            return f"df({k:g}) = {df:.4g} exceeds the ceiling {self.limit:.4g}; increase dfmaxi or smooth less"
        return (
            f"rss({k:g}) = {rss:.3e} is at the interpolation floor {RSS_FLOOR:g}; "
            "smooth less or check for duplicate responses"
        )


def search_k_numeric(kpath: KPath, plan: SelectionPlan) -> SelectionResult:
    """Minimize the criterion over real k along the fit's path ``kpath``.

    k is capped below the df ceiling and above the RSS floor, then
    :func:`minimize_by_slope` searches [kmin, cap]. When the spectrum
    leaves [0, 1], fractional k is undefined: the search warns and sweeps
    integers as :func:`search_k_exhaustive` does.
    """
    return search_k(_CriterionScore(kpath, plan), plan, exhaustive=False)


def search_k_exhaustive(kpath: KPath, plan: SelectionPlan) -> SelectionResult:
    """Minimize the criterion over every integer k in [kmin, kmax] along the
    fit's path ``kpath``, ties going to the smaller k; see :func:`search_k`."""
    return search_k(_CriterionScore(kpath, plan), plan, exhaustive=True)
