"""Cross-validation splits and prediction-error search over k.

Two layouts are supported: classical data splitting (independent random
train/test permutations) and K-fold partitions, the latter with random,
consecutive, interleaved or time-ordered fold geometry. The smoother is
recalibrated on every training fold; candidate iteration counts are then
scored by pooled prediction loss at the held-out points. That loss is a
score of :func:`~ibrsmooth.selection.search_k`, the search driver the
criterion searches run on too, so both search real k and integer sweeps
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import KPath
from .selection import CV_LOSSES, SelectionPlan, SelectionResult, search_k
from .smoothers import _is_real, _read_xy

__all__ = ["CvPlan", "make_splits", "search_k_cv"]

_SPLIT_TYPES = ("random", "consecutive", "interleaved", "timeseries")


@dataclass(frozen=True)
class CvPlan:
    """Fold geometry and seed of a cross-validation run.

    ``kfold`` may be False (data splitting with ``npermut`` random
    train/test permutations), True (K derived from the test-set size) or an
    integer number of folds. Counts and the seed must be whole numbers (5.0
    is read as 5; 2.7, NaN and booleans are refused), the seed >= 0.
    Exactly one of ``ntest``/``ntrain`` may pin the test-set size; it
    defaults to n // 10. The loss scored on the held out points is the
    selection plan's criterion ("rmse" or "map").
    """

    kfold: bool | int = False
    ntest: int | None = None
    ntrain: int | None = None
    npermut: int = 20
    type: str = "random"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.type not in _SPLIT_TYPES:
            raise ValueError(f"split type must be one of {_SPLIT_TYPES}, got {self.type!r}")
        for name in ("kfold", "npermut", "ntest", "ntrain", "seed"):
            value = getattr(self, name)
            # None leaves a size unset; kfold True and False are not counts,
            # and no other field gives a boolean a meaning
            if (value is None and name in ("ntest", "ntrain")) or (
                name == "kfold" and isinstance(value, bool)
            ):
                continue
            if not (_is_real(value) and float(value).is_integer()):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.npermut < 1:
            raise ValueError(f"npermut must be >= 1, got {self.npermut}")
        if self.ntest is not None and self.ntrain is not None:
            raise ValueError("give ntest or ntrain, not both")
        if not isinstance(self.kfold, bool) and self.kfold < 2:
            raise ValueError(f"kfold must be >= 2 folds, got {self.kfold}")

    def _test_size(self, n: int) -> int:
        if self.ntrain is not None:
            ntest = n - self.ntrain
        elif self.ntest is not None:
            ntest = self.ntest
        else:
            ntest = n // 10
        if not 1 <= ntest < n:
            raise ValueError(f"test size {ntest} impossible for n = {n}")
        return ntest

    def folds(self, n: int) -> int:
        """Number of folds implied for K-fold style plans."""
        if self.kfold is True:
            k = n // self._test_size(n)
        else:
            k = self.kfold
        if not 2 <= k <= n:
            raise ValueError(f"{k} folds impossible for n = {n}")
        return k


def make_splits(n: int, plan: CvPlan) -> list[tuple[np.ndarray, np.ndarray]]:
    """Materialize (train, test) index pairs for a plan.

    K-fold test folds are disjoint and cover 0..n-1 (except the
    time-ordered type, which is a single end split); data splitting draws
    ``npermut`` independent test sets.
    """
    if n < 2:
        raise ValueError("need at least two rows to split")
    rng = np.random.default_rng(plan.seed)
    if plan.kfold is False:
        if plan.type != "random":
            raise ValueError(
                f"data splitting draws random test sets; the {plan.type!r} "
                "layout needs kfold"
            )
        ntest = plan._test_size(n)
        out = []
        for _ in range(plan.npermut):
            perm = rng.permutation(n)
            test = np.sort(perm[:ntest])
            train = np.sort(perm[ntest:])
            out.append((train, test))
        return out

    k = plan.folds(n)
    idx = np.arange(n)
    if plan.type == "timeseries":
        ntest = n // k
        if ntest < 1:
            raise ValueError(f"time-ordered split needs n // folds >= 1, got n={n}, folds={k}")
        return [(idx[: n - ntest], idx[n - ntest :])]
    if plan.type == "random":
        folds = np.array_split(rng.permutation(n), k)
        folds = [np.sort(f) for f in folds]
    elif plan.type == "consecutive":
        folds = np.array_split(idx, k)
    else:  # interleaved
        folds = [idx[idx % k == j] for j in range(k)]
    out = []
    for f in folds:
        if f.size == 0:
            raise ValueError(f"{k} folds leave an empty fold for n = {n}")
        mask = np.ones(n, dtype=bool)
        mask[f] = False
        out.append((idx[mask], f))
    return out


class _FoldScorer:
    """One training fold's path and the held-out points it predicts."""

    def __init__(self, smoother, y_train: np.ndarray, x_test: np.ndarray, y_test: np.ndarray):
        self.kpath = KPath(smoother.spectral(), y_train)
        # predictions are w(x)' beta_k = (W G) (factors * z)
        self.projector = smoother.evaluate_basis(x_test)
        self.y_test = y_test
        # predictions of a row of counts: (factors * z) (W G)'
        self._zp = (self.projector * self.kpath.z).T

    def batch_errors(self, ks: range | np.ndarray) -> np.ndarray:
        """One row of held-out errors per count of ks, a vector of real counts
        or a ``range`` of consecutive integers."""
        return self.kpath.batch_coef_factors(ks) @ self._zp - self.y_test

    def batch_error_slopes(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of :meth:`batch_errors` and their slopes in log k."""
        factors, slopes = self.kpath.batch_coef_factor_slopes(ks)
        return factors @ self._zp - self.y_test, slopes @ self._zp


def _pooled_loss(errors: np.ndarray, loss: str):
    """Root mean squared or mean absolute error along the last axis."""
    if loss == "rmse":
        return np.sqrt(np.mean(errors**2, axis=-1))
    return np.mean(np.abs(errors), axis=-1)


class _CvScore:
    """The k search's score of cross-validation: the pooled held-out loss of
    every fold's path. No df or RSS guard applies, so every search runs to
    ``kmax`` unless the loss itself stops being finite.

    ``batch_slopes`` adds the loss's slope in log k from the error slopes e'
    of the folds' coefficient factor slopes: mean(e e') / rmse for rmse and
    mean(sign(e) e') for map. The map loss has a kink wherever a held-out
    error changes sign, so its rows also return the errors and their slopes
    as the kinks of :func:`~ibrsmooth.selection.minimize_by_slope`."""

    bound = None

    def __init__(self, folds: list[_FoldScorer], loss: str):
        self.folds = folds
        self.name = loss
        self.real_k_ok = all(f.kpath.spectral.real_k_ok for f in folds)
        self.rows = min(f.kpath.sweep_rows for f in folds)

    def batch(self, ks: range | np.ndarray):
        return self._loss([f.batch_errors(ks) for f in self.folds])

    def batch_slopes(self, ks: np.ndarray):
        rows = zip(*(f.batch_error_slopes(ks) for f in self.folds))
        errors, slopes = (np.concatenate(r, axis=1) for r in rows)
        loss, blank, _ = self._loss([errors])
        if self.name == "rmse":
            return loss, np.mean(errors * slopes, axis=1) / loss, blank, blank, None
        return loss, np.mean(np.sign(errors) * slopes, axis=1), blank, blank, (errors, slopes)

    def _loss(self, fold_errors: list[np.ndarray]):
        """(loss, nan, nan) rows from every fold's rows of held-out errors."""
        loss = _pooled_loss(np.concatenate(fold_errors, axis=1), self.name)
        blank = np.full(loss.size, np.nan)
        return loss, blank, blank

    def refusal(self, k: float, df: float, rss: float) -> str:
        return f"the pooled {self.name} loss is not finite at k = {k:g}"


def search_k_cv(
    x: np.ndarray,
    y: np.ndarray,
    smoother_factory,
    plan: SelectionPlan,
) -> SelectionResult:
    """Choose k by held-out prediction loss.

    The loss is ``plan.criterion`` ("rmse" or "map") and the fold geometry
    ``plan.cv`` (``CvPlan()`` when None). ``smoother_factory`` rebuilds and
    recalibrates the base smoother on a training design; it is called once
    per fold. :func:`~ibrsmooth.selection.search_k` then minimizes the
    pooled loss as ``plan.mode`` asks: over real k in [kmin, kmax], without
    the criterion search's df and RSS guards, or over the integers, to
    which a numeric plan falls back (with a warning) when a fold's
    spectrum leaves [0, 1]. ``x`` and ``y`` are read as :func:`~ibrsmooth.fit`
    reads them (a 1-D x holds points of a one-column design).
    """
    if plan.criterion not in CV_LOSSES:
        raise ValueError(
            f"cross-validation needs a loss {CV_LOSSES}, got criterion {plan.criterion!r}"
        )
    cv: CvPlan = plan.cv if plan.cv is not None else CvPlan()
    design, y = _read_xy(x, y)
    folds = []
    for i, (train, test) in enumerate(make_splits(y.size, cv)):
        try:
            smoother = smoother_factory(design.x[train])
        except Exception as exc:
            raise RuntimeError(
                f"cannot calibrate the smoother on training fold {i} "
                f"(size {train.size}): {exc}"
            ) from exc
        folds.append(_FoldScorer(smoother, y[train], design.x[test], y[test]))
    return search_k(_CvScore(folds, plan.criterion), plan, exhaustive=plan.mode == "exhaustive")
