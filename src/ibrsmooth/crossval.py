"""Cross-validation splits and prediction-error search over k.

Two layouts are supported: classical data splitting (independent random
train/test permutations) and K-fold partitions, the latter with random,
consecutive, interleaved or time-ordered fold geometry. The smoother is
recalibrated on every training fold; candidate iteration counts are then
scored by pooled prediction loss at the held-out points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import KPath, _coef_factors, _power_blocks
from .selection import CV_LOSSES, SelectionPlan, SelectionResult
from .selection import _integer_range, _pick_integer, _pick_numeric, search_mode

__all__ = ["CvPlan", "make_splits", "search_k_cv"]

_SPLIT_TYPES = ("random", "consecutive", "interleaved", "timeseries")


@dataclass(frozen=True)
class CvPlan:
    """Fold geometry and seed of a cross-validation run.

    ``kfold`` may be False (data splitting with ``npermut`` random
    train/test permutations), True (K derived from the test-set size) or an
    integer number of folds. Exactly one of ``ntest``/``ntrain`` may pin
    the test-set size; it defaults to n // 10. The loss scored on the held
    out points is the selection plan's criterion ("rmse" or "map").
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
        if self.npermut < 1:
            raise ValueError(f"npermut must be >= 1, got {self.npermut}")
        if self.ntest is not None and self.ntrain is not None:
            raise ValueError("give ntest or ntrain, not both")
        if self.kfold is not False and self.kfold is not True:
            if int(self.kfold) < 2:
                raise ValueError(f"kfold must be >= 2 folds, got {self.kfold}")

    def _test_size(self, n: int) -> int:
        if self.ntrain is not None:
            ntest = n - int(self.ntrain)
        elif self.ntest is not None:
            ntest = int(self.ntest)
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
            k = int(self.kfold)
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
    """Per-fold pieces turning an iteration count into test predictions."""

    def __init__(self, smoother, y_train: np.ndarray, x_test: np.ndarray, y_test: np.ndarray):
        spectral = smoother.spectral()
        self.kpath = KPath(spectral, y_train)
        # predictions are w(x)' beta_k = (W G) (factors * z)
        self.projector = smoother.evaluate(x_test, self.kpath.g)
        self.y_test = y_test

    def predict(self, k: float) -> np.ndarray:
        return self.projector @ (self.kpath.coef_factors(k) * self.kpath.z)

    def errors(self, k: float) -> np.ndarray:
        return self.predict(k) - self.y_test


def _pooled_loss(errors: np.ndarray, loss: str) -> float:
    if loss == "rmse":
        return float(np.sqrt(np.mean(errors**2)))
    return float(np.mean(np.abs(errors)))


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
    per fold. Numeric mode minimizes the pooled loss curve over real k in
    [kmin, kmax] with :func:`~ibrsmooth.selection.minimize_on_breaks`,
    without the criterion search's df and RSS guards; exhaustive mode
    sweeps integers.
    """
    if plan.criterion not in CV_LOSSES:
        raise ValueError(
            f"cross-validation needs a loss {CV_LOSSES}, got criterion {plan.criterion!r}"
        )
    cv: CvPlan = plan.cv if plan.cv is not None else CvPlan()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    splits = make_splits(n, cv)
    scorers = []
    for i, (train, test) in enumerate(splits):
        try:
            smoother = smoother_factory(x[train])
        except Exception as exc:
            raise RuntimeError(
                f"cannot calibrate the smoother on training fold {i} "
                f"(size {train.size}): {exc}"
            ) from exc
        scorers.append(_FoldScorer(smoother, y[train], x[test], y[test]))

    mode = search_mode(plan.mode, all(s.kpath.spectral.real_k_ok for s in scorers))
    if mode == "exhaustive":
        return _cv_exhaustive(scorers, plan)

    def objective(k: float) -> tuple[float, float, float]:
        errors = np.concatenate([s.errors(k) for s in scorers])
        if not np.all(np.isfinite(errors)):
            return np.inf, np.nan, np.nan
        return _pooled_loss(errors, plan.criterion), np.nan, np.nan

    return _pick_numeric(
        objective, float(plan.kmin), float(plan.kmax), plan.criterion,
        "prediction loss is not finite anywhere in the k range",
    )


def _cv_exhaustive(scorers, plan: SelectionPlan) -> SelectionResult:
    k_lo, k_hi = _integer_range(plan)
    acc = np.zeros(k_hi - k_lo + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in scorers:
            kpath = s.kpath
            # predictions of a block of counts: (factors * z) (W G)'
            zp = (s.projector * kpath.z).T
            for ks, p in _power_blocks(kpath.mu, k_lo, k_hi):
                factors = _coef_factors(kpath.lam, ks[:, None].astype(float), p)
                err = factors @ zp - s.y_test
                if plan.criterion == "rmse":
                    acc[ks - k_lo] += np.einsum("ij,ij->i", err, err)
                else:
                    acc[ks - k_lo] += np.abs(err).sum(axis=1)
    n_test_total = sum(s.y_test.size for s in scorers)
    values = np.sqrt(acc / n_test_total) if plan.criterion == "rmse" else acc / n_test_total
    blank = np.full(values.size, np.nan)
    return _pick_integer(
        k_lo, values, blank, blank, plan.criterion,
        "prediction loss is not finite at any integer k",
    )
