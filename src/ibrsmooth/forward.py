"""Greedy forward selection of covariates under the bias-reduction fit.

Each stage tries every unselected covariate next to the current set, fits
the full pipeline (calibration, k chosen by the plan's criterion) and
scores the fit with ``varcrit`` at the chosen k. The stage keeps the best
candidate; the walk stops as soon as even the best candidate scores
strictly worse than the best score seen so far, so a candidate that ties
it is still added.

A per-column kernel bandwidth depends on its column alone, so where the
candidates' own calibration would repeat it, each column is calibrated
once per walk, on first use, and every candidate fit is handed the
bandwidths of its columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fitting
from .fitting import SmootherConfig, fit
from .selection import CRITERIA, CV_LOSSES, SelectionPlan, criterion_value
from .smoothers import DesignMatrix, _read_xy

__all__ = ["ForwardResult", "ForwardStageError", "forward_select"]


class ForwardStageError(RuntimeError):
    """Every candidate fit of one stage failed."""


@dataclass
class ForwardResult:
    """Score matrix and selection order of a forward walk.

    ``scores[s, j]`` is the varcrit value of the stage-s fit that adds
    covariate j (inf where the candidate failed or was already selected);
    rows stop at the last stage that improved. ``order`` holds 0-based
    column indices in selection order.
    """

    scores: np.ndarray
    order: list[int]
    names: list[str]
    best_values: list[float]
    varcrit: str

    @property
    def selected_names(self) -> list[str]:
        return [self.names[j] for j in self.order]


def forward_select(
    x,
    y: np.ndarray,
    smoother: SmootherConfig | None = None,
    plan: SelectionPlan | None = None,
    varcrit: str | None = None,
) -> ForwardResult:
    """Run the forward walk over the columns of x.

    ``varcrit`` defaults to the plan's criterion when that is a spectral
    criterion, else to gcv. x and y are read as :func:`~ibrsmooth.fit`
    reads them. A failed candidate fit scores inf with a warning; a stage
    with no finite score at all aborts the walk.
    """
    design, y = _read_xy(x, y)
    smoother = smoother if smoother is not None else SmootherConfig()
    plan = plan if plan is not None else SelectionPlan()
    if varcrit is None:
        varcrit = plan.criterion if plan.criterion in CRITERIA else "gcv"
    if varcrit not in CRITERIA:
        raise ValueError(f"varcrit must be one of {CRITERIA}, got {varcrit!r}")

    d = design.d
    bandwidth = _column_bandwidths(design, smoother, plan)
    selected: list[int] = []
    best_values: list[float] = []
    rows: list[np.ndarray] = []
    s_min = np.inf
    for _stage in range(d):
        row = np.full(d, np.inf)
        for j in range(d):
            if j in selected:
                continue
            cols = selected + [j]
            sub = DesignMatrix(design.x[:, cols], [design.names[c] for c in cols])
            try:
                config = smoother
                if bandwidth is not None:
                    config = replace(smoother, bandwidths=tuple(map(bandwidth, cols)))
                candidate = fit(sub, y, smoother=config, plan=plan)
                row[j] = criterion_value(
                    varcrit, candidate.n, candidate.rss, candidate.final_df, candidate.fitted_energy
                )
            except Exception as exc:  # noqa: BLE001 - scored as inf by design
                warnings.warn(
                    f"candidate fit with columns {[design.names[c] for c in cols]} "
                    f"failed: {exc}",
                    stacklevel=2,
                )
        if not np.isfinite(row).any():
            if not selected:
                raise ForwardStageError(
                    "every single-covariate fit failed; check the data"
                )
            break
        j_best = int(np.argmin(row))
        if row[j_best] > s_min:
            # every candidate is worse than the incumbent best (a tie goes
            # on): stop before this stage
            break
        rows.append(row)
        selected.append(j_best)
        best_values.append(float(row[j_best]))
        s_min = float(row[j_best])

    scores = np.vstack(rows) if rows else np.full((0, d), np.inf)
    return ForwardResult(
        scores=scores,
        order=selected,
        names=list(design.names),
        best_values=best_values,
        varcrit=varcrit,
    )


def _column_bandwidths(design: DesignMatrix, smoother: SmootherConfig, plan: SelectionPlan):
    """Column j -> its calibrated bandwidth, calibrated on the first call
    (a failure is kept and raised again on every later call), or None where
    each candidate fit must calibrate for itself: another family, a
    total-df target, explicit bandwidths, or a CV plan, whose folds
    recalibrate on their own rows."""
    if (
        smoother.family != "kernel"
        or smoother.dftotal
        or smoother.bandwidths is not None
        or plan.criterion in CV_LOSSES
    ):
        return None
    found: dict[int, float | Exception] = {}

    def bandwidth(j: int) -> float:
        if j not in found:
            try:
                found[j] = fitting.calibrate_bandwidth(
                    design.x[:, j], smoother.kernel, smoother.df, name=design.names[j]
                )
            except Exception as exc:  # noqa: BLE001 - raised again per candidate
                found[j] = exc
        if isinstance(found[j], Exception):
            raise found[j]
        return found[j]

    return bandwidth
