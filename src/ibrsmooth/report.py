"""Plain-text summary of a fit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import IbrFit

__all__ = ["FitReport", "make_report", "format_report"]


@dataclass
class FitReport:
    """Numbers shown by the fit summary."""

    five_numbers: tuple[float, float, float, float, float]
    sigma: float
    residual_df: float
    initial_df: float
    final_df: float
    criterion: str
    criterion_value: float
    k: int
    selection_mode: str
    base_description: str
    n: int
    # eigenpairs the fit ran on and the bound on the discarded eigenvalues
    spectrum_rank: int
    tail_trace: float


def make_report(fit: IbrFit) -> FitReport:
    spectral = fit.base.spectral()
    r = fit.residuals
    q = np.percentile(r, [0, 25, 50, 75, 100])
    return FitReport(
        five_numbers=tuple(float(v) for v in q),
        sigma=fit.sigma,
        residual_df=fit.residual_df,
        initial_df=fit.initial_df,
        final_df=fit.final_df,
        criterion=fit.criterion,
        criterion_value=fit.criterion_value,
        k=fit.k_rounded,
        selection_mode=fit.selection_mode,
        base_description=fit.base.describe(),
        n=fit.n,
        spectrum_rank=spectral.rank,
        tail_trace=spectral.tail_trace,
    )


def _sig(v: float, digits: int = 4) -> str:
    if not np.isfinite(v):
        return "NA"
    return f"{v:.{digits}g}"


def format_report(rep: FitReport) -> str:
    labels = ("Min", "1Q", "Median", "3Q", "Max")
    cells = [f"{v:.6g}" for v in rep.five_numbers]
    width = max(len(s) for s in cells + list(labels)) + 2
    lines = [
        "Residuals:",
        "".join(f"{lab:>{width}}" for lab in labels),
        "".join(f"{c:>{width}}" for c in cells),
        (
            f"Residual standard error: {_sig(rep.sigma)} on "
            f"{_sig(rep.residual_df)} degrees of freedom"
        ),
        "",
        f"Initial df: {_sig(rep.initial_df)} ; Final df: {_sig(rep.final_df)}",
    ]
    if rep.selection_mode == "fixed":
        lines += [
            "",
            f"Number of iterations: {rep.k} (fixed by the caller)",
        ]
    else:
        lines += [
            f"  {rep.criterion}",
            f"{_sig(rep.criterion_value)}",
            "",
            f"Number of iterations: {rep.k} chosen by {rep.criterion}"
            + (" (exhaustive search)" if rep.selection_mode == "exhaustive" else ""),
        ]
    lines.append(
        f"Base smoother: {rep.base_description}; spectrum: {rep.spectrum_rank} "
        f"of {rep.n} eigenpairs, tail trace <= {rep.tail_trace:.2g}"
    )
    return "\n".join(lines)
