"""Plain-text summary of a fit."""

from __future__ import annotations

import numpy as np

from .fitting import IbrFit

__all__ = ["format_report"]


def _sig(v: float, digits: int = 4) -> str:
    if not np.isfinite(v):
        return "NA"
    return f"{v:.{digits}g}"


def format_report(fit: IbrFit) -> str:
    """The fit summary: residual quantiles, residual standard error, initial
    and final df, the criterion and k, and the base smoother with the
    eigenpairs the fit ran on, their accuracy floor, and either the bound
    on the discarded eigenvalues (a truncated spectrum) or the count of
    kept eigenvalues below the floor (a full one)."""
    spectral = fit.base.spectral()
    labels = ("Min", "1Q", "Median", "3Q", "Max")
    cells = [f"{float(v):.6g}" for v in np.percentile(fit.residuals, [0, 25, 50, 75, 100])]
    width = max(len(s) for s in cells + list(labels)) + 2
    lines = [
        "Residuals:",
        "".join(f"{lab:>{width}}" for lab in labels),
        "".join(f"{c:>{width}}" for c in cells),
        (
            f"Residual standard error: {_sig(fit.sigma)} on "
            f"{_sig(fit.residual_df)} degrees of freedom"
        ),
        "",
        f"Initial df: {_sig(fit.initial_df)} ; Final df: {_sig(fit.final_df)}",
    ]
    sel = fit.selection
    if sel.mode == "fixed":
        lines += [
            "",
            f"Number of iterations: {fit.k_rounded} (fixed by the caller)",
        ]
    else:
        lines += [
            f"  {sel.criterion}",
            f"{_sig(sel.value)}",
            "",
            f"Number of iterations: {fit.k_rounded} chosen by {sel.criterion}"
            + (" (exhaustive search)" if sel.mode == "exhaustive" else ""),
        ]
    floor = spectral.floor
    if spectral.rank < fit.n:
        rest = f"tail trace <= {spectral.tail_trace:.2g}"
    else:
        rest = f"{np.count_nonzero(np.abs(spectral.lam) < floor)} below it"
    lines.append(
        f"Base smoother: {fit.base.describe()}; spectrum: {spectral.rank} "
        f"of {fit.n} eigenpairs, floor {floor:.2g}, {rest}"
    )
    return "\n".join(lines)
