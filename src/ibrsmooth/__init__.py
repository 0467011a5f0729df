"""Multivariate nonparametric regression by iterative bias reduction.

Start from a deliberately over-smoothed base fit, then repeatedly estimate
the remaining bias by smoothing the residuals and add the estimate back.
The number of iterations is the single effective tuning knob; it is chosen
by information criteria on the smoother's eigenvalues or by
cross-validated prediction loss.
"""

from .crossval import CvPlan, make_splits, search_k_cv
from .data import Dataset, load_csv, split_response
from .engine import IterationDomainError, KPath, iterate_fitted_recursive
from .fitting import IbrFit, SmootherConfig, build_smoother, fit
from .forward import ForwardResult, ForwardStageError, forward_select
from .kernel_smoother import (
    KernelPredictor,
    KernelSmoother,
    KernelSmootherSpec,
    build_kernel_smoother,
    calibrate_bandwidth,
    calibrate_total_df,
)
from .kernels import kernel_values
from .model_io import LoadedModel, load_model, save_model
from .report import format_report
from .selection import (
    BreakdownError,
    SelectionPlan,
    SelectionResult,
    criterion_value,
    search_k_exhaustive,
    search_k_numeric,
)
from .smoothers import BaseSmoother, CalibrationError, DesignMatrix, SpectralForm
from .tps import (
    TpsPredictor,
    TpsSmoother,
    TpsSpec,
    build_calibrated_tps,
    default_tps_order,
    tps_null_dim,
)

__version__ = "0.1.0"

__all__ = [
    "BaseSmoother",
    "BreakdownError",
    "CalibrationError",
    "CvPlan",
    "Dataset",
    "DesignMatrix",
    "ForwardResult",
    "ForwardStageError",
    "IbrFit",
    "IterationDomainError",
    "KPath",
    "KernelPredictor",
    "KernelSmoother",
    "KernelSmootherSpec",
    "LoadedModel",
    "SelectionPlan",
    "SelectionResult",
    "SmootherConfig",
    "SpectralForm",
    "TpsPredictor",
    "TpsSmoother",
    "TpsSpec",
    "build_calibrated_tps",
    "build_kernel_smoother",
    "build_smoother",
    "calibrate_bandwidth",
    "calibrate_total_df",
    "criterion_value",
    "default_tps_order",
    "fit",
    "forward_select",
    "format_report",
    "iterate_fitted_recursive",
    "kernel_values",
    "load_csv",
    "load_model",
    "make_splits",
    "save_model",
    "search_k_cv",
    "search_k_exhaustive",
    "search_k_numeric",
    "split_response",
    "tps_null_dim",
]
