"""High-level fitting: calibrate a base smoother, pick k, package the fit."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crossval import search_k_cv
from .engine import KPath
from .kernel_smoother import (
    KernelSmoother,
    KernelSmootherSpec,
    build_kernel_smoother,
    calibrate_bandwidth,
    calibrate_total_df,
    kernel_predict,
)
from .kernels import resolve_kernel
from .selection import (
    CV_LOSSES,
    SelectionPlan,
    criterion_value,
    search_k_exhaustive,
    search_k_numeric,
    search_mode,
)
from .smoothers import BaseSmoother, DesignMatrix
from .tps import (
    TpsSmoother,
    TpsSpec,
    build_calibrated_tps,
    build_tps_smoother,
    default_tps_order,
    tps_evaluate,
)

__all__ = [
    "SmootherConfig",
    "KernelPredictor",
    "TpsPredictor",
    "IbrFit",
    "build_smoother",
    "fit",
    "predict",
]

# at most this many (k, criterion) pairs are kept on the fit object
_TRACE_KEEP = 512


@dataclass(frozen=True)
class SmootherConfig:
    """User-level request for a base smoother, before calibration.

    ``df`` is the per-variable trace target for kernels (or the total trace
    when ``dftotal`` is set) and the null-dimension multiplier for
    thin-plate splines. Explicit ``bandwidths``/``lam`` skip calibration.
    """

    family: str = "kernel"
    kernel: str = "gaussian"
    df: float = 1.1
    dftotal: bool = False
    order: int | None = None
    bandwidths: tuple[float, ...] | None = None
    lam: float | None = None

    def __post_init__(self) -> None:
        fam = {"k": "kernel", "kernel": "kernel", "tps": "tps"}.get(self.family)
        if fam is None:
            raise ValueError(f"smoother family must be 'k' or 'tps', got {self.family!r}")
        object.__setattr__(self, "family", fam)
        if fam == "kernel":
            object.__setattr__(self, "kernel", resolve_kernel(self.kernel))


def build_smoother(x, config: SmootherConfig) -> BaseSmoother:
    """Calibrate and build the base smoother a config asks for."""
    design = x if isinstance(x, DesignMatrix) else DesignMatrix.from_array(x)
    if config.family == "tps":
        if config.lam is not None:
            spec = TpsSpec(
                order=config.order if config.order is not None else default_tps_order(design.d),
                lam=config.lam,
            )
            return build_tps_smoother(design, spec)
        return build_calibrated_tps(design, order=config.order, df_multiplier=config.df)
    if config.bandwidths is not None:
        spec = KernelSmootherSpec(kind=config.kernel, bandwidths=tuple(config.bandwidths))
        return build_kernel_smoother(design, spec)
    if config.dftotal:
        h = calibrate_total_df(design, config.kernel, config.df)
        spec = KernelSmootherSpec(
            kind=config.kernel, bandwidths=tuple(h), total_df_target=config.df
        )
        return build_kernel_smoother(design, spec)
    h = tuple(
        calibrate_bandwidth(design.x[:, j], config.kernel, config.df, name=design.names[j])
        for j in range(design.d)
    )
    spec = KernelSmootherSpec(kind=config.kernel, bandwidths=h, df_target=config.df)
    return build_kernel_smoother(design, spec)


def _finite_rows(x_new) -> np.ndarray:
    """New points as a 2-D float array, refusing any non-finite entry."""
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    if not np.isfinite(x_new).all():
        row = int(np.argmin(np.isfinite(x_new).all(axis=1)))
        raise ValueError(f"prediction row {row} has non-finite values")
    return x_new


@dataclass
class KernelPredictor:
    """Everything needed to evaluate a kernel fit at new points."""

    x_train: np.ndarray
    kind: str
    bandwidths: np.ndarray
    beta: np.ndarray

    def predict(self, x_new: np.ndarray) -> np.ndarray:
        return kernel_predict(
            _finite_rows(x_new), self.x_train, self.kind, self.bandwidths, self.beta
        )


@dataclass
class TpsPredictor:
    """Collapsed thin-plate spline: radial part plus polynomial part."""

    x_train: np.ndarray
    order: int
    powers: list[tuple[int, ...]]
    delta: np.ndarray
    poly_coef: np.ndarray

    def predict(self, x_new: np.ndarray) -> np.ndarray:
        return tps_evaluate(
            _finite_rows(x_new), self.x_train, self.order, self.powers,
            self.delta, self.poly_coef,
        )


@dataclass
class IbrFit:
    """A fitted bias-reduction regression."""

    design: DesignMatrix
    y: np.ndarray
    base: BaseSmoother
    beta: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    k: float
    initial_df: float
    final_df: float
    rss: float
    fitted_energy: float
    sigma: float
    criterion: str
    criterion_value: float
    selection_mode: str
    predictor: KernelPredictor | TpsPredictor
    trace_k: np.ndarray = field(repr=False)
    trace_value: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def k_rounded(self) -> int:
        return int(round(self.k))

    @property
    def residual_df(self) -> float:
        return self.n - self.final_df

    def predict(self, x_new: np.ndarray) -> np.ndarray:
        """Evaluate the fit at new points, one value per row."""
        return self.predictor.predict(x_new)


def _make_predictor(smoother: BaseSmoother, beta: np.ndarray):
    if isinstance(smoother, KernelSmoother):
        return KernelPredictor(
            x_train=smoother.design.x.copy(),
            kind=smoother.spec.kind,
            bandwidths=np.asarray(smoother.spec.bandwidths, dtype=float),
            beta=beta.copy(),
        )
    assert isinstance(smoother, TpsSmoother)
    delta, poly_coef = smoother.prediction_parts(beta)
    return TpsPredictor(
        x_train=smoother.design.x.copy(),
        order=smoother.spec.order,
        powers=smoother.core.powers,
        delta=delta,
        poly_coef=poly_coef,
    )


def _thin(arr: np.ndarray) -> np.ndarray:
    if arr.size <= _TRACE_KEEP:
        return arr
    idx = np.linspace(0, arr.size - 1, _TRACE_KEEP).round().astype(int)
    return arr[idx]


def fit(
    x,
    y: np.ndarray,
    smoother: SmootherConfig | BaseSmoother | None = None,
    plan: SelectionPlan | None = None,
    names: list[str] | None = None,
) -> IbrFit:
    """Fit the iterative bias-reduction regression.

    Args:
        x: design matrix (n rows, d columns) or DesignMatrix.
        y: response vector of length n.
        smoother: SmootherConfig (calibrated here) or a prebuilt smoother.
        plan: how to choose the iteration count; defaults to numeric GCV.
        names: column names when x is a bare array.

    Returns:
        IbrFit with coefficients, diagnostics and a lightweight predictor.
    """
    design = x if isinstance(x, DesignMatrix) else DesignMatrix.from_array(x, names)
    y = np.asarray(y, dtype=float).ravel()
    if y.size != design.n:
        raise ValueError(f"y has {y.size} entries for {design.n} rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    if np.all(y == y[0]):
        raise ValueError(f"y is constant ({y[0]:g}); there is nothing to smooth")
    plan = plan if plan is not None else SelectionPlan()

    config: SmootherConfig | None
    if smoother is None:
        config = SmootherConfig()
        base = build_smoother(design, config)
    elif isinstance(smoother, SmootherConfig):
        config = smoother
        base = build_smoother(design, config)
    else:
        config = None
        base = smoother
        if base.n != design.n:
            raise ValueError("prebuilt smoother does not match the design size")

    spectral = base.spectral()
    kpath = KPath(spectral, y)

    if plan.mode == "fixed":
        selection = None
        k = float(plan.fixed_k)
    elif plan.criterion in CV_LOSSES:
        if config is None:
            raise ValueError(
                "prediction-loss selection refits the smoother per fold; "
                "pass a SmootherConfig instead of a prebuilt smoother"
            )
        factory = lambda x_sub: build_smoother(x_sub, config)  # noqa: E731
        selection = search_k_cv(design.x, y, factory, plan)
        k = selection.k
    else:
        if search_mode(plan.mode, spectral.real_k_ok) == "numeric":
            selection = search_k_numeric(spectral, y, plan)
        else:
            selection = search_k_exhaustive(spectral, y, plan)
        k = selection.k

    beta = kpath.coefficients(k)
    fitted = kpath.fitted(k)
    residuals = y - fitted
    final_df = kpath.df(k)
    rss = kpath.rss(k)
    energy = kpath.fitted_energy(k)
    sigma = float(np.sqrt(rss / (design.n - final_df))) if final_df < design.n else np.nan

    if selection is None:
        crit_name, crit_value, mode_name = "fixed", np.nan, "fixed"
        trace_k = np.asarray([k])
        trace_value = np.asarray([np.nan])
    else:
        crit_name, crit_value = selection.criterion, selection.value
        mode_name = selection.mode
        trace_k = _thin(selection.trace_k)
        trace_value = _thin(selection.trace_value)

    return IbrFit(
        design=design,
        y=y,
        base=base,
        beta=beta,
        fitted=fitted,
        residuals=residuals,
        k=k,
        initial_df=base.initial_df,
        final_df=final_df,
        rss=rss,
        fitted_energy=energy,
        sigma=sigma,
        criterion=crit_name,
        criterion_value=crit_value,
        selection_mode=mode_name,
        predictor=_make_predictor(base, beta),
        trace_k=trace_k,
        trace_value=trace_value,
    )


def predict(fit_result: IbrFit, x_new: np.ndarray) -> np.ndarray:
    """Functional alias for IbrFit.predict."""
    return fit_result.predict(x_new)


def criterion_at(fit_result: IbrFit, kind: str) -> float:
    """Evaluate a spectral criterion at the fit's chosen k.

    Used by forward selection, where the scoring criterion may differ from
    the one that picked k.
    """
    return criterion_value(
        kind, fit_result.n, fit_result.rss, fit_result.final_df, fit_result.fitted_energy
    )
