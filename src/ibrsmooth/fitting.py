"""High-level fitting: calibrate a base smoother, pick k, package the fit."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .crossval import search_k_cv
from .engine import KPath
from .kernel_smoother import (
    KernelPredictor,
    KernelSmootherSpec,
    build_kernel_smoother,
    calibrate_bandwidth,
    calibrate_total_df,
)
from .kernels import resolve_kernel
from .selection import (
    CV_LOSSES,
    SelectionPlan,
    SelectionResult,
    search_k_exhaustive,
    search_k_numeric,
)
from .smoothers import BaseSmoother, DesignMatrix, _is_real, _read_xy
from .tps import (
    TpsPredictor,
    TpsSmoother,
    TpsSpec,
    build_calibrated_tps,
    default_tps_order,
)

__all__ = ["SmootherConfig", "IbrFit", "build_smoother", "fit"]

# a fit warns when the eigenpairs a truncated spectrum left out may move its
# df at the chosen k by more than this share of that df: k * tail_trace, the
# spectrum's certificate, passes it past k of about 3e7 on a 1500-point
# two-column Gaussian fit, far above the default kmax of 1e5
_CUT_DF_RTOL = 1e-6


@dataclass(frozen=True)
class SmootherConfig:
    """User-level request for a base smoother, before calibration.

    ``df`` is the per-variable trace target for kernels (or the total trace
    when ``dftotal`` is set) and the null-dimension multiplier for
    thin-plate splines. Explicit ``bandwidths``/``lam`` skip calibration.
    A field the smoother would not read (``lam``, ``order`` for a kernel;
    ``bandwidths``, ``dftotal`` for a spline; ``dftotal`` with explicit
    bandwidths) or of the wrong type (``df`` or ``lam`` not a real, ``order``
    not whole, ``bandwidths`` not a sequence of reals) raises ValueError. A
    spline ignores ``kernel``.
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
        object.__setattr__(self, "dftotal", bool(self.dftotal))
        for name in ["lam", "order"] if fam == "kernel" else ["bandwidths", "dftotal"]:
            value = getattr(self, name)
            if value is not None and value is not False:
                raise ValueError(f"SmootherConfig.{name} = {value} is not read by {fam} smoothers")
        if self.dftotal and self.bandwidths is not None:
            raise ValueError("SmootherConfig.dftotal = True is not read with explicit bandwidths")
        if not _is_real(self.df):
            raise ValueError(f"SmootherConfig.df must be a real number, got {self.df!r}")
        if self.lam is not None and not _is_real(self.lam):
            raise ValueError(f"SmootherConfig.lam must be a real number, got {self.lam!r}")
        if self.order is not None:
            if not (_is_real(self.order) and float(self.order).is_integer()):
                raise ValueError(f"SmootherConfig.order must be a whole number, got {self.order!r}")
            object.__setattr__(self, "order", int(self.order))
        h = self.bandwidths
        if h is not None:
            h = tuple(h) if np.iterable(h) and not isinstance(h, str) else None
            if h is None or not all(map(_is_real, h)):
                raise ValueError(f"SmootherConfig.bandwidths must be a sequence of reals, got {self.bandwidths!r}")
            object.__setattr__(self, "bandwidths", h)
        if fam == "kernel":
            object.__setattr__(self, "kernel", resolve_kernel(self.kernel))


def build_smoother(x, config: SmootherConfig) -> BaseSmoother:
    """Calibrate and build the base smoother a config asks for."""
    design = DesignMatrix.from_array(x)
    if config.family == "tps":
        if config.lam is not None:
            spec = TpsSpec(
                order=config.order if config.order is not None else default_tps_order(design.d),
                lam=config.lam,
            )
            return TpsSmoother(design, spec)
        return build_calibrated_tps(design, order=config.order, df_multiplier=config.df)
    if config.bandwidths is not None:
        spec = KernelSmootherSpec(kind=config.kernel, bandwidths=tuple(config.bandwidths))
        return build_kernel_smoother(design, spec)
    if config.dftotal:
        h = tuple(calibrate_total_df(design, config.kernel, config.df))
    else:
        h = tuple(
            calibrate_bandwidth(design.x[:, j], config.kernel, config.df, name=design.names[j])
            for j in range(design.d)
        )
    return build_kernel_smoother(design, KernelSmootherSpec(kind=config.kernel, bandwidths=h))


@dataclass
class IbrFit:
    """A fitted bias-reduction regression.

    ``selection`` is the record of how k was chosen: the search's result as
    it returned it, or for a fixed plan one entry with criterion "fixed".
    """

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
    selection: SelectionResult
    predictor: KernelPredictor | TpsPredictor

    @property
    def criterion(self) -> str:
        return self.selection.criterion

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
        names: column names when x is a bare array (ValueError with a
            DesignMatrix, which has its own).

    Returns:
        IbrFit with coefficients, diagnostics and a lightweight predictor.
    """
    design, y = _read_xy(x, y, names)
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
        k = float(plan.fixed_k)
        df, rss, _ = kpath.stats(k)
        trace = (np.asarray([v], dtype=float) for v in (k, np.nan, df, rss))
        selection = SelectionResult(k, np.nan, "fixed", "fixed", df, rss, *trace)
    elif plan.criterion in CV_LOSSES:
        if config is None:
            raise ValueError(
                "prediction-loss selection refits the smoother per fold; "
                "pass a SmootherConfig instead of a prebuilt smoother"
            )
        factory = lambda x_sub: build_smoother(x_sub, config)  # noqa: E731
        selection = search_k_cv(design.x, y, factory, plan)
    else:
        search = search_k_exhaustive if plan.mode == "exhaustive" else search_k_numeric
        selection = search(kpath, plan)

    k = selection.k
    beta = kpath.coefficients(k)
    fitted = kpath.fitted(k)
    residuals = y - fitted
    final_df, rss, energy = kpath.stats(k)
    sigma = float(np.sqrt(rss / (design.n - final_df))) if final_df < design.n else np.nan
    cut = k * spectral.tail_trace
    if cut > _CUT_DF_RTOL * final_df:
        warnings.warn(
            f"the eigenpairs the spectrum left out (trace {spectral.tail_trace:.2g}) may move "
            f"the df at k = {k:.4g} by up to {cut:.2g}, more than {_CUT_DF_RTOL:g} of its "
            f"{final_df:.4g}; k below about {_CUT_DF_RTOL * final_df / spectral.tail_trace:.2g} "
            "(a smaller kmax or fixed_k) keeps it within that share",
            stacklevel=2,
        )

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
        selection=selection,
        predictor=base.predictor(beta),
    )

