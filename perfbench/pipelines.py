"""Workloads, traced pipelines and output checks for the ibrsmooth benchmark.

Everything here calls the public ``ibrsmooth`` API from outside: the
calls a user makes (``fit``, ``forward_select``, ``IbrFit.predict``). A
traced run makes the same calls with a span around each layer function
that ``fit`` and ``forward_select`` call, so that the time of a fit can be
split by layer.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ibrsmooth as ib

# relative tolerance of the S beta = fitted and rss = |y - fitted|^2 checks
CHECK_RTOL = 1e-8
# a k within this distance of plan.kmax is reported as sitting on the boundary
KMAX_TOL = 0.01
# an eigenpair is useful at k when its weight 1 - (1 - lambda)^k exceeds this
USEFUL_WEIGHT = 1e-9


# ---------------------------------------------------------------- inputs


@dataclass
class Dataset:
    """Training data plus held-out points with their noiseless truth."""

    seed: list[int]
    x: np.ndarray
    y: np.ndarray
    x_test: np.ndarray
    truth: np.ndarray


def _kernel_target(x: np.ndarray) -> np.ndarray:
    return np.sin(6.0 * x[:, 0]) + 0.5 * x[:, 1]


def _forward_target(x: np.ndarray) -> np.ndarray:
    return np.sin(6.0 * x[:, 0]) + 0.5 * x[:, 1] + x[:, 2] ** 2


def wendelberger(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The paper's bivariate test surface on the unit square.

    Defined here rather than imported from ``ibrsmooth.benchmarks`` so that
    the inputs never depend on the code under test.
    """
    return (
        0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4.0)
        + 0.75 * np.exp(-((9 * x + 1) ** 2 / 49.0 + (9 * y + 1) ** 2 / 10.0))
        + 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4.0)
        - 0.2 * np.exp(-((9 * x - 4) ** 2 + (9 * y - 7) ** 2))
    )


def make_kernel_data(rng: np.random.Generator, smoke: bool):
    n, m = (80, 300) if smoke else (1500, 5000)
    x = rng.uniform(size=(n, 2))
    y = _kernel_target(x) + rng.normal(0.0, 0.1, n)
    x_test = rng.uniform(size=(m, 2))
    return x, y, x_test, _kernel_target(x_test)


def make_tps_data(rng: np.random.Generator, smoke: bool):
    n_axis, n_grid = (7, 10) if smoke else (30, 50)
    axis = (np.arange(n_axis) + 0.5) / n_axis
    x = np.column_stack([np.tile(axis, n_axis), np.repeat(axis, n_axis)])
    clean = wendelberger(x[:, 0], x[:, 1])
    # noise variance is 0.2 times the variance of the surface on the grid
    std = float(np.sqrt(0.2 * np.var(clean, ddof=1)))
    y = clean + rng.normal(0.0, std, clean.size)
    inner = np.arange(1, n_grid + 1) / (n_grid + 1)
    x_test = np.column_stack([np.tile(inner, n_grid), np.repeat(inner, n_grid)])
    return x, y, x_test, wendelberger(x_test[:, 0], x_test[:, 1])


def make_forward_data(rng: np.random.Generator, smoke: bool):
    n, m = (60, 200) if smoke else (330, 2000)
    x = rng.uniform(size=(n, 5))
    y = _forward_target(x) + rng.normal(0.0, 0.1, n)
    x_test = rng.uniform(size=(m, 5))
    return x, y, x_test, _forward_target(x_test)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its data, its smoother and its k plan.

    ``forward`` workloads run ``forward_select`` first and fit the
    selected columns only.
    """

    name: str
    # (rng, smoke) -> (x, y, x_test, truth at x_test)
    make: Callable[[np.random.Generator, bool], tuple]
    config: ib.SmootherConfig
    plan: ib.SelectionPlan
    forward: bool
    # distinct datasets per run; timing repeats cycle through them
    datasets: int

    def data(self, seed: int, smoke: bool) -> list[Dataset]:
        return [
            Dataset([seed, i], *self.make(np.random.default_rng([seed, i]), smoke))
            for i in range(self.datasets)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kernel_fit",
            make_kernel_data,
            ib.SmootherConfig(family="kernel", kernel="gaussian", df=1.1),
            ib.SelectionPlan(),
            forward=False,
            datasets=3,
        ),
        Workload(
            "tps_sweep",
            make_tps_data,
            ib.SmootherConfig(family="tps", df=1.1),
            ib.SelectionPlan(mode="exhaustive"),
            forward=False,
            datasets=6,
        ),
        Workload(
            "forward_cv",
            make_forward_data,
            ib.SmootherConfig(family="kernel", kernel="gaussian", df=1.1),
            ib.SelectionPlan(criterion="rmse", cv=ib.CvPlan(kfold=5)),
            forward=True,
            datasets=6,
        ),
    )
}


# ---------------------------------------------------------------- tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: int


class Tracer:
    """In-memory spans; all spans of one pipeline run share a trace id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.trace = 0
        # the last KPath that fit built, while traced_calls is active
        self.kpath = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.trace)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        key = (self.trace, name)
        self.counts[key] = self.counts.get(key, 0) + amount


# ---------------------------------------------------------------- pipelines


@dataclass
class Trained:
    """A model plus what it took to build it, untraced or traced."""

    k: float
    final_df: float
    cols: list[int] | None = None
    forward_values: list[float] | None = None
    model: ib.IbrFit | None = None
    times: dict[str, float] = field(default_factory=dict)
    useful_frac: float = float("nan")

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The columns of x that the model was fitted on."""
        return x if self.cols is None else x[:, self.cols]


def train(wl: Workload, ds: Dataset) -> Trained:
    """The user's calls: optional forward walk, then one ``fit``."""
    times = {}
    cols = values = None
    x = ds.x
    if wl.forward:
        t = time.perf_counter()
        walk = ib.forward_select(ds.x, ds.y, smoother=wl.config)
        times["forward_s"] = time.perf_counter() - t
        cols, values = list(walk.order), list(walk.best_values)
        x = ds.x[:, cols]
    t = time.perf_counter()
    model = ib.fit(x, ds.y, smoother=wl.config, plan=wl.plan)
    times["fit_s"] = time.perf_counter() - t
    return Trained(model.k, model.final_df, cols, values, model, times)


def _spanned(tr: Tracer, name: str, func: Callable, on_result: Callable | None = None):
    """``func`` with a span around each call."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tr.span(name):
            out = func(*args, **kwargs)
        if on_result is not None:
            on_result(out)
        return out

    return wrapper


@contextmanager
def traced_calls(tr: Tracer):
    """Put a span around every layer call that ``fit`` and ``forward_select`` make.

    The layer functions are swapped for spanned ones where those two look
    them up (module globals of ``ibrsmooth.fitting`` and
    ``ibrsmooth.forward``, methods of the smoother classes), so the traced
    run executes the program's own orchestration. Everything is put back on
    exit. The last ``KPath`` that ``fit`` builds is kept on the tracer.
    """
    fitting, forward = ib.fitting, ib.forward

    class TracedKPath(fitting.KPath):
        def __init__(self, spectral, y):
            with tr.span("engine.kpath"):
                super().__init__(spectral, y)
            tr.kpath = self

    for method in ("coefficients", "fitted", "df", "rss", "fitted_energy"):
        setattr(TracedKPath, method, _spanned(tr, "engine.coef", getattr(fitting.KPath, method)))

    search_k_cv = fitting.search_k_cv

    def traced_cv(x, y, smoother_factory, plan):
        return search_k_cv(x, y, _spanned(tr, "crossval.refit", smoother_factory), plan)

    def count_evals(selection) -> None:
        tr.count("selection.evals", int(selection.trace_k.size))

    patches = [
        (fitting, "calibrate_bandwidth", _spanned(tr, "kernel_smoother.calibrate", fitting.calibrate_bandwidth)),
        (fitting, "build_kernel_smoother", _spanned(tr, "kernel_smoother.build", fitting.build_kernel_smoother)),
        (fitting, "build_calibrated_tps", _spanned(tr, "tps.build", fitting.build_calibrated_tps)),
        (ib.KernelSmoother, "spectral", _spanned(tr, "smoothers.spectral", ib.KernelSmoother.spectral)),
        (ib.TpsSmoother, "spectral", _spanned(tr, "smoothers.spectral", ib.TpsSmoother.spectral)),
        (fitting, "KPath", TracedKPath),
        (fitting, "search_k_numeric", _spanned(tr, "selection.search", fitting.search_k_numeric, count_evals)),
        (fitting, "search_k_exhaustive", _spanned(tr, "selection.search", fitting.search_k_exhaustive, count_evals)),
        (fitting, "search_k_cv", _spanned(tr, "crossval.search", traced_cv)),
        (forward, "fit", _spanned(tr, "forward.fit", forward.fit)),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield tr
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
        tr.kpath = None


def train_traced(tr: Tracer, wl: Workload, ds: Dataset) -> Trained:
    """:func:`train` with every layer call spanned, inside one ``fitting.train`` span."""
    with traced_calls(tr):
        with tr.span("fitting.train"):
            out = train(wl, ds)
        out.useful_frac = float(np.mean(tr.kpath.weights(out.k) > USEFUL_WEIGHT))
    out.times = {"traced_s": out.times.get("forward_s", 0.0) + out.times["fit_s"]}
    out.model = None
    return out


# ---------------------------------------------------------------- checks


def check_fit(model: ib.IbrFit, y: np.ndarray) -> list[str]:
    """Internal consistency of one fit; returns the failed checks."""
    problems = []
    smoothed = model.base.matrix @ model.beta
    scale = float(np.linalg.norm(model.fitted))
    gap = float(np.linalg.norm(smoothed - model.fitted))
    if not gap <= CHECK_RTOL * scale:
        problems.append(f"|S beta - fitted| = {gap:.3e} exceeds {CHECK_RTOL:g} * {scale:.3e}")
    rss = float(np.sum((np.asarray(y, dtype=float) - model.fitted) ** 2))
    if not abs(model.rss - rss) <= CHECK_RTOL * rss:
        problems.append(f"rss {model.rss!r} differs from |y - fitted|^2 = {rss!r}")
    return problems


def check_same_answer(a: Trained, b: Trained, what: str) -> dict[str, list[str]]:
    """Selected k, final df and forward walk must agree exactly.

    Returns the failed checks keyed by the operation they belong to.
    """
    problems: dict[str, list[str]] = {"forward_select": [], "fit": []}
    if a.cols != b.cols or a.forward_values != b.forward_values:
        problems["forward_select"].append(
            f"{what}: forward walk {a.cols}/{a.forward_values} vs {b.cols}/{b.forward_values}"
        )
    if a.k != b.k or a.final_df != b.final_df:
        problems["fit"].append(
            f"{what}: k/final_df {a.k!r}/{a.final_df!r} vs {b.k!r}/{b.final_df!r}"
        )
    return problems

