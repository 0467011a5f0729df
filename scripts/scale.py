#!/usr/bin/env python3
"""Scale checks: fits, predictions and searches at sizes the unit tests do
not reach, one named cell each, whose assertions fail the run; and a grid
of timed fits written to ``BENCH_<LABEL>.json``.

    python scripts/scale.py               # every check cell, each in a fresh process
    python scripts/scale.py CELL          # one cell, in this process
    python scripts/scale.py --grid LABEL  # every grid cell, each in a fresh process

Each cell's child process (``sys.executable`` on this file with the cell's
name) gets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS = 1 in
its own environment: the peak-RSS bounds read the process's ``ru_maxrss``,
which never falls, so a cell after another in one process would read the
other's peak. Exits 1 naming every cell that failed. Imports ``ibrsmooth``
from ``src/`` next to this directory.

A grid cell (:func:`grid_cell`) fits one family at one (n, d) and prints
its record as one JSON line; ``--grid`` gathers the records of
``GRID`` into ``BENCH_<LABEL>.json`` at the root of the repository.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import ibrsmooth as ib  # noqa: E402
from ibrsmooth import crossval, selection  # noqa: E402
from ibrsmooth.benchmarks import make_wendelberger_data  # noqa: E402

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's sliding mmap threshold otherwise moves a spline's peak RSS from
# run to run, so the spline grid cells fix it in their own environment
TPS_MALLOC = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10  # kB -> MB


def uniform_sine(n: int, d: int):
    """(rng, x, y): y = sin(6 x0) + 0.5 x1 + noise on n uniform rows in [0, 1]^d."""
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(n, d))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, n)
    return rng, x, y


def wendelberger_path() -> ib.KPath:
    """The benchmark's spline path: the 30 x 30 Wendelberger grid."""
    design, y, _ = make_wendelberger_data(n_axis=30)
    return ib.KPath(ib.build_calibrated_tps(design.x).spectral(), y)


# the Gram matrix alone would take 3.2 GB; no wall-time bound here. The
# first fit then predicts 100000 rows drawn on [-0.01, 1.01]^2 in one batch,
# which the tables at its Chebyshev nodes serve a block of rows at a time,
# with no rows x 32 x 32 array (819 MB). 175 rows lie outside the training
# box but within the tables' margin (about 4e-4 here), and 3738 lie beyond
# it and are overwritten from the direct route: 74-78 MB peak measured
# after 74 MB for the fit (2-vCPU x86-64, numpy 2.4, scipy 1.17, no scipy
# loaded); bound 78 MB + 10%. The second fit has explicit bandwidths and a
# constant middle column, which the factor route takes as one node:
# 109-111 MB peak measured. The third calibrates one common factor for a
# total df of 2.2 through the columns' Chebyshev nodes (an n x n evaluation
# would need about 6.4 GB): 115-118 MB peak measured (the process peaks,
# which move with what the first predict left in the heap). Each fit is
# released before the next; bound on all three fits 115 MB + 10%
def gaussian_n20000() -> None:
    rng, x, y = uniform_sine(20000, 2)
    flat = np.insert(x, 1, 3.0, axis=1)
    explicit = ib.SmootherConfig(bandwidths=(0.4, 1.0, 0.5))
    for design, config in ((x, None), (flat, explicit), (x, ib.SmootherConfig(df=2.2, dftotal=True))):
        result = ib.fit(design, y, smoother=config)
        peak = peak_mb()
        print(f"k = {result.k:g}, df = {result.final_df:.4g}, peak RSS {peak:.0f} MB")
        assert peak < 127, f"peak RSS {peak:.0f} MB"
        if config is None:
            x_new = rng.uniform(-0.01, 1.01, size=(100_000, 2))
            pred = result.predict(x_new)
            tables = result.predictor._tables
            assert tables is not None and "table" in vars(tables), "the batch went direct"
            box = (x_new >= x.min(axis=0)) & (x_new <= x.max(axis=0))
            widened = (x_new >= tables.lo) & (x_new <= tables.hi)
            margin = (widened.all(axis=1) & ~box.all(axis=1)).sum()
            direct = (~widened.all(axis=1)).sum()
            assert margin > 0 and direct > 0, (margin, direct)
            peak = peak_mb()
            print(f"100000 rows from {tables.sizes} nodes ({margin} in the margin, "
                  f"{direct} direct), peak RSS {peak:.0f} MB")
            assert np.isfinite(pred).all() and peak < 86, f"peak RSS {peak:.0f} MB"
            del x_new, pred, tables, box, widened
        del result


# the row sums go through one product per axis over row blocks, so
# no n x 32 x 32 Khatri-Rao array (49 MB) is formed: 86 MB peak
# measured (2-vCPU x86-64, numpy 2.4, scipy 1.17, no scipy loaded);
# bound 86 MB + 10%. No wall-time bound here
def gaussian3_factor_n6000() -> None:
    _, x, y = uniform_sine(6000, 3)
    result = ib.fit(x, y, smoother=ib.SmootherConfig(df=1.1))
    peak = peak_mb()
    print(f"k = {result.k:g}, df = {result.final_df:.4g}, peak RSS {peak:.0f} MB")
    assert result.base._factor is not None, "the fit left the factor route"
    assert peak < 95, f"peak RSS {peak:.0f} MB"


# 32^3 nodes exceed n, so no prediction tables serve this fit and the
# batch goes direct, a block of rows at a time through one product
# with the design's augmented coordinates: no 100000 x 6000 weight
# array (4.8 GB) is formed. 85 MB peak measured after 85 MB for
# the fit (2-vCPU x86-64, numpy 2.4, scipy 1.17, no scipy loaded);
# bound 85 MB + 10%. The wall time is printed, with no bound
def gaussian3_direct_predict() -> None:
    rng, x, y = uniform_sine(6000, 3)
    result = ib.fit(x, y, smoother=ib.SmootherConfig(df=1.1))
    fitted = peak_mb()
    x_new = rng.uniform(size=(100_000, 3))
    start = time.perf_counter()
    pred = result.predict(x_new)
    wall = time.perf_counter() - start
    peak = peak_mb()
    assert result.predictor._tables is None, "tables serve this fit"
    assert result.predictor._weights.augmented is not None, "the batch left the expanded exponent"
    print(f"100000 rows direct in {wall:.2f} s, after the fit {fitted:.0f} MB, peak RSS {peak:.0f} MB")
    assert np.isfinite(pred).all() and peak < 94, f"peak RSS {peak:.0f} MB"


# the build peaks at three n x n arrays in the eigensolver (the reduced
# block, the tridiagonal eigenvectors and dstevd's workspace; the radial
# block is filled a block of rows at a time, with no n x n scratch):
# 155 MB measured (2-vCPU x86-64, numpy 2.4, scipy 1.17) against 252 MB
# when the fit formed U and kept E; bound 155 MB + 10%
def tps_fit_n2000() -> None:
    _, x, y = uniform_sine(2000, 2)
    result = ib.fit(x, y, smoother=ib.SmootherConfig(family="tps", df=1.1))
    peak = peak_mb()
    print(f"k = {result.k:g}, df = {result.final_df:.4g}, peak RSS {peak:.0f} MB")
    assert peak < 171, f"peak RSS {peak:.0f} MB"


# the radial basis is built and applied a block of rows at a time, so a
# batch of any size holds one block: 81 MB peak measured after 79 MB
# for the fit (2-vCPU x86-64, numpy 2.4, scipy 1.17), against 2.1 GB
# when the whole 100000 x 900 block was formed; bound 81 MB + 10%
def tps_predict_100k() -> None:
    design, y, _ = make_wendelberger_data(n_axis=30)
    result = ib.fit(design.x, y, smoother=ib.SmootherConfig(family="tps", df=1.1))
    fitted = peak_mb()
    pred = result.predict(np.random.default_rng(0).uniform(size=(100_000, 2)))
    peak = peak_mb()
    print(f"k = {result.k:g}, after the fit {fitted:.0f} MB, peak RSS {peak:.0f} MB")
    assert np.isfinite(pred).all() and peak < 90, f"peak RSS {peak:.0f} MB"


# the benchmark's spline fit: exhaustive GCV over [1, 1e5] on the
# 30 x 30 Wendelberger grid. The certified search scores each round's
# counts in one call and must pick the k of the full sweep (the same
# score with its bound switched off); the call count is printed, with
# no wall-time bound
def tps_exhaustive_search() -> None:
    path = wendelberger_path()
    plan = ib.SelectionPlan(mode="exhaustive")
    calls = []
    score = selection._CriterionScore(path, plan)
    batch = score.batch
    score.batch = lambda ks: calls.append(len(ks)) or batch(ks)
    certified = selection.search_k(score, plan, exhaustive=True)
    full = selection._CriterionScore(path, plan)
    full.bound = None
    swept = selection.search_k(full, plan, exhaustive=True)
    print(
        f"k = {certified.k:g} from {certified.trace_k.size} counts in {len(calls)} calls; "
        f"the full sweep's k = {swept.k:g} from {swept.trace_k.size} counts"
    )
    assert certified.k == swept.k, (certified.k, swept.k)


# the same 30 x 30 Wendelberger path, numeric GCV with dfmaxi 30,
# below the df (42.6) of the unconstrained optimum: the search finds
# the admissible range by batched multisection, then searches it.
# The call counts are printed, with no wall-time bound; every traced
# df must stay within the ceiling
def tps_df_ceiling_search() -> None:
    path = wendelberger_path()
    plan = ib.SelectionPlan(dfmaxi=30.0)
    calls = {"batch": 0, "batch_slopes": 0}
    score = selection._CriterionScore(path, plan)
    for name in calls:
        method = getattr(score, name)
        setattr(score, name, lambda ks, name=name, method=method: calls.__setitem__(name, calls[name] + 1) or method(ks))
    result = selection.search_k(score, plan, exhaustive=False)
    print(
        f"k = {result.k:.6g} (df {result.df:.6g}) from {result.trace_k.size} counts in "
        f"{calls['batch']} batch and {calls['batch_slopes']} batch_slopes calls"
    )
    limit = selection.df_ceiling(path.n, plan.dfmaxi)
    assert result.trace_df.max() <= limit, (result.trace_df.max(), limit)


# forward_cv's seed-[1, 1] design: GCV on its first column, where
# the search scores 94 counts in 7 calls to pick one k (184 in 43
# with an absolute k tolerance of 0.01), and 4-fold map CV on all
# five columns; and kernel_fit's seed-[2, 1] design, GCV at
# n = 1500, 83 counts in 7 calls (144 in 37 with that tolerance);
# all searched to kmax 1e15. Each search's score calls
# (the admissible range's and the rounds'), counts and k are
# printed, with no wall-time bound. The score methods are patched on
# their classes, and restored before the cell returns
def kmax_1e15_searches() -> None:
    rng = np.random.default_rng([1, 1])
    x = rng.uniform(size=(330, 5))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + x[:, 2] ** 2 + rng.normal(0, 0.1, 330)
    map_cv = ib.SelectionPlan(criterion="map", cv=ib.CvPlan(kfold=4), kmax=1e15)
    rng = np.random.default_rng([2, 1])
    x_kernel = rng.uniform(size=(1500, 2))
    y_kernel = np.sin(6 * x_kernel[:, 0]) + 0.5 * x_kernel[:, 1] + rng.normal(0, 0.1, 1500)
    gaussian = ib.SmootherConfig(df=1.1)
    calls = []
    saved = [(score, name, getattr(score, name))
             for score in (selection._CriterionScore, crossval._CvScore) for name in ("batch", "batch_slopes")]
    for score, name, method in saved:
        setattr(score, name, lambda self, ks, method=method: calls.append(len(ks)) or method(self, ks))
    try:
        for label, design, response, smoother, plan in (
            ("gcv, first column", x[:, :1], y, None, ib.SelectionPlan(kmax=1e15)),
            ("4-fold map CV, five columns", x, y, None, map_cv),
            ("gcv, kernel_fit [2, 1]", x_kernel, y_kernel, gaussian, ib.SelectionPlan(kmax=1e15)),
        ):
            calls.clear()
            result = ib.fit(design, response, smoother=smoother, plan=plan)
            print(f"{label}: k = {result.k:.8g} from {sum(calls)} counts in {len(calls)} score calls")
    finally:
        for score, name, method in saved:
            setattr(score, name, method)


CELLS = {cell.__name__: cell for cell in (
    gaussian_n20000, gaussian3_factor_n6000, gaussian3_direct_predict, tps_fit_n2000,
    tps_predict_100k, tps_exhaustive_search, tps_df_ceiling_search, kmax_1e15_searches,
)}


# ---------------------------------------------------------------- the grid

FIT_REPEATS = 5
# a cell whose first fit takes longer than this is recorded as skipped
FIRST_FIT_LIMIT_S = 10.0
HELD_OUT_ROWS = 2000
PREDICT_ROWS = 500
# a k within this distance of the plan's kmax sits on the boundary
KMAX_TOL = 0.01


def host_probe_s() -> float:
    """Median wall time of a fixed in-cache numpy loop (no BLAS): a control
    that moves with the host's speed, not with the code under test."""
    a = np.linspace(1.0, 2.0, 4096)
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(2000):
            np.multiply(a, 1.0000001, out=a)
        runs.append(time.perf_counter() - start)
    return float(np.median(runs))


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": len(values)}


def spectrum_route(result: ib.IbrFit) -> dict:
    """Which route built the base smoother's spectrum, the Gaussian's
    truncated factor, the dense n x n eigh or the spline's, the number of
    eigenpairs it kept, their accuracy floor n eps max |lambda| and the
    trace bound on the pairs left out (0 for a full spectrum)."""
    base = result.base
    if isinstance(base, ib.TpsSmoother):
        route = "spline"
    else:
        route = "factor" if base._factor is not None else "dense"
    spectral = base.spectral()
    return {
        "route": route,
        "rank": int(spectral.rank),
        "floor": float(spectral.floor),
        "tail_trace": float(spectral.tail_trace),
    }


def predict_route(result: ib.IbrFit) -> str:
    """The route the last predict took: the Gaussian's node tables, its
    direct route on the expanded exponent or by subtraction, or the
    spline's radial blocks, expanded (even d) or by subtraction (odd d)."""
    predictor = result.predictor
    if isinstance(predictor, ib.TpsPredictor):
        return "radial, subtraction" if predictor._radial.odd else "radial, expanded"
    tables = predictor._tables
    if tables is not None and "table" in vars(tables):
        return "tables"
    return "direct, expanded" if predictor._weights.augmented is not None else "direct, subtraction"


def grid_cell(family: str, n: int, d: int) -> dict:
    """One grid record: ``FIT_REPEATS`` timed fits of ``uniform_sine(n, d)``
    with the family's default smoother and numeric GCV, after a first fit
    that decides whether the cell runs at all, then the quality of the
    last fit on ``HELD_OUT_ROWS`` held-out rows against the noiseless
    target, and the route and speed of a ``PREDICT_ROWS``-row predict."""
    rng, x, y = uniform_sine(n, d)
    x_test = rng.uniform(size=(HELD_OUT_ROWS, d))
    target = np.sin(6 * x_test[:, 0]) + 0.5 * x_test[:, 1]
    config = ib.SmootherConfig(family=family)
    record = {"family": family, "n": n, "d": d, "host_probe_s": host_probe_s()}
    start = time.perf_counter()
    result = ib.fit(x, y, smoother=config)
    first = time.perf_counter() - start
    record["first_fit_s"] = first
    if first > FIRST_FIT_LIMIT_S:
        return record | {"skipped": f"first fit took {first:.1f} s, over {FIRST_FIT_LIMIT_S:g} s"}
    times = []
    for _ in range(FIT_REPEATS):
        del result
        start = time.perf_counter()
        result = ib.fit(x, y, smoother=config)
        times.append(time.perf_counter() - start)
    rows = x_test[:PREDICT_ROWS]
    predict_times = []
    for _ in range(FIT_REPEATS):
        start = time.perf_counter()
        result.predict(rows)
        predict_times.append(time.perf_counter() - start)
    # read before the held-out predict, whose 2000 rows may build tables
    route = predict_route(result)
    return record | {
        "fit_s": quartiles(times),
        "k": float(result.k),
        "final_df": float(result.final_df),
        "k_at_kmax": bool(abs(result.k - ib.SelectionPlan.kmax) <= KMAX_TOL),
        "test_mae": float(np.mean(np.abs(result.predict(x_test) - target))),
        "spectrum": spectrum_route(result),
        "predict": {
            "rows": PREDICT_ROWS,
            "route": route,
            "rows_per_s": PREDICT_ROWS / float(np.median(predict_times)),
        },
        "peak_rss_mb": peak_mb(),
    }


GRID = {
    f"{family}_n{n}_d{d}": (family, n, d)
    for family in ("kernel", "tps")
    for d in (2, 5)
    for n in (200, 500, 1000, 2000)
}


def versions() -> dict:
    """The interpreter and libraries the grid ran on; scipy's version is
    read from its metadata, so the kernel cells never import it."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def label(text: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", text):
        raise argparse.ArgumentTypeError(f"a label is letters, digits, '_', '.' or '-', got {text!r}")
    return text


def run_grid(name: str) -> int:
    """Every grid cell in its own child, its record read from the child's
    last line of output; writes BENCH_<name>.json and exits 1 naming
    every cell whose child failed."""
    blas = dict.fromkeys(BLAS_THREADS, "1")
    records, failed = [], []
    for cell, (family, _, _) in GRID.items():
        env = dict(os.environ, **blas, **(TPS_MALLOC if family == "tps" else {}))
        start = time.perf_counter()
        child = subprocess.run([sys.executable, __file__, cell], env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if child.returncode:
            failed.append(cell)
            print(f"== {cell}: FAILED (exit {child.returncode})\n{child.stderr}", flush=True)
            continue
        record = json.loads(child.stdout.splitlines()[-1])
        records.append(record)
        if "skipped" in record:
            print(f"== {cell}: skipped, {record['skipped']}", flush=True)
        else:
            fit_s = record["fit_s"]["median"]
            print(f"== {cell}: fit {fit_s:.4f} s, k {record['k']:.6g}, df {record['final_df']:.4g}, "
                  f"peak {record['peak_rss_mb']:.0f} MB ({wall:.1f} s)", flush=True)
    out = ROOT / f"BENCH_{name}.json"
    report = {
        "label": name,
        "env": versions() | {"blas_threads": blas, "tps_env": TPS_MALLOC},
        "cells": records,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{len(records)} cells written to {out}")
    if failed:
        print(f"{len(failed)} of {len(GRID)} grid cells failed: {', '.join(failed)}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cell", nargs="?", choices=[*CELLS, *GRID],
                        help="run this one cell in this process (default: every check cell, each in a child)")
    parser.add_argument("--grid", type=label, metavar="LABEL",
                        help="run every grid cell, each in a child, and write BENCH_LABEL.json")
    args = parser.parse_args(argv)
    if args.cell and args.grid:
        parser.error("--grid runs every grid cell: give no cell with it")
    if args.grid:
        return run_grid(args.grid)
    if args.cell in GRID:
        print(json.dumps(grid_cell(*GRID[args.cell])))
        return 0
    if args.cell:
        CELLS[args.cell]()
        return 0
    env = dict(os.environ, **dict.fromkeys(BLAS_THREADS, "1"))
    failed = []
    for name in CELLS:
        print(f"== {name}", flush=True)
        start = time.perf_counter()
        code = subprocess.run([sys.executable, __file__, name], env=env).returncode
        outcome = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"== {name}: {outcome} in {time.perf_counter() - start:.1f} s", flush=True)
        if code:
            failed.append(name)
    if failed:
        print(f"{len(failed)} of {len(CELLS)} cells failed: {', '.join(failed)}")
        return 1
    print(f"all {len(CELLS)} cells passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
