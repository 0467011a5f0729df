"""Benchmark runner for ibrsmooth: one workload, one seed, one run.

Run it from the repository root:

    python3 perfbench/run.py --workload kernel_fit --seed 1 --seconds 25 --trace 0

The runner imports ``ibrsmooth`` from ``src/`` next to this directory and
times calls into its public API from outside. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the same pipeline a second time
with a span around each layer call, and reports the per-layer metrics. ``--smoke`` shrinks every input so that a run takes
seconds. The last line of standard output is the result object; the line
before it holds the details (sample counts, percentiles, quality and
provenance columns, failures).

Metric definitions and the layer map are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# set-up (input generation plus a warm-up pass) is repeated and its median kept
SETUP_REPEATS = 3
BLAS_THREADS = 1
BATCH_ROWS = 500
SMOKE_BATCH_ROWS = 100

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "pipeline_s": "s",
    "predict_rows_per_s": "1/s",
    "test_mae": "y",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernel_smoother.calibrate_s": "s",
    "kernel_smoother.calibrate_calls": "count",
    "kernel_smoother.build_s": "s",
    "tps.build_s": "s",
    "smoothers.spectral_s": "s",
    "smoothers.spectral_useful_frac": "ratio",
    "engine.kpath_s": "s",
    "engine.coef_s": "s",
    "selection.search_s": "s",
    "selection.evals": "count",
    "crossval.refit_s": "s",
    "crossval.folds": "count",
    "crossval.search_s": "s",
    "forward.fits": "count",
    "forward.fit_s": "s",
    "fitting.glue_s": "s",
    "fitting.predict_s": "s",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.bytes": "bytes",
    "tracing.untraced_s": "s",
    "tracing.traced_s": "s",
    "tracing.overhead_s": "s",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("kernel_fit", "tps_sweep", "forward_cv")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs: checks every path in seconds"
    )
    return parser.parse_args(argv)


def _pin_blas() -> int:
    """Pin BLAS to one thread before numpy is loaded.

    One thread keeps a timing from depending on whether a second CPU is
    free at that moment, which on a shared machine it often is not.
    """
    threads = BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    out: dict = {"n": n}
    if not n:
        return out
    out["median"] = statistics.median(s)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(s, n=4)
        out["q1"], out["q3"] = q1, q3
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            out[f"p{p:g}"] = s[rank - 1]
            break
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    blas_threads = _pin_blas()
    src = ROOT / "src"
    if not (src / "ibrsmooth" / "__init__.py").is_file():
        print(f"perfbench: no ibrsmooth package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # imported here, after the BLAS pin, because numpy reads it at load time
    t = time.perf_counter()
    import numpy as np
    import scipy

    import ibrsmooth
    import harness
    import pipelines

    import_s = time.perf_counter() - t
    if not Path(ibrsmooth.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported ibrsmooth from {ibrsmooth.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = pipelines.WORKLOADS[args.workload]
    traced = bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    model_path = OUT_DIR / f"model-{os.getpid()}.json"
    batch_rows = SMOKE_BATCH_ROWS if args.smoke else BATCH_ROWS

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            datasets = wl.data(args.seed, args.smoke)
            warm = pipelines.train(wl, datasets[0])
            x_test = warm.rows(datasets[0].x_test)
            for i in range(0, len(x_test), batch_rows):
                warm.model.predict(x_test[i : i + batch_rows])
            setup_times.append(time.perf_counter() - t)
        del warm

        bench = harness.Bench(wl, datasets, traced, batch_rows, model_path)
        # whole cycles over the datasets, so every dataset weighs the same
        # in the medians whatever the speed; at least one cycle, for test_mae
        cycle = len(datasets)
        deadline = time.perf_counter() + args.seconds
        r = 0
        while r < cycle or r % cycle or time.perf_counter() < deadline:
            bench.repeat(r)
            r += 1
    finally:
        model_path.unlink(missing_ok=True)

    s = bench.samples
    if traced:
        metrics = {name: statistics.median(bench.layers[name]) if bench.layers[name] else math.nan
                   for name in PER_LAYER if name != "fitting.predict_s"}
        metrics["fitting.predict_s"] = statistics.median(s["predict_s"]) if s["predict_s"] else math.nan
        units = PER_LAYER
    else:
        maes = [q["test_mae"] for q in bench.quality if q is not None]
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "fit_s": statistics.median(s["fit_s"]) if s["fit_s"] else math.nan,
            "pipeline_s": statistics.median(s["pipeline_s"]) if s["pipeline_s"] else math.nan,
            "predict_rows_per_s": statistics.median(s["predict_rows_per_s"]) if s["predict_rows_per_s"] else math.nan,
            "test_mae": statistics.fmean(maes) if len(maes) == len(datasets) else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    timings = {"import_s": summarize([import_s]), "setup_s": summarize(setup_times)}
    for name, values in s.items():
        timings[name] = summarize(values)
    if wl.forward:
        timings["cv_fit_s"] = timings.get("fit_s", {})
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "repeats": r,
        "batch_rows": batch_rows,
        "datasets": len(datasets),
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ibrsmooth": ibrsmooth.__version__,
            "blas_threads": blas_threads,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "timings": timings,
        "quality": bench.quality,
        "failures": bench.failures[:50],
    }
    if traced:
        detail["layers"] = {name: summarize(v) for name, v in bench.layers.items()}
    print(json.dumps(detail))

    missing = [name for name, value in metrics.items() if not math.isfinite(value)]
    if missing:
        print(f"perfbench: no measurement for {missing}; failures: {bench.failures[:5]}", file=sys.stderr)
        return 1
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
