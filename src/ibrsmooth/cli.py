"""Command-line interface.

Subcommands: fit, predict, forward and bench (wendelberger | ozone).
Numeric GCV search over a calibrated gaussian kernel smoother is the
default pipeline; flags mirror the library's config dataclasses.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .benchmarks import (
    load_ozone,
    run_ozone_splits,
    run_wendelberger,
)
from .crossval import CvPlan
from .data import load_csv, split_response, write_predictions
from .fitting import SmootherConfig, fit
from .forward import forward_select
from .model_io import load_model, save_model
from .report import format_report
from .selection import CRITERIA, CV_LOSSES, SelectionPlan

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose refusals reach :func:`main` as one error line."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _count(least: int, what: str):
    """An argparse type: a whole number of ``what``, at least ``least``."""

    def parse(text: str) -> int:
        try:
            count = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a whole number of {what}: {text!r}") from None
        if count < least:
            raise argparse.ArgumentTypeError(f"the number of {what} must be at least {least}, got {count}")
        return count

    return parse


def _add_smoother_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--smoother", choices=("k", "tps"), default="k",
                   help="base smoother family: product kernel (k) or thin plate spline")
    p.add_argument("--kernel", choices=("g", "t", "q", "e", "u"), default="g",
                   help="kernel: gaussian, triangle, quartic, epanechnikov, uniform")
    p.add_argument("--df", type=float, default=SmootherConfig.df,
                   help="per-variable df target (kernel), null-dim multiplier (tps)")
    p.add_argument("--dftotal", action="store_true",
                   help="treat --df as the total trace of the kernel smoother")


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--criterion", choices=CRITERIA + CV_LOSSES, default=None,
                   help="model-choice criterion (default gcv); rmse/map switch to cross-validation")
    p.add_argument("--kmin", type=float, default=None)
    p.add_argument("--kmax", type=float, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="sweep integer k instead of the continuous search")
    mode.add_argument("--iter", type=int, default=None, dest="iterations",
                      help="skip selection and run exactly this many iterations")
    p.add_argument("--dfmaxi", type=float, default=None,
                   help="reject k whose effective df exceeds this (default 2n/3)")
    p.add_argument("--cv-kfold", type=_count(2, "folds"), default=None,
                   help="use K-fold cross-validation with this many folds")
    p.add_argument("--cv-ntest", type=int, default=None,
                   help="test-set size for data splitting (default n // 10)")
    p.add_argument("--cv-ntrain", type=int, default=None,
                   help="training-set size (alternative to --cv-ntest)")
    p.add_argument("--cv-npermut", type=int, default=CvPlan.npermut,
                   help="number of random train/test splits")
    p.add_argument("--cv-type", choices=("random", "consecutive", "interleaved", "timeseries"),
                   default="random")
    p.add_argument("--seed", type=int, default=0)


def _smoother_config(args: argparse.Namespace) -> SmootherConfig:
    return SmootherConfig(
        family=args.smoother, kernel=args.kernel, df=args.df, dftotal=args.dftotal
    )


def _selection_plan(args: argparse.Namespace) -> SelectionPlan:
    """The plan the flags ask for. A cv plan is built for a CV loss search or
    whenever --cv-kfold, --cv-ntest or --cv-ntrain is given, so that
    SelectionPlan refuses fold flags the plan would not read. A fixed plan
    (--iter) reads no criterion, k range or df ceiling, so it refuses
    --criterion, --kmin, --kmax and --dfmaxi; unset, they take the plan's
    defaults."""
    fixed = args.iterations is not None
    search = {
        name: value
        for name in ("criterion", "kmin", "kmax", "dfmaxi")
        if (value := getattr(args, name)) is not None
    }
    if fixed and search:
        flags = ", ".join(f"--{name}" for name in search)
        raise ValueError(f"--iter runs a fixed number of iterations, which reads no {flags}")
    criterion = search.get("criterion", SelectionPlan.criterion)
    cv = None
    sizes = (args.cv_kfold, args.cv_ntest, args.cv_ntrain)
    if (criterion in CV_LOSSES and not fixed) or any(v is not None for v in sizes):
        cv = CvPlan(
            kfold=args.cv_kfold if args.cv_kfold is not None else False,
            ntest=args.cv_ntest,
            ntrain=args.cv_ntrain,
            npermut=args.cv_npermut,
            type=args.cv_type,
            seed=args.seed,
        )
    return SelectionPlan(
        mode="fixed" if fixed else "exhaustive" if args.exhaustive else "numeric",
        fixed_k=float(args.iterations) if fixed else None,
        cv=cv,
        **search,
    )


def cmd_fit(args: argparse.Namespace) -> int:
    data = load_csv(args.data)
    y, design, response = split_response(data, args.response)
    result = fit(design, y, smoother=_smoother_config(args), plan=_selection_plan(args))
    print(format_report(result))
    if args.out:
        save_model(result, args.out, response=response)
        print(f"\nModel written to {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    data = load_csv(args.data)
    missing = [n for n in model.names if n not in data.names]
    if missing:
        raise ValueError(f"prediction input lacks the training columns {missing}")
    preds = model.predict(data.values[:, [data.names.index(n) for n in model.names]])
    write_predictions(args.out, preds)
    print(f"{preds.size} predictions written to {args.out}")
    return 0


def cmd_forward(args: argparse.Namespace) -> int:
    data = load_csv(args.data)
    y, design, _ = split_response(data, args.response)
    result = forward_select(
        design, y,
        smoother=_smoother_config(args),
        plan=_selection_plan(args),
        varcrit=args.varcrit,
    )
    order_1based = ",".join(str(j + 1) for j in result.order)
    print(f"Selected columns (in order): {order_1based}")
    print(f"Selected names: {', '.join(result.selected_names)}")
    print(f"Criterion ({result.varcrit}) per stage: "
          + ", ".join(f"{v:.6g}" for v in result.best_values))
    if args.out:
        _write_forward_csv(result, args.out)
        print(f"Score matrix written to {args.out}")
    return 0


def _write_forward_csv(result, path: str) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["stage"] + list(result.names))
        for s, row in enumerate(result.scores, start=1):
            cells = ["" if not np.isfinite(v) else repr(float(v)) for v in row]
            writer.writerow([s] + cells)
        writer.writerow(["order"] + [",".join(str(j + 1) for j in result.order)])


def cmd_bench_wendelberger(args: argparse.Namespace) -> int:
    smoother = SmootherConfig(family="tps", df=args.df)
    plan = _selection_plan(args)
    seeds = range(args.seed, args.seed + args.repeats)
    rows = []
    for seed in seeds:
        run = run_wendelberger(
            seed=seed, noise=args.noise, n_axis=args.n_axis,
            smoother=smoother, plan=plan,
        )
        rows.append(run)
        print(
            f"seed {seed:3d}: k = {run.fit.k_rounded:5d}  "
            f"initial df = {run.fit.initial_df:.4g}  final df = {run.fit.final_df:.4g}  "
            f"{run.fit.selection.criterion} = {run.fit.selection.value:.4g}  mae = {run.mae:.6f}"
        )
    if len(rows) > 1:
        maes = np.asarray([r.mae for r in rows])
        ks = np.asarray([r.fit.k for r in rows])
        print(
            f"over {len(rows)} seeds: k in [{ks.min():.0f}, {ks.max():.0f}], "
            f"mae mean {maes.mean():.6f} (min {maes.min():.6f}, max {maes.max():.6f})"
        )
    return 0


def cmd_bench_ozone(args: argparse.Namespace) -> int:
    data = load_ozone(args.data)
    y = data.values[:, 0]
    x = data.values[:, 1:]
    smoother = _smoother_config(args)
    plan = _selection_plan(args)
    result = fit(x, y, smoother=smoother, plan=plan, names=list(data.names[1:]))
    print("Full-data fit:")
    print(format_report(result))
    if args.repeats > 0:
        splits = run_ozone_splits(
            data, repeats=args.repeats, seed=args.seed, smoother=smoother, plan=plan
        )
        print(
            f"\n{args.repeats} random {splits.ntrain}/{splits.ntest} splits: "
            f"pooled test MSE = {splits.pooled_mse:.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ibrsmooth",
        description="Multivariate regression by iteratively bias-reduced smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and optionally save it")
    p_fit.add_argument("--data", required=True, help="CSV with header row")
    p_fit.add_argument("--response", default="1",
                       help="response column name or 1-based index (default first)")
    _add_smoother_flags(p_fit)
    _add_selection_flags(p_fit)
    p_fit.add_argument("--out", default=None, help="write the fitted model here")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="apply a saved model to new rows")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_fwd = sub.add_parser("forward", help="greedy forward covariate selection")
    p_fwd.add_argument("--data", required=True)
    p_fwd.add_argument("--response", default="1")
    p_fwd.add_argument("--varcrit", choices=CRITERIA, default=None,
                       help="criterion scoring each candidate (default: --criterion)")
    _add_smoother_flags(p_fwd)
    _add_selection_flags(p_fwd)
    p_fwd.add_argument("--out", default=None, help="write the stage/score matrix CSV here")
    p_fwd.set_defaults(func=cmd_forward)

    p_bench = sub.add_parser("bench", help="reference experiments")
    bench_sub = p_bench.add_subparsers(dest="benchmark", required=True)

    p_wend = bench_sub.add_parser("wendelberger", help="synthetic surface benchmark")
    p_wend.add_argument("--noise", type=float, default=0.2,
                        help="noise-to-signal variance ratio")
    p_wend.add_argument("--n-axis", type=int, default=10,
                        help="observations per axis of the training grid")
    p_wend.add_argument("--repeats", type=_count(1, "seeds"), default=1,
                        help="number of consecutive seeds to run")
    p_wend.add_argument("--df", type=float, default=SmootherConfig.df)
    _add_selection_flags(p_wend)
    p_wend.set_defaults(func=cmd_bench_wendelberger)

    p_oz = bench_sub.add_parser("ozone", help="LA ozone benchmark (needs the dataset)")
    p_oz.add_argument("--data", default="data/ozone.csv",
                      help="converted ozone CSV (see scripts/fetch_ozone.py)")
    p_oz.add_argument("--repeats", type=_count(0, "splits"), default=50,
                      help="random train/test splits to evaluate (0 to skip)")
    _add_smoother_flags(p_oz)
    _add_selection_flags(p_oz)
    p_oz.set_defaults(func=cmd_bench_ozone)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
