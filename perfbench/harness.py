"""Repeats one workload's pipeline: timings, output checks and layer spans."""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import ibrsmooth as ib
import pipelines


class Bench:
    """Repeats one workload's pipeline and keeps timings, checks and spans."""

    def __init__(self, wl, datasets, traced: bool, batch_rows: int, model_path: Path):
        self.wl = wl
        self.datasets = datasets
        self.tracer = pipelines.Tracer() if traced else None
        self.model_path = model_path
        self.batches = [
            [ds.x_test[i : i + batch_rows] for i in range(0, len(ds.x_test), batch_rows)]
            for ds in datasets
        ]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layers: dict[str, list[float]] = defaultdict(list)
        self.refs: list = [None] * len(datasets)
        self.quality: list = [None] * len(datasets)

    # one operation that failed one or more checks counts once
    def _settle(self, problems: dict[str, list[str]]) -> None:
        for op, messages in problems.items():
            if messages:
                self.failed += 1
                self.failures.extend(f"{op}: {m}" for m in messages)

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else _Clock()

    def _traced(self, ds, problems):
        self.attempted += 1
        try:
            return pipelines.train_traced(self.tracer, self.wl, ds)
        except Exception as exc:  # a failed operation is counted, not fatal
            problems["traced"].append(repr(exc))
            return None

    def repeat(self, r: int) -> None:
        i = r % len(self.datasets)
        ds = self.datasets[i]
        problems: dict[str, list[str]] = defaultdict(list)
        traced = None
        if self.tracer is not None:
            self.tracer.trace = r
            # alternate which of the two runs goes first
            if r % 2:
                traced = self._traced(ds, problems)

        start = time.perf_counter()
        self.attempted += 2 if self.wl.forward else 1
        try:
            trained = pipelines.train(self.wl, ds)
        except Exception as exc:  # a failed operation is counted, not fatal
            problems["fit"].append(repr(exc))
            if self.wl.forward:
                problems["forward_select"].append(repr(exc))
            self._settle(problems)
            return
        preds = []
        for j, batch in enumerate(self.batches[i]):
            self.attempted += 1
            try:
                with self._span("fitting.predict") as clock:
                    preds.append(trained.model.predict(trained.rows(batch)))
                self.samples["predict_s"].append(clock.end - clock.start)
                self.samples["predict_rows_per_s"].append(len(batch) / (clock.end - clock.start))
            except Exception as exc:  # a failed operation is counted, not fatal
                problems[f"predict[{j}]"].append(repr(exc))
                preds.append(None)
        if all(p is not None for p in preds):
            self.samples["pipeline_s"].append(time.perf_counter() - start)
        for name, value in trained.times.items():
            self.samples[name].append(value)

        if self.tracer is not None and r % 2 == 0:
            traced = self._traced(ds, problems)
        self._check(r, i, trained, preds, traced, problems)
        if traced is not None:
            self._record_layers(r, trained, traced)
        self._settle(problems)

    def _check(self, r, i, trained, preds, traced, problems) -> None:
        ds = self.datasets[i]
        model = trained.model
        problems["fit"] += pipelines.check_fit(model, ds.y)
        ref = self.refs[i]
        if ref is not None:
            for op, msgs in pipelines.check_same_answer(ref[0], trained, "first fit vs this fit").items():
                problems[op] += msgs
            for j, (a, b) in enumerate(zip(ref[1], preds)):
                if b is not None and not _identical(a, b):
                    problems[f"predict[{j}]"].append("differs from the first fit of this dataset")
        if traced is not None:
            for msgs in pipelines.check_same_answer(trained, traced, "untraced vs traced").values():
                problems["traced"] += msgs

        try:
            with self._span("model_io.save"):
                ib.save_model(model, self.model_path)
            size = self.model_path.stat().st_size
            with self._span("model_io.load"):
                loaded = ib.load_model(self.model_path)
            # every batch on first sight of a dataset, then one batch in turn
            nb = len(preds)
            for j in range(nb) if ref is None else [r % nb]:
                if preds[j] is not None and not _identical(loaded.predict(trained.rows(self.batches[i][j])), preds[j]):
                    problems[f"predict[{j}]"].append("loaded model predicts differently")
        except Exception as exc:  # a failed save or load fails the fit it stores
            problems["fit"].append(f"save/load: {exc!r}")
            size = 0
        self.samples["model_bytes"].append(size)

        if ref is None and all(p is not None for p in preds):
            pred = np.concatenate(preds)
            mae = float(np.mean(np.abs(pred - ds.truth)))
            mean_mae = float(np.mean(np.abs(np.mean(ds.y) - ds.truth)))
            if not mae < mean_mae:
                problems["fit"].append(f"test MAE {mae:.4g} not below constant-mean MAE {mean_mae:.4g}")
            self.refs[i] = (dataclasses.replace(trained, model=None), preds)
            self.quality[i] = {
                "seed": ds.seed,
                "n": int(ds.x.shape[0]),
                "k": model.k,
                "final_df": model.final_df,
                "initial_df": model.initial_df,
                "k_at_kmax": bool(abs(model.k - self.wl.plan.kmax) <= pipelines.KMAX_TOL),
                "criterion": model.criterion,
                "columns": trained.cols,
                "test_mae": mae,
                "mean_mae": mean_mae,
            }

    def _record_layers(self, r: int, trained, traced_run) -> None:
        tr = self.tracer
        ids = [idx for idx, s in enumerate(tr.spans) if s.trace == r]
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for idx in ids:
            s = tr.spans[idx]
            totals[s.name] += s.end - s.start
            counts[s.name] += 1
        root = next(idx for idx in ids if tr.spans[idx].name == "fitting.train")
        layer_sum = sum(
            tr.spans[idx].end - tr.spans[idx].start for idx in ids if tr.spans[idx].parent == root
        )
        untraced = sum(trained.times.values())
        traced = traced_run.times["traced_s"]
        fits = counts["forward.fit"]
        values = {
            "kernel_smoother.calibrate_s": totals["kernel_smoother.calibrate"],
            "kernel_smoother.calibrate_calls": counts["kernel_smoother.calibrate"],
            "kernel_smoother.build_s": totals["kernel_smoother.build"],
            "tps.build_s": totals["tps.build"],
            "smoothers.spectral_s": totals["smoothers.spectral"],
            "smoothers.spectral_useful_frac": traced_run.useful_frac,
            "engine.kpath_s": totals["engine.kpath"],
            "engine.coef_s": totals["engine.coef"],
            "selection.search_s": totals["selection.search"],
            "selection.evals": tr.counts.get((r, "selection.evals"), 0),
            "crossval.refit_s": totals["crossval.refit"],
            "crossval.folds": counts["crossval.refit"],
            "crossval.search_s": totals["crossval.search"],
            "forward.fits": fits,
            "forward.fit_s": totals["forward.fit"] / fits if fits else 0.0,
            "fitting.glue_s": untraced - layer_sum,
            "model_io.save_s": totals["model_io.save"],
            "model_io.load_s": totals["model_io.load"],
            "model_io.bytes": self.samples["model_bytes"][-1],
            "tracing.untraced_s": untraced,
            "tracing.traced_s": traced,
            "tracing.overhead_s": traced - untraced,
        }
        for name, value in values.items():
            self.layers[name].append(value)


class _Clock:
    """Stand-in for a span when tracing is off: just the two timestamps."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        return False


def _identical(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()
