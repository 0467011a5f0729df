"""Smoke tests of the benchmark runner: every workload, metric name and check.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import ibrsmooth as ib  # noqa: E402
import pipelines  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    out = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--smoke",
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    assert detail["provenance"]["blas_threads"] >= 1
    if not trace:
        assert len(detail["quality"]) == detail["datasets"]
        for q in detail["quality"]:
            assert {"seed", "k", "final_df", "k_at_kmax"} <= set(q)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "kernel_fit", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout


@pytest.fixture(scope="module")
def tiny():
    wl = pipelines.WORKLOADS["kernel_fit"]
    ds = wl.data(seed=5, smoke=True)[0]
    return ds, pipelines.train(wl, ds)


def test_fit_checks_pass_on_a_real_fit(tiny):
    ds, trained = tiny
    assert pipelines.check_fit(trained.model, ds.y) == []
    same = pipelines.check_same_answer(trained, dataclasses.replace(trained), "x")
    assert same == {"forward_select": [], "fit": []}


def test_fit_checks_flag_wrong_outputs(tiny):
    ds, trained = tiny
    model = dataclasses.replace(trained.model, rss=trained.model.rss * (1 + 1e-6))
    assert len(pipelines.check_fit(model, ds.y)) == 1
    shrunk = trained.model.fitted + 1e-3 * (ds.y - trained.model.fitted)
    model = dataclasses.replace(trained.model, fitted=shrunk)
    assert len(pipelines.check_fit(model, ds.y)) == 2
    moved = dataclasses.replace(trained, k=np.nextafter(trained.k, np.inf))
    assert pipelines.check_same_answer(trained, moved, "x")["fit"]
    walked = dataclasses.replace(trained, cols=[1, 0])
    assert pipelines.check_same_answer(trained, walked, "x")["forward_select"]


def test_traced_calls_span_every_layer_and_put_them_back(tiny):
    ds, trained = tiny
    fitting_before = dict(vars(ib.fitting))
    spectral_before = ib.KernelSmoother.spectral, ib.TpsSmoother.spectral
    tr = pipelines.Tracer()
    traced = pipelines.train_traced(tr, pipelines.WORKLOADS["kernel_fit"], ds)
    assert (traced.k, traced.final_df) == (trained.k, trained.final_df)
    assert 0.0 < traced.useful_frac <= 1.0
    assert {s.name for s in tr.spans} == {
        "fitting.train",
        "kernel_smoother.calibrate",
        "kernel_smoother.build",
        "smoothers.spectral",
        "engine.kpath",
        "engine.coef",
        "selection.search",
    }
    assert dict(vars(ib.fitting)) == fitting_before
    assert (ib.KernelSmoother.spectral, ib.TpsSmoother.spectral) == spectral_before
    assert tr.kpath is None
