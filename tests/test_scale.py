"""The scale harness, scripts/scale.py: its cells are the scale checks, and
the three cells that read no peak RSS run here in this process, so that a
change to the API they call fails this suite before the scale run."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ibrsmooth import crossval, selection

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale.py"
_spec = importlib.util.spec_from_file_location("scale", SCRIPT)
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)


def score_methods() -> dict:
    return {
        (cls.__name__, name): vars(cls)[name]
        for cls in (selection._CriterionScore, crossval._CvScore)
        for name in ("batch", "batch_slopes")
    }


def test_cells_are_the_eight_scale_checks():
    assert list(scale.CELLS) == [
        "gaussian_n20000",
        "gaussian3_factor_n6000",
        "gaussian3_direct_predict",
        "tps_fit_n2000",
        "tps_predict_100k",
        "tps_exhaustive_search",
        "tps_df_ceiling_search",
        "kmax_1e15_searches",
    ]


@pytest.mark.parametrize("name", ["tps_exhaustive_search", "tps_df_ceiling_search", "kmax_1e15_searches"])
def test_search_cells_pass_in_process_and_leave_the_scores_unpatched(name, capsys):
    before = score_methods()
    scale.CELLS[name]()
    assert "k = " in capsys.readouterr().out
    assert score_methods() == before


def test_kmax_cell_restores_the_scores_when_a_fit_fails(monkeypatch):
    before = score_methods()

    def failing_fit(*args, **kwargs):
        raise RuntimeError("fit failed")

    monkeypatch.setattr(scale.ib, "fit", failing_fit)
    with pytest.raises(RuntimeError, match="fit failed"):
        scale.kmax_1e15_searches()
    assert score_methods() == before


def test_grid_is_both_families_at_four_sizes_and_two_widths():
    assert len(scale.GRID) == 16
    assert set(scale.GRID.values()) == {
        (family, n, d) for family in ("kernel", "tps") for n in (200, 500, 1000, 2000) for d in (2, 5)
    }


def check_record(record: dict, family: str, n: int, d: int) -> None:
    assert (record["family"], record["n"], record["d"]) == (family, n, d)
    assert "skipped" not in record
    fit_s = record["fit_s"]
    assert fit_s["runs"] == scale.FIT_REPEATS
    assert 0 < fit_s["q1"] <= fit_s["median"] <= fit_s["q3"]
    assert 0 < record["first_fit_s"] <= scale.FIRST_FIT_LIMIT_S
    assert record["host_probe_s"] > 0
    assert record["k"] >= 1 and 0 < record["final_df"] < n
    assert isinstance(record["k_at_kmax"], bool)
    assert np.isfinite(record["test_mae"]) and record["test_mae"] > 0
    assert record["spectrum"]["route"] in ("factor", "dense", "spline")
    assert 0 < record["spectrum"]["rank"] <= n
    spectrum = record["spectrum"]
    # n eps lambda_max, with lambda_max 1 to rounding for both families
    assert 0 < spectrum["floor"] <= 2 * n * np.finfo(float).eps
    if spectrum["rank"] < n:
        assert 0 <= spectrum["tail_trace"] <= n * spectrum["floor"]
    else:
        assert spectrum["tail_trace"] == 0
    assert record["predict"]["rows"] == scale.PREDICT_ROWS
    assert record["predict"]["route"] in (
        "tables", "direct, expanded", "direct, subtraction", "radial, expanded", "radial, subtraction"
    )
    assert record["predict"]["rows_per_s"] > 0
    assert record["peak_rss_mb"] > 0


def test_small_grid_cell_runs_in_process_and_records_every_field():
    record = scale.grid_cell("kernel", 200, 2)
    check_record(record, "kernel", 200, 2)
    assert record["spectrum"]["route"] == "factor"
    assert record["spectrum"]["floor"] == pytest.approx(200 * np.finfo(float).eps, rel=1e-6)
    assert record["spectrum"]["tail_trace"] > 0


def test_grid_cell_over_the_first_fit_limit_is_skipped(monkeypatch):
    monkeypatch.setattr(scale, "FIRST_FIT_LIMIT_S", 0.0)
    record = scale.grid_cell("tps", 200, 2)
    assert record["skipped"].startswith("first fit took") and "fit_s" not in record


def test_grid_writes_its_label_file_from_child_processes(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(scale, "GRID", {"tps_n200_d5": ("tps", 200, 5)})
    monkeypatch.setattr(scale, "ROOT", tmp_path)
    assert scale.main(["--grid", "unit"]) == 0
    report = json.loads((tmp_path / "BENCH_unit.json").read_text())
    assert report["label"] == "unit"
    assert report["env"]["blas_threads"] == dict.fromkeys(scale.BLAS_THREADS, "1")
    assert {"python", "numpy", "scipy"} <= set(report["env"])
    [record] = report["cells"]
    check_record(record, "tps", 200, 5)
    assert record["predict"]["route"] == "radial, subtraction"


@pytest.mark.parametrize("argv", [["--grid", "../up"], ["--grid", "x", "kernel_n200_d2"]])
def test_bad_grid_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        scale.main(argv)
    assert exc.value.code == 2
