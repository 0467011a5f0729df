"""The scale harness, scripts/scale.py: its cells are the scale checks, and
the three cells that read no peak RSS run here in this process, so that a
change to the API they call fails this suite before the scale run."""

import importlib.util
from pathlib import Path

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
