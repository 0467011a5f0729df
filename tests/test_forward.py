"""Greedy forward covariate selection."""

import numpy as np
import pytest

from ibrsmooth import CvPlan, DesignMatrix, SelectionPlan, SmootherConfig, fit, forward_select
from ibrsmooth import fitting
from ibrsmooth.selection import criterion_value
from ibrsmooth.forward import ForwardStageError, _column_bandwidths


def make_data(seed, n=60, relevant_strength=2.0):
    """Three covariates, only the first drives the response."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 3))
    y = relevant_strength * np.sin(3 * x[:, 0]) + rng.normal(0, 0.3, n)
    return x, y


def test_relevant_variable_selected_first():
    x, y = make_data(0)
    result = forward_select(x, y)
    assert result.order[0] == 0
    assert result.selected_names[0] == "x1"


def test_scores_matrix_layout():
    x, y = make_data(1)
    result = forward_select(x, y)
    stages = len(result.order)
    assert result.scores.shape == (stages, 3)
    for s, j in enumerate(result.order):
        assert np.isfinite(result.scores[s, j])
        assert result.scores[s, j] == result.best_values[s]
        # already-selected columns are marked inf in later stages
        for later in range(s + 1, stages):
            assert np.isinf(result.scores[later, j])


def test_best_values_strictly_improve():
    x, y = make_data(2)
    result = forward_select(x, y)
    assert all(a > b for a, b in zip(result.best_values, result.best_values[1:]))


def test_pure_noise_extras_usually_dropped():
    """With a strong single signal the walk should stop before taking all
    three columns most of the time; check a seed where it does."""
    x, y = make_data(3, relevant_strength=3.0)
    result = forward_select(x, y)
    assert 0 in result.order
    assert len(result.order) < 3


def test_varcrit_defaults_to_plan_criterion():
    x, y = make_data(4)
    result = forward_select(x, y, plan=SelectionPlan(criterion="bic"))
    assert result.varcrit == "bic"
    result = forward_select(x, y, varcrit="aic")
    assert result.varcrit == "aic"


def test_varcrit_must_be_spectral():
    x, y = make_data(5)
    with pytest.raises(ValueError, match="varcrit"):
        forward_select(x, y, varcrit="rmse")


def test_failed_candidates_score_inf():
    # a constant column cannot be bandwidth-calibrated; it must be scored
    # inf (with a warning) rather than break the walk
    x, y = make_data(6)
    x[:, 2] = 1.0
    with pytest.warns(UserWarning, match="failed"):
        result = forward_select(x, y)
    assert 2 not in result.order
    assert np.isinf(result.scores[:, 2]).all()


def test_all_candidates_failing_is_an_error():
    rng = np.random.default_rng(7)
    x = np.ones((20, 2))  # both columns constant
    y = rng.normal(size=20)
    with pytest.warns(UserWarning, match="failed"):
        with pytest.raises(ForwardStageError, match="single-covariate"):
            forward_select(x, y)


def test_tps_family_also_walks():
    x, y = make_data(8)
    result = forward_select(
        x, y, smoother=SmootherConfig(family="tps", df=1.2)
    )
    assert result.order[0] == 0


def test_kernel_walk_calibrates_each_column_once(monkeypatch):
    """A per-column kernel bandwidth depends on its column alone: the walk
    calibrates each column once, and every candidate scores exactly what
    its own fit, calibration included, scores."""
    x, y = make_data(1)
    y += x[:, 1]  # a second signal, so the walk has a second stage
    names = ["x1", "x2", "x3"]
    calls = []
    calibrate = fitting.calibrate_bandwidth

    def counted(*args, **kwargs):
        calls.append(kwargs["name"])
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(fitting, "calibrate_bandwidth", counted)
    result = forward_select(x, y)
    assert sorted(calls) == names
    assert result.order[:2] == [0, 1]
    for stage in range(2):
        selected = result.order[:stage]
        for j in set(range(3)) - set(selected):
            cols = selected + [j]
            alone = fit(DesignMatrix(x[:, cols], [names[c] for c in cols]), y)
            gcv = criterion_value("gcv", alone.n, alone.rss, alone.final_df, alone.fitted_energy)
            assert gcv == result.scores[stage, j]


@pytest.mark.parametrize(
    "smoother, plan",
    [
        (SmootherConfig(family="tps"), SelectionPlan()),
        (SmootherConfig(dftotal=True), SelectionPlan()),
        (SmootherConfig(bandwidths=(0.5, 0.5, 0.5)), SelectionPlan()),
        (SmootherConfig(), SelectionPlan(criterion="rmse", cv=CvPlan(kfold=3))),
    ],
)
def test_walks_that_calibrate_per_candidate(smoother, plan):
    # no shared bandwidths: another family, a total-df target, explicit
    # bandwidths, or CV folds that recalibrate on their own rows
    design = DesignMatrix.from_array(make_data(9)[0])
    assert _column_bandwidths(design, smoother, plan) is None
