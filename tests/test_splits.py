"""Split geometry for cross-validation plans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibrsmooth import CvPlan, make_splits


def fold_sets(splits):
    return [set(test.tolist()) for _, test in splits]


def test_consecutive_twelve_by_six():
    splits = make_splits(12, CvPlan(kfold=6, type="consecutive"))
    assert fold_sets(splits) == [
        {0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11},
    ]


def test_interleaved_twelve_by_six():
    splits = make_splits(12, CvPlan(kfold=6, type="interleaved"))
    assert fold_sets(splits) == [
        {0, 6}, {1, 7}, {2, 8}, {3, 9}, {4, 10}, {5, 11},
    ]


def test_train_is_complement_of_test():
    for plan in (
        CvPlan(kfold=6, type="consecutive"),
        CvPlan(kfold=6, type="interleaved"),
        CvPlan(kfold=4, type="random"),
    ):
        for train, test in make_splits(12, plan):
            assert sorted(np.concatenate([train, test]).tolist()) == list(range(12))
            assert set(train) & set(test) == set()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=60),
    k=st.integers(min_value=2, max_value=6),
    kind=st.sampled_from(["random", "consecutive", "interleaved"]),
    seed=st.integers(min_value=0, max_value=99),
)
def test_folds_partition_everything(n, k, kind, seed):
    splits = make_splits(n, CvPlan(kfold=k, type=kind, seed=seed))
    assert len(splits) == k
    covered = np.concatenate([test for _, test in splits])
    assert sorted(covered.tolist()) == list(range(n))


def test_timeseries_is_a_single_end_split():
    splits = make_splits(20, CvPlan(kfold=5, type="timeseries"))
    assert len(splits) == 1
    train, test = splits[0]
    assert train.tolist() == list(range(16))
    assert test.tolist() == list(range(16, 20))


def test_kfold_true_uses_test_size():
    # n // ntest folds
    splits = make_splits(30, CvPlan(kfold=True, ntest=6, type="consecutive"))
    assert len(splits) == 5


def test_data_splitting_draws_permutations():
    plan = CvPlan(npermut=7, ntest=4)
    splits = make_splits(20, plan)
    assert len(splits) == 7
    for train, test in splits:
        assert test.size == 4
        assert train.size == 16
        assert set(train) & set(test) == set()
    # not all test sets identical
    assert len({tuple(t.tolist()) for _, t in splits}) > 1


def test_data_splitting_respects_ntrain():
    splits = make_splits(20, CvPlan(npermut=3, ntrain=15))
    for train, test in splits:
        assert train.size == 15
        assert test.size == 5


def test_data_splitting_needs_random_layout():
    with pytest.raises(ValueError, match="random"):
        make_splits(20, CvPlan(npermut=3, type="consecutive"))


def test_same_seed_same_splits():
    a = make_splits(25, CvPlan(npermut=5, seed=42))
    b = make_splits(25, CvPlan(npermut=5, seed=42))
    c = make_splits(25, CvPlan(npermut=5, seed=43))
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))


def test_plan_validation():
    with pytest.raises(ValueError, match="split type"):
        CvPlan(type="bootstrap")
    with pytest.raises(ValueError, match="npermut"):
        CvPlan(npermut=0)
    with pytest.raises(ValueError, match="not both"):
        CvPlan(ntest=3, ntrain=10)
    with pytest.raises(ValueError, match="folds"):
        CvPlan(kfold=1)
    with pytest.raises(ValueError, match="test size"):
        make_splits(5, CvPlan(ntest=5))
    # counts that used to run truncated (kfold 2.7 as 2 folds, ntest 2.5 as
    # 2), fail late (npermut 2.5 in make_splits) or without a field name
    for field, value in [
        ("kfold", 2.7), ("kfold", math.nan), ("kfold", math.inf), ("kfold", "5"),
        ("ntest", 2.5), ("ntest", math.nan), ("ntrain", 7.5), ("ntrain", -math.inf),
        ("npermut", 2.5), ("npermut", math.nan),
        ("npermut", True), ("ntest", True), ("ntrain", False),
        # seeds that used to fail late in make_splits, or to mean 1
        ("seed", "a"), ("seed", 1.5), ("seed", None), ("seed", True),
    ]:
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            CvPlan(**{field: value})
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        CvPlan(seed=-1)
    # kfold's booleans keep their meaning; integral floats are read as counts
    assert CvPlan(kfold=True).kfold is True
    assert CvPlan(kfold=False).kfold is False
    plan = CvPlan(kfold=4.0, npermut=3.0, ntest=np.int64(5), seed=7.0)
    assert (plan.kfold, plan.npermut, plan.ntest, plan.seed) == (4, 3, 5, 7)
    assert len(make_splits(20, CvPlan(npermut=3.0))) == 3
