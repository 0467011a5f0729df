"""Model persistence: bit-exact round trips and format checks."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ibrsmooth import SelectionPlan, SmootherConfig, fit, load_model, save_model

SRC = Path(__file__).resolve().parents[1] / "src"


def fitted_model(family="kernel", seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 3, size=(40, 2))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.2, 40)
    config = SmootherConfig(family=family, df=1.2)
    return x, fit(x, y, smoother=config, names=["left", "right"])


@pytest.mark.parametrize("family", ["kernel", "tps"])
def test_predictions_survive_bit_exact(tmp_path, family):
    x, result = fitted_model(family)
    path = tmp_path / "model.json"
    save_model(result, path, response="signal")
    loaded = load_model(path)
    rng = np.random.default_rng(99)
    x_new = rng.uniform(0, 3, size=(25, 2))
    assert np.array_equal(loaded.predict(x_new), result.predict(x_new))
    assert np.array_equal(loaded.predict(x), result.predict(x))


@pytest.mark.parametrize("family", ["kernel", "tps"])
def test_saved_model_is_the_fit_predictor_after_x_is_reused(tmp_path, family):
    """A design is the caller's float array, not a copy; the saved model is
    the fit's predictor, which holds its own copy of it."""
    x, result = fitted_model(family)
    x_new = np.random.default_rng(98).uniform(0, 3, size=(25, 2))
    before = result.predict(x_new)
    x[:] = x[::-1]
    path = tmp_path / "model.json"
    save_model(result, path)
    assert np.array_equal(load_model(path).predict(x_new), before)


def test_grid_route_predictions_survive_bit_exact(tmp_path):
    """n = 1100 on two columns admits prediction tables at the fit's 32 x 32
    Chebyshev nodes; the loaded model finds the same nodes and builds its
    own tables from the saved fields, with the same bits."""
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 3, size=(1100, 2))
    y = np.sin(2 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, 1100)
    result = fit(x, y, smoother=SmootherConfig(df=1.1))
    path = tmp_path / "model.json"
    save_model(result, path)
    loaded = load_model(path)
    # in the box, on its corner and outside it
    x_new = np.vstack([rng.uniform(-0.5, 3.5, size=(300, 2)), x.min(axis=0), x])
    assert np.array_equal(loaded.predict(x_new), result.predict(x_new))
    for model in (result, loaded):
        assert "table" in vars(model.predictor._tables)
        assert model.predictor._tables.sizes == (32, 32)
    # a batch's route depends on its row count, not on what came before:
    # a fresh load agrees with the fitted model that has built its tables
    for rows in (x[:400], x[:10]):
        assert np.array_equal(load_model(path).predict(rows), result.predict(rows))


def test_direct_route_predictions_survive_bit_exact(tmp_path):
    """Three columns of n = 330 (32^3 nodes exceed n, so no tables): the
    loaded model builds the expanded exponent's design block from the saved
    fields and predicts a batch with the fitted model's bits."""
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(330, 3))
    y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, 330)
    result = fit(x, y, smoother=SmootherConfig(df=1.1))
    path = tmp_path / "model.json"
    save_model(result, path)
    loaded = load_model(path)
    x_new = rng.uniform(-0.1, 1.1, size=(500, 3))
    assert np.array_equal(loaded.predict(x_new), result.predict(x_new))
    for model in (result, loaded):
        assert model.predictor._tables is None
        assert model.predictor._weights.augmented is not None


# run with the model file's path: "fit" fits a column at a span just
# inside p = 16 nodes' limit after one at a span where the tail rule flips
# with rounding, saves the second fit and its predictions; "load" loads that
# model and predicts the same rows
FLICKER_WORKFLOW = """
import sys

import numpy as np

import ibrsmooth as ib

mode, path = sys.argv[1:]
rng = np.random.default_rng(5)
x = rng.uniform(size=1500)
x[:2] = 0.0, 1.0
y = np.sin(6 * x) + rng.normal(0, 0.1, 1500)
x_new = rng.uniform(size=2000)
if mode == "fit":
    for ratio in (0.4731355, 0.473141):
        result = ib.fit(x, y, smoother=ib.SmootherConfig(bandwidths=(0.5 / ratio,)))
    ib.save_model(result, path)
    model = result
else:
    model = ib.load_model(path)
pred = model.predict(x_new)
np.save(f"{path}.{mode}.npy", pred)
print(model.predictor._tables.sizes)
"""


def test_a_fresh_process_predicts_with_the_fitting_process_nodes(tmp_path):
    """The nodes are a function of the design and the bandwidths: a fit made
    after another one whose span sits where the tail rule flips, loaded in a
    fresh interpreter, takes the same 16 nodes and gives the same bits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    path = str(tmp_path / "model.json")
    sizes = []
    for mode in ("fit", "load"):
        done = subprocess.run(
            [sys.executable, "-c", FLICKER_WORKFLOW, mode, path],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        sizes.append(done.stdout.strip())
    assert sizes == ["(16,)", "(16,)"]
    assert np.array_equal(np.load(f"{path}.fit.npy"), np.load(f"{path}.load.npy"))


@pytest.mark.parametrize("family", ["kernel", "tps"])
def test_one_dimensional_rows_follow_the_fit_columns(tmp_path, family):
    """A 1-D x_new is m points of a one-column fit, as fit reads a 1-D x,
    and one row of a two-column fit; in memory and loaded."""
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 3, 50)
    y = np.sin(x) + rng.normal(0, 0.1, 50)
    one = fit(x, y, smoother=SmootherConfig(family=family, df=1.2))
    _, two = fitted_model(family)
    points = np.array([0.1, 0.2, 0.3])
    for result, x_new, rows in ((one, points, points[:, None]), (two, points[:2], points[None, :2])):
        path = tmp_path / "model.json"
        save_model(result, path)
        for model in (result, load_model(path)):
            got = model.predict(x_new)
            assert got.shape == (len(rows),)
            assert np.array_equal(got, model.predict(rows))
    with pytest.raises(ValueError, match="expected 2 columns, got 3"):
        two.predict(points)


def test_metadata_round_trip(tmp_path):
    _, result = fitted_model()
    path = tmp_path / "model.json"
    save_model(result, path, response="signal")
    loaded = load_model(path)
    assert loaded.names == ["left", "right"]
    assert loaded.response == "signal"
    assert loaded.k == result.k
    assert loaded.criterion == result.criterion


def test_file_is_plain_json(tmp_path):
    _, result = fitted_model()
    path = tmp_path / "model.json"
    save_model(result, path)
    payload = json.loads(path.read_text())
    assert payload["format"].startswith("ibrsmooth-model/")
    assert "smoother" in payload


def test_unknown_format_version(tmp_path):
    _, result = fitted_model()
    path = tmp_path / "model.json"
    save_model(result, path)
    payload = json.loads(path.read_text())
    payload["format"] = "ibrsmooth-model/999"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="format"):
        load_model(path)


def test_not_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("definitely: not json {")
    with pytest.raises(ValueError, match="not a model file"):
        load_model(path)


def test_unknown_family(tmp_path):
    _, result = fitted_model()
    path = tmp_path / "model.json"
    save_model(result, path)
    payload = json.loads(path.read_text())
    payload["smoother"]["family"] = "wavelet"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="family"):
        load_model(path)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "nope.json")


def _damage(payload: dict, field: str, how) -> None:
    """Drop a field, truncate an array, (``how`` a list) set it to
    ``how[0]`` or (``how`` a float or any other string) set its first entry
    to ``how``; ``smoother.x`` names a nested field."""
    owner, key = payload, field
    if field.startswith("smoother."):
        owner, key = payload["smoother"], field.split(".", 1)[1]
    if how == "drop":
        del owner[key]
    elif how == "truncate":
        owner[key] = owner[key][:-1]
    elif isinstance(how, (float, str)):
        row = owner[key]
        while isinstance(row[0], list):
            row = row[0]
        row[0] = how
    else:
        owner[key] = how[0]


# (family, field, how): each file is one bad field away from a good one
BAD_FILES = [
    ("kernel", "k", "drop"),
    ("kernel", "x_train", "drop"),
    ("kernel", "smoother.beta", "drop"),
    ("kernel", "smoother.beta", "truncate"),
    ("kernel", "smoother.bandwidths", "truncate"),
    ("tps", "smoother.delta", "truncate"),
    ("tps", "smoother.poly_coef", "truncate"),
    # fields of the right shape that the family refuses; each used to load
    pytest.param("kernel", "smoother.bandwidths", [[-1.0, 0.2]], id="kernel-bandwidths-negative"),
    pytest.param("kernel", "smoother.kernel", ["no-such-kernel"], id="kernel-kernel-unknown"),
    pytest.param("tps", "smoother.order", [1], id="tps-order-1"),
    pytest.param("tps", "smoother.powers", [[[0, 0], [0, 1], [1, 0]]], id="tps-powers-swapped"),
    # a whole number is needed: NaN failed without a field name, and 2.7
    # loaded as order 2 (a power of 1.5 as 1)
    pytest.param("tps", "smoother.order", [math.nan], id="tps-order-nan"),
    pytest.param("tps", "smoother.order", [2.7], id="tps-order-fractional"),
    pytest.param("tps", "smoother.powers", [[[0, 0], [1.5, 0], [0, 1]]], id="tps-powers-fractional"),
    # names and labels: a number or null failed with a TypeError, a string
    # loaded as one name per character and a list as its repr
    pytest.param("kernel", "columns", [5], id="kernel-columns-number"),
    pytest.param("kernel", "columns", [None], id="kernel-columns-null"),
    pytest.param("kernel", "columns", ["ab"], id="kernel-columns-string"),
    pytest.param("kernel", "columns", [["left", 2]], id="kernel-columns-not-strings"),
    pytest.param("tps", "columns", [["left", "right", "extra"]], id="tps-columns-too-many"),
    pytest.param("kernel", "response", [[1, 2]], id="kernel-response-list"),
    pytest.param("tps", "criterion", [None], id="tps-criterion-null"),
    # json writes and reads NaN and Infinity; each of these predicted NaN everywhere
    pytest.param("kernel", "x_train", math.nan, id="kernel-x_train-nan"),
    pytest.param("kernel", "smoother.beta", math.inf, id="kernel-beta-inf"),
    pytest.param("tps", "smoother.delta", math.nan, id="tps-delta-nan"),
    pytest.param("tps", "smoother.poly_coef", -math.inf, id="tps-poly_coef-minus-inf"),
    pytest.param("kernel", "x_train", "a", id="kernel-x_train-string"),
]


def write_bad_model(tmp_path, family, field, how):
    _, result = fitted_model(family)
    path = tmp_path / "model.json"
    save_model(result, path)
    payload = json.loads(path.read_text())
    _damage(payload, field, how)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("family, field, how", BAD_FILES)
def test_bad_model_file_names_the_field_at_load(tmp_path, family, field, how):
    path = write_bad_model(tmp_path, family, field, how)
    with pytest.raises(ValueError, match=f"'{field}'"):
        load_model(path)


def test_a_string_in_an_array_is_not_numeric(tmp_path):
    path = write_bad_model(tmp_path, "kernel", "x_train", "a")
    with pytest.raises(ValueError, match=r"model\.json: 'x_train' is not numeric$"):
        load_model(path)


@pytest.mark.parametrize("family", ["kernel", "tps"])
def test_non_finite_prediction_rows_are_refused(tmp_path, family):
    _, result = fitted_model(family)
    path = tmp_path / "model.json"
    save_model(result, path)
    loaded = load_model(path)
    x_new = np.array([[1.0, 1.0], [2.0, np.inf], [np.nan, 0.5]])
    for model in (result, loaded):
        with pytest.raises(ValueError, match="row 1 has non-finite"):
            model.predict(x_new)
        with pytest.raises(ValueError, match="row 0 has non-finite"):
            model.predict([[np.nan, 0.5]])


@pytest.mark.parametrize("family", ["kernel", "tps"])
def test_prediction_rows_of_more_than_two_dimensions_are_refused(tmp_path, family):
    """A (5, 1, 2) array failed deep inside numpy, a broadcast error for a
    kernel fit and a matmul one for a spline; it is refused by shape."""
    _, result = fitted_model(family)
    path = tmp_path / "model.json"
    save_model(result, path)
    x_new = np.random.default_rng(7).uniform(0, 3, size=(5, 1, 2))
    for model in (result, load_model(path)):
        with pytest.raises(ValueError, match=r"1-D or 2-D array, got shape \(5, 1, 2\)"):
            model.predict(x_new)


def test_fixed_k_model_loads_with_nan_criterion(tmp_path):
    x, result = fitted_model()
    plan = SelectionPlan(mode="fixed", fixed_k=5)
    fixed = fit(x, result.y, smoother=SmootherConfig(df=1.2), plan=plan)
    path = tmp_path / "model.json"
    save_model(fixed, path)
    loaded = load_model(path)
    assert math.isnan(loaded.criterion_value)
    assert np.array_equal(loaded.predict(x), fixed.predict(x))


def _refuse_constant(token):
    raise ValueError(f"bare {token} token")


@pytest.mark.parametrize("family", ["kernel", "tps"])
def test_fixed_k_model_file_is_strict_json(tmp_path, family):
    """A fixed-k fit has no criterion value: the file holds null, which an
    RFC 8259 parser reads where it refuses a bare NaN token, and it loads
    as NaN. A file that holds the NaN token still loads."""
    x, result = fitted_model(family)
    plan = SelectionPlan(mode="fixed", fixed_k=5)
    fixed = fit(x, result.y, smoother=SmootherConfig(family=family), plan=plan)
    path = tmp_path / "model.json"
    save_model(fixed, path)
    text = path.read_text()
    payload = json.loads(text, parse_constant=_refuse_constant)
    assert payload["criterion_value"] is None
    assert payload["sigma"] == fixed.sigma
    old_style = tmp_path / "nan-token.json"
    old_style.write_text(text.replace('"criterion_value": null', '"criterion_value": NaN'))
    for saved in (path, old_style):
        loaded = load_model(saved)
        assert math.isnan(loaded.criterion_value)
        assert loaded.sigma == fixed.sigma
        assert np.array_equal(loaded.predict(x), fixed.predict(x))
