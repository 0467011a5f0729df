"""CSV loading, response splitting, prediction output."""

import numpy as np
import pytest

from ibrsmooth import load_csv, split_response
from ibrsmooth.data import Dataset, write_predictions


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_round_trip(tmp_path):
    path = write(tmp_path, "a,b,c\n1,2,3\n4.5,-2e-3,6\n")
    data = load_csv(path)
    assert data.names == ["a", "b", "c"]
    assert data.n == 2
    assert data.d == 3
    assert np.allclose(data.values, [[1, 2, 3], [4.5, -2e-3, 6]])


def test_empty_file(tmp_path):
    with pytest.raises(ValueError, match="header"):
        load_csv(write(tmp_path, ""))


def test_header_only(tmp_path):
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(write(tmp_path, "a,b\n"))


def test_blank_column_name(tmp_path):
    with pytest.raises(ValueError, match="blank"):
        load_csv(write(tmp_path, "a,,c\n1,2,3\n"))


def test_duplicate_column_names(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(write(tmp_path, "a,b,a\n1,2,3\n"))


def test_ragged_row_names_the_line(tmp_path):
    with pytest.raises(ValueError, match="row 3"):
        load_csv(write(tmp_path, "a,b\n1,2\n3\n"))


def test_bad_cell_names_row_and_column(tmp_path):
    with pytest.raises(ValueError, match="'b'"):
        load_csv(write(tmp_path, "a,b\n1,2\n3,oops\n"))


def test_missing_value_rejected(tmp_path):
    with pytest.raises(ValueError, match="missing value"):
        load_csv(write(tmp_path, "a,b\n1,\n"))


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    """A file saved as "CSV UTF-8" starts with a byte-order mark: it loads
    with the names and values of the same file without one."""
    text = "y,x1\n1.5,2\n-3,4e-1\n"
    plain = load_csv(write(tmp_path, text))
    path = tmp_path / "bom.csv"
    path.write_bytes(text.encode("utf-8-sig"))
    marked = load_csv(path)
    assert marked.names == plain.names == ["y", "x1"]
    assert np.array_equal(marked.values, plain.values)
    y, design, response = split_response(marked, "y")
    assert response == "y" and y.tolist() == [1.5, -3.0] and design.names == ["x1"]


def make_dataset():
    return Dataset(
        names=["resp", "u", "v"],
        values=np.array([[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]]),
    )


def test_split_by_name():
    y, design, response = split_response(make_dataset(), "resp")
    assert response == "resp"
    assert y.tolist() == [1.0, 2.0]
    assert design.names == ["u", "v"]


def test_split_by_position():
    y, design, response = split_response(make_dataset(), "2")
    assert response == "u"
    assert y.tolist() == [10.0, 20.0]
    assert design.names == ["resp", "v"]


def test_split_unknown_column():
    with pytest.raises(ValueError, match="ozone"):
        split_response(make_dataset(), "ozone")


def test_split_needs_leftover_covariates():
    data = Dataset(names=["only"], values=np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError, match="covariate"):
        split_response(data, "only")


def test_write_predictions_round_trip(tmp_path):
    path = tmp_path / "preds.csv"
    values = np.array([1.5, -0.25, 3.0000000001])
    write_predictions(path, values)
    back = load_csv(path)
    assert back.names == ["prediction"]
    assert np.array_equal(back.values[:, 0], values)  # repr round-trip, bitwise
