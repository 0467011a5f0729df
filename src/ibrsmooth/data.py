"""CSV loading with strict numeric validation."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .smoothers import DesignMatrix

__all__ = ["Dataset", "load_csv", "split_response", "write_predictions"]


@dataclass
class Dataset:
    """A named numeric table, rows in file order."""

    names: list[str]
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def load_csv(path: str | Path) -> Dataset:
    """Read a comma-separated numeric table with a header row.

    The file is read as UTF-8 whatever the locale, and a byte-order mark
    (as spreadsheets write "CSV UTF-8") is dropped, not kept in the first
    column's name. Decimal separator is the dot regardless of locale.
    Missing cells, ragged rows, non-numeric entries and duplicate header
    names are all hard errors naming the offending row.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        names = [h.strip() for h in header]
        if any(not n for n in names):
            raise ValueError(f"{path}: blank column name in header")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"{path}: duplicate column names {dupes}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(names)}"
                )
            parsed = []
            for name, cell in zip(names, row):
                cell = cell.strip()
                if not cell:
                    raise ValueError(f"{path}: missing value in row {lineno}, column {name!r}")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} in row {lineno}, "
                        f"column {name!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(names=names, values=np.asarray(rows, dtype=float))


def split_response(data: Dataset, response: str | int) -> tuple[np.ndarray, DesignMatrix, str]:
    """Separate the response column from the covariates.

    ``response`` is a column name or a 1-based column index.
    """
    if isinstance(response, str) and response.strip().lstrip("-").isdigit():
        response = int(response)
    if isinstance(response, int):
        if not 1 <= response <= data.d:
            raise ValueError(
                f"response index {response} out of range 1..{data.d}"
            )
        col = response - 1
    else:
        try:
            col = data.names.index(response)
        except ValueError:
            raise ValueError(
                f"response column {response!r} not found; columns are {data.names}"
            ) from None
    if data.d < 2:
        raise ValueError("need at least one covariate besides the response")
    y = data.values[:, col]
    keep = [j for j in range(data.d) if j != col]
    design = DesignMatrix(data.values[:, keep], [data.names[j] for j in keep])
    return y, design, data.names[col]


def write_predictions(path: str | Path, values: np.ndarray) -> None:
    """One prediction per input row, written as a single-column CSV."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["prediction"])
        for v in np.asarray(values).ravel():
            writer.writerow([repr(float(v))])
