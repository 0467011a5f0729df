"""Save and load fitted models.

The file is strict JSON (RFC 8259: a NaN scalar is written as null):
versioned, self-describing, and small (the training design plus one
coefficient vector per family, never an n x n matrix). Floats go through
repr round-tripping, so a loaded model predicts bit-for-bit like the
in-memory fit on the same platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fitting import IbrFit
from .kernel_smoother import KernelPredictor, KernelSmootherSpec
from .kernels import resolve_kernel
from .tps import TpsPredictor, TpsSpec, tps_powers

__all__ = ["FORMAT", "LoadedModel", "save_model", "load_model"]

FORMAT = "ibrsmooth-model/1"


@dataclass
class LoadedModel:
    """A deserialized fit: predictor plus the report-level metadata."""

    predictor: KernelPredictor | TpsPredictor
    names: list[str]
    response: str
    k: float
    initial_df: float
    final_df: float
    sigma: float
    criterion: str
    criterion_value: float
    base_description: str

    def predict(self, x_new: np.ndarray) -> np.ndarray:
        return self.predictor.predict(x_new)


def _floats(arr: np.ndarray) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _scalar(value: float) -> float | None:
    """A finite float, or None (JSON null, which strict parsers accept
    where they refuse a bare NaN token) for NaN or infinity."""
    value = float(value)
    return value if np.isfinite(value) else None


def save_model(fit: IbrFit, path: str | Path, response: str = "y") -> None:
    pred = fit.predictor
    if isinstance(pred, KernelPredictor):
        family = {
            "family": "kernel",
            "kernel": pred.kind,
            "bandwidths": _floats(pred.bandwidths),
            "beta": _floats(pred.beta),
        }
    else:
        family = {
            "family": "tps",
            "order": pred.order,
            "powers": [list(p) for p in pred.powers],
            "delta": _floats(pred.delta),
            "poly_coef": _floats(pred.poly_coef),
        }
    payload = {
        "format": FORMAT,
        "columns": list(fit.design.names),
        "response": response,
        # the predictor's own copy: fit.design.x may be the caller's array
        "x_train": [_floats(row) for row in pred.x_train],
        "k": _scalar(fit.k),
        "initial_df": _scalar(fit.initial_df),
        "final_df": _scalar(fit.final_df),
        "sigma": _scalar(fit.sigma),
        "criterion": fit.selection.criterion,
        "criterion_value": _scalar(fit.selection.value),
        "base_description": fit.base.describe(),
        "smoother": family,
    }
    Path(path).write_text(json.dumps(payload, allow_nan=False))


class _Fields:
    """Typed access to one JSON object of a model file, naming what is wrong."""

    def __init__(self, mapping, path: Path, prefix: str = ""):
        self.mapping, self.path, self.prefix = mapping, path, prefix

    def raw(self, key: str):
        if not isinstance(self.mapping, dict) or key not in self.mapping:
            raise ValueError(f"{self.path}: model file lacks {self.prefix + key!r}")
        return self.mapping[key]

    def text(self, key: str) -> str:
        value = self.raw(key)
        if not isinstance(value, str):
            raise ValueError(f"{self.path}: {self.prefix + key!r} must be a string, got {value!r}")
        return value

    def number(self, key: str) -> float:
        """A float, NaN for null: a fixed-k fit saves a null criterion value,
        and a fit with final df >= n a null sigma. A bare NaN token, which
        earlier files hold, reads as NaN too."""
        return float(self._numeric(key, ()))

    def integer(self, key: str) -> int:
        """A whole number; NaN, infinite or fractional values are refused."""
        value = self.number(key)
        if not value.is_integer():
            raise ValueError(
                f"{self.path}: {self.prefix + key!r} must be a whole number, got {value}"
            )
        return int(value)

    def array(self, key: str, shape: tuple) -> np.ndarray:
        """Finite float array of the given shape (None matches any length)."""
        arr = self._numeric(key, shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"{self.path}: {self.prefix + key!r} has non-finite entries")
        return arr

    def _numeric(self, key: str, shape: tuple) -> np.ndarray:
        value = self.raw(key)
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{self.path}: {self.prefix + key!r} is not numeric") from None
        if arr.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(arr.shape, shape)
        ):
            want = str(tuple("n" if w is None else w for w in shape)).replace("'", "")
            raise ValueError(
                f"{self.path}: {self.prefix + key!r} has shape {arr.shape}, expected {want}"
            )
        return arr

    def valid(self, key: str, check, *args):
        """check(*args), a ValueError it raises naming the field."""
        try:
            return check(*args)
        except ValueError as exc:
            raise ValueError(f"{self.path}: {self.prefix + key!r}: {exc}") from None


def load_model(path: str | Path) -> LoadedModel:
    """Read a model file, checking every field the predictor needs.

    A missing field, a non-numeric value, a NaN or infinite array entry, an
    array whose length does not match the training design, ``columns``
    that are not one string per column of ``x_train``, a text field that is
    not a string or a smoother field that its family refuses raises
    ``ValueError`` naming the field.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a model file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise ValueError(
            f"{path}: unsupported model format {found!r}; "
            f"this build reads {FORMAT!r}"
        )
    top = _Fields(payload, path)
    x_train = top.array("x_train", (None, None))
    n, d = x_train.shape
    names = top.raw("columns")
    if not (isinstance(names, list) and len(names) == d and all(isinstance(c, str) for c in names)):
        want = f"{d} strings, one per x_train column"
        raise ValueError(f"{path}: 'columns' must be {want}, got {names!r}")
    fam = _Fields(top.raw("smoother"), path, "smoother.")
    family = fam.raw("family")
    if family == "kernel":
        kind = fam.valid("kernel", resolve_kernel, fam.text("kernel"))
        bandwidths = fam.array("bandwidths", (d,))
        fam.valid("bandwidths", KernelSmootherSpec, kind, tuple(bandwidths))
        predictor: KernelPredictor | TpsPredictor = KernelPredictor(
            x_train=x_train,
            kind=kind,
            bandwidths=bandwidths,
            beta=fam.array("beta", (n,)),
        )
    elif family == "tps":
        order = fam.integer("order")
        m = fam.valid("order", lambda: TpsSpec(order=order, lam=0.0).null_dim(d))
        file_powers = fam.array("powers", (m, d))
        powers = tps_powers(order, d)
        if not np.array_equal(file_powers, powers):
            raise ValueError(
                f"{path}: 'smoother.powers' are not the monomials of degree "
                f"< {order} in {d} variables"
            )
        predictor = TpsPredictor(
            x_train=x_train,
            order=order,
            powers=powers,
            delta=fam.array("delta", (n,)),
            poly_coef=fam.array("poly_coef", (len(powers),)),
        )
    else:
        raise ValueError(f"{path}: unknown smoother family {family!r}")
    return LoadedModel(
        predictor=predictor,
        names=names,
        response=top.text("response"),
        k=top.number("k"),
        initial_df=top.number("initial_df"),
        final_df=top.number("final_df"),
        sigma=top.number("sigma"),
        criterion=top.text("criterion"),
        criterion_value=top.number("criterion_value"),
        base_description=top.text("base_description"),
    )
