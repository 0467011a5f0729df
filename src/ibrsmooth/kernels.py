"""Univariate kernel functions used to build product-kernel smoothers.

Each kernel is a symmetric density on the real line. Only the Gaussian and
the triangle kernel are positive definite; the remaining ones can push
smoothing-matrix eigenvalues outside [0, 1] and are kept for classroom
comparisons only.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KERNEL_CODES",
    "KERNEL_NAMES",
    "POSITIVE_DEFINITE",
    "kernel_slopes",
    "kernel_values",
    "resolve_kernel",
    "is_positive_definite",
]

# short CLI codes -> canonical names
KERNEL_CODES = {
    "g": "gaussian",
    "t": "triangle",
    "q": "quartic",
    "e": "epanechnikov",
    "u": "uniform",
}

KERNEL_NAMES = tuple(KERNEL_CODES.values())

# kernels whose Gram matrix is positive semi-definite for any design
POSITIVE_DEFINITE = frozenset({"gaussian", "triangle"})

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def resolve_kernel(kind: str) -> str:
    """Map a one-letter code or full name to the canonical kernel name."""
    name = KERNEL_CODES.get(kind, kind)
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {kind!r}; expected one of "
            f"{sorted(KERNEL_CODES)} or {sorted(KERNEL_NAMES)}"
        )
    return name


def is_positive_definite(kind: str) -> bool:
    return resolve_kernel(kind) in POSITIVE_DEFINITE


def kernel_values(u: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the kernel at an array of scaled distances.

    Args:
        u: array of (x - x') / h values, any shape.
        kind: kernel code or name.
        out: array of ``u``'s shape to write the weights into; it may be
            ``u`` itself. A new array when None.

    Returns:
        Array of kernel weights, same shape as ``u``.
    """
    name = resolve_kernel(kind)
    u = np.asarray(u, dtype=float)
    if name == "gaussian":
        # -0.5 * (u * u) has the same bits as (-0.5 * u) * u: scaling by
        # a power of two is exact
        if out is None:
            out = np.empty_like(u)
        np.multiply(u, u, out=out)
        out *= -0.5
        np.exp(out, out=out)
        out /= _SQRT_2PI
        return out
    a = np.abs(u)
    inside = a <= 1.0
    if name == "triangle":
        values = np.where(inside, 1.0 - a, 0.0)
    elif name == "quartic":
        t = 1.0 - u * u
        values = np.where(inside, 0.9375 * t * t, 0.0)
    elif name == "epanechnikov":
        values = np.where(inside, 0.75 * (1.0 - u * u), 0.0)
    else:
        # uniform, closed support so K(1) = 1/2
        values = np.where(inside, 0.5, 0.0)
    if out is None:
        return values
    out[...] = values
    return out


def kernel_slopes(u: np.ndarray, kind: str) -> np.ndarray:
    """-u K'(u) at an array of scaled distances u = (x - x') / h.

    This is d K((x - x') / h) / d log h, so summing it over a row gives the
    slope of a kernel row sum in log bandwidth. The compact kernels use the
    one-sided derivative inside the closed support; the uniform kernel is
    flat there, so its slope is zero.
    """
    name = resolve_kernel(kind)
    u = np.asarray(u, dtype=float)
    u2 = u * u
    if name == "gaussian":
        return u2 * kernel_values(u, name)
    inside = np.abs(u) <= 1.0
    if name == "triangle":
        return np.where(inside, np.abs(u), 0.0)
    if name == "quartic":
        return np.where(inside, 3.75 * u2 * (1.0 - u2), 0.0)
    if name == "epanechnikov":
        return np.where(inside, 1.5 * u2, 0.0)
    return np.zeros_like(u)
