"""Closed-form values and shape properties of the univariate kernels."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ibrsmooth.kernels import (
    KERNEL_CODES,
    POSITIVE_DEFINITE,
    is_positive_definite,
    kernel_slopes,
    kernel_values,
    resolve_kernel,
)

AT_ZERO = {
    "gaussian": 1.0 / np.sqrt(2.0 * np.pi),
    "triangle": 1.0,
    "quartic": 15.0 / 16.0,
    "epanechnikov": 0.75,
    "uniform": 0.5,
}


@pytest.mark.parametrize("name,expected", sorted(AT_ZERO.items()))
def test_value_at_zero(name, expected):
    assert float(kernel_values(0.0, name)) == pytest.approx(expected, abs=1e-15)


def test_known_offsets():
    # hand-evaluated: phi(1), (1 - 0.5), 15/16 * 0.75^2, 0.75 * 0.75
    assert float(kernel_values(1.0, "gaussian")) == pytest.approx(np.exp(-0.5) / np.sqrt(2 * np.pi))
    assert float(kernel_values(0.5, "triangle")) == pytest.approx(0.5)
    assert float(kernel_values(0.5, "quartic")) == pytest.approx(15.0 / 16.0 * 0.5625)
    assert float(kernel_values(0.5, "epanechnikov")) == pytest.approx(0.5625)
    assert float(kernel_values(0.5, "uniform")) == 0.5


@pytest.mark.parametrize("name", ["triangle", "quartic", "epanechnikov", "uniform"])
def test_compact_support(name):
    u = np.array([-2.0, -1.5, 1.001, 3.0])
    assert np.all(kernel_values(u, name) == 0.0)


def test_uniform_closed_at_boundary():
    assert float(kernel_values(1.0, "uniform")) == 0.5
    assert float(kernel_values(-1.0, "uniform")) == 0.5


def test_resolve_codes():
    assert resolve_kernel("g") == "gaussian"
    assert resolve_kernel("t") == "triangle"
    assert resolve_kernel("q") == "quartic"
    assert resolve_kernel("e") == "epanechnikov"
    assert resolve_kernel("u") == "uniform"
    assert resolve_kernel("gaussian") == "gaussian"
    assert set(KERNEL_CODES) == {"g", "t", "q", "e", "u"}


def test_resolve_rejects_unknown():
    with pytest.raises(ValueError, match="kernel"):
        resolve_kernel("cosine")


def test_positive_definite_flags():
    assert POSITIVE_DEFINITE == {"gaussian", "triangle"}
    assert is_positive_definite("gaussian")
    assert is_positive_definite("t")
    assert not is_positive_definite("quartic")
    assert not is_positive_definite("epanechnikov")
    assert not is_positive_definite("uniform")


@given(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.sampled_from(sorted(AT_ZERO)),
)
def test_symmetric_nonnegative_bounded(u, name):
    v = float(kernel_values(u, name))
    assert v >= 0.0
    assert v <= AT_ZERO[name] + 1e-15
    assert v == float(kernel_values(-u, name))


@pytest.mark.parametrize("name", sorted(AT_ZERO))
def test_in_place_evaluation_matches(name):
    u = np.linspace(-1.7, 1.7, 42).reshape(3, 14)
    expected = kernel_values(u, name)
    buf = u.copy()
    assert kernel_values(buf, name, out=buf) is buf
    assert np.array_equal(buf, expected)


@pytest.mark.parametrize("name", sorted(AT_ZERO))
def test_slopes_are_log_bandwidth_derivatives(name):
    """kernel_slopes(g / h) = d K(g / h) / d log h, checked by central
    differences away from the kinks at |u| = 0 and 1."""
    u = np.array([-2.5, -0.8, -0.45, -0.1, 0.2, 0.6, 0.93, 1.4])
    eps = 1e-6
    numeric = (kernel_values(u * np.exp(-eps), name) - kernel_values(u * np.exp(eps), name)) / (2 * eps)
    assert np.allclose(kernel_slopes(u, name), numeric, atol=1e-8)
