"""The Householder Q both smoother families share: products with Q and Q'
in compact WY form against LAPACK's dormqr passes over dgeqrf's reflectors."""

import numpy as np
import pytest

from ibrsmooth import tps
from ibrsmooth.smoothers import HouseholderQ

from conftest import LapackQ


def general_block(rng):
    return rng.normal(size=(40, 6))


def identity_block(rng):
    """Columns 2 and 3 are already zero below their diagonal, so their
    reflectors are exactly the identity (tau = 0)."""
    a = rng.normal(size=(40, 6))
    a[3:, :3] = 0.0
    a[4:, 3] = 0.0
    return a


def smallest_spline_block(rng):
    """The (m + 1) x m polynomial block of a two-column spline at n = m + 1."""
    order = tps.default_tps_order(2)
    m = tps.tps_null_dim(order, 2)
    return tps._poly_block(rng.uniform(size=(m + 1, 2)), tps.tps_powers(order, 2))


BLOCKS = [general_block, identity_block, smallest_spline_block]


def inputs(rng, rows):
    """A vector, a block and a block of no columns, each of ``rows`` rows."""
    return [rng.normal(size=rows), rng.normal(size=(rows, 3)), np.empty((rows, 0))]


@pytest.mark.parametrize("block", BLOCKS)
def test_products_match_lapack_passes(block):
    """dot on w and on n rows and t_dot on n rows, of vectors, blocks and
    blocks of no columns, equal dormqr's passes; no input is changed, and
    an identity reflector takes no division by zero."""
    rng = np.random.default_rng(5)
    a = block(rng)
    n, w = a.shape
    ref = LapackQ(a)
    with np.errstate(all="raise"):
        q = HouseholderQ(a)
    np.testing.assert_allclose(q.r, ref.r, rtol=0, atol=1e-14 * np.abs(ref.r).max())
    cases = [(q.dot, ref.dot, rows) for rows in (w, n)] + [(q.t_dot, ref.t_dot, n)]
    for got_fn, want_fn, rows in cases:
        for x in inputs(rng, rows):
            before = x.copy()
            with np.errstate(all="raise"):
                got = got_fn(x)
            want = want_fn(x)
            assert got.shape == want.shape == (n,) + x.shape[1:]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
            assert np.array_equal(x, before)


@pytest.mark.parametrize("block", BLOCKS)
def test_transpose_undoes_the_product(block):
    """Q'(Q x) = x and Q (Q' x) = x on full-length vectors and blocks, as
    the spline applies Q."""
    rng = np.random.default_rng(6)
    a = block(rng)
    q = HouseholderQ(a)
    for x in inputs(rng, a.shape[0]):
        np.testing.assert_allclose(q.t_dot(q.dot(x)), x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(q.dot(q.t_dot(x)), x, rtol=0, atol=1e-14)
