import numpy as np
import pytest

from ibrsmooth import DesignMatrix, KernelPredictor, KernelSmootherSpec, build_kernel_smoother
from ibrsmooth.smoothers import _fill
from ibrsmooth.tps import _radial_constant, _RadialRows


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_design(rng, n, d, scale=1.0):
    """A generic non-degenerate design for property-style tests."""
    x = rng.normal(size=(n, d)) * scale
    return DesignMatrix.from_array(x)


def gaussian_smoother(x, h=1.0):
    design = DesignMatrix.from_array(x)
    spec = KernelSmootherSpec(kind="gaussian", bandwidths=(h,) * design.d)
    return build_kernel_smoother(design, spec)


def direct_average(x_new, x, kind, h, beta):
    """The kernel average of ``beta``, (n,) or (n, c), by the predictor's
    direct route, which a coefficient block always takes."""
    pred = KernelPredictor(x, kind, np.asarray(h, float), beta.reshape(len(beta), -1)).predict(x_new)
    return pred.reshape(pred.shape[:1] + beta.shape[1:])


def radial_block(a, b, order):
    """eta(|a_i - b_j|) as one array, filled by the spline's blocked radial
    basis: a fit's E when a is b, else the rows a predictor builds."""
    out = np.empty((a.shape[0], b.shape[0]))
    _fill(_RadialRows(b, order, _radial_constant(order, a.shape[1])).blocks(a, out, distinct=a is b))
    return out


class LapackQ:
    """The reference Q of a tall n x w block's Householder QR, by scipy's
    LAPACK: dgeqrf's reflectors and dormqr passes over them."""

    def __init__(self, a):
        from scipy.linalg.lapack import dgeqrf

        self.qr, self.tau, _, info = dgeqrf(np.array(a, dtype=float, order="F"))
        assert info == 0
        self.r = np.triu(self.qr[: self.tau.size])

    def _pass(self, side, trans, c):
        from scipy.linalg.lapack import dormqr

        lwork = dormqr(side, trans, self.qr, self.tau, c, -1)[1][0]
        out, _, info = dormqr(side, trans, self.qr, self.tau, c, int(lwork))
        assert info == 0
        return out

    def _left(self, trans, x):
        x = np.asarray(x, dtype=float)
        c = np.zeros((self.qr.shape[0], 1 if x.ndim == 1 else x.shape[1]), order="F")
        if c.size == 0:
            return c.reshape((c.shape[0],) + x.shape[1:])
        c[: x.shape[0]] = x.reshape(x.shape[0], -1)
        return self._pass("L", trans, c).reshape((c.shape[0],) + x.shape[1:])

    def dot(self, x):
        """Q [x; 0] for x of shape (rows,) or (rows, c), rows <= n."""
        return self._left("N", x)

    def t_dot(self, x):
        """Q' x for x of shape (n,) or (n, c)."""
        return self._left("T", x)

    def right(self, x):
        """x Q for x of shape (rows, n)."""
        return self._pass("R", "N", np.array(x, dtype=float, order="F"))
