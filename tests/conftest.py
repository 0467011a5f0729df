import numpy as np
import pytest

from ibrsmooth import DesignMatrix, KernelSmootherSpec, build_kernel_smoother
from ibrsmooth.smoothers import _fill
from ibrsmooth.tps import _radial_blocks, _radial_constant


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


def radial_block(a, b, order):
    """eta(|a_i - b_j|) as one array, filled by the spline's blocked radial basis."""
    out = np.empty((a.shape[0], b.shape[0]))
    _fill(_radial_blocks(a, b, order, _radial_constant(order, a.shape[1]), out))
    return out
