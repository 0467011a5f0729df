"""Chebyshev nodes on [-1, 1] for Gaussian node kernels.

A Gaussian kernel between points of [-1, 1], on a column spanning r
bandwidths per half range, is interpolated at p Chebyshev points of the
first kind: K ~ L K_c L', K_c the p x p node kernel (:func:`_node_kernel`)
and L' the node-major barycentric rows (:func:`_chebyshev_factor`). The
Khatri-Rao product of such rows carries a product kernel over several
columns (Chebyshev-interpolation FMM, Fong & Darve 2009): :func:`_node_table`
takes weights at points onto the nodes, :func:`_interpolate` a table back
to points and :func:`_slope_tables` adds the slope in log bandwidth.

A column takes the smallest p whose limit in ``_NODE_LIMITS`` its ratio r
keeps within (:func:`_accepted_nodes`). Each limit is the lower end, which
passes the tail rule, of 24 halvings of [limit at p / 2, p] ([0, 16] at
16). The rule asks that the last two rows and columns of the node kernel's
2-D Chebyshev coefficients lie below 1e-15 of the largest (Trefethen,
Approximation Theory and Approximation Practice), so the interpolated
kernel is the kernel to rounding. Near a limit the rule flips with the
rounding of ``exp``, ``cos`` and the BLAS, so the limits are literals: node
counts depend on r and n alone, on any machine and whatever the process
ran before. tests/test_kernel_smoother.py re-derives each one bit for bit.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .smoothers import _PREDICT_BLOCK_BYTES

# node sums and interpolated rows are formed over blocks of rows whose
# widest temporary holds about this many floats
_GRID_BLOCK = _PREDICT_BLOCK_BYTES // 8
_FACTOR_GATE = 4
# the widest ratio each node count serves (tail rule, module docstring)
_NODE_LIMITS = {
    16: 0.47315406799316406,
    32: 2.4279511985503177,
    64: 6.8428858754037805,
    128: 15.436885448117042,
    256: 31.79919654142983,
    512: 63.837282487663686,
    1024: 127.92933610025742,
    2048: 256.2345723082582,
}


def _accepted_nodes(ratio: float, n: int):
    """(p, K_c): the smallest node count whose limit a column spanning
    ``ratio`` bandwidths per half range keeps within, with its node kernel;
    None past the last limit or once ``_FACTOR_GATE`` p exceeds n, where the
    exact form is as cheap. A constant column (ratio 0), which scales every
    entry by K(0), is one node, K_c = 1: exact, and a factor's P does not
    grow."""
    if ratio == 0.0:
        return 1, np.ones((1, 1))
    for p, limit in _NODE_LIMITS.items():
        if _FACTOR_GATE * p > n:
            return None
        if ratio <= limit:
            return p, _node_kernel(p, ratio)
    return None


def _affordable_nodes(ratios, n: int):
    """The (p_j, K_cj) of every column (:func:`_accepted_nodes`), or None at
    the first column with none or that takes prod p_j past n (cost rule)."""
    nodes, size = [], 1
    for found in (_accepted_nodes(ratio, n) for ratio in ratios):
        if found is None or found[0] * size > n:
            return None
        nodes.append(found)
        size *= found[0]
    return nodes


@cache
def _node_gaps(p: int) -> np.ndarray:
    """(z_a - z_b)^2 between p Chebyshev nodes z. Cached, so read-only: a
    process keeps sum p^2 floats over the p it tried, p <= n / 4, at most
    n^2 / 12 for its largest n against the 2 n^2 of the exact form."""
    nodes = _chebyshev_nodes(p)[0]
    gaps = np.subtract.outer(nodes, nodes)
    gaps *= gaps
    gaps.flags.writeable = False
    return gaps


def _node_kernel(p: int, ratio: float) -> np.ndarray:
    """exp(-(z_a - z_b)^2 ratio^2 / 2) between p Chebyshev nodes z."""
    return np.exp(_node_gaps(p) * (-0.5 * ratio * ratio))


@cache
def _chebyshev_nodes(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p Chebyshev points of the first kind on [-1, 1],
    z_k = cos((2k + 1) pi / 2p), and their barycentric weights
    (-1)^k sin((2k + 1) pi / 2p) (Berrut & Trefethen 2004). Cached, so
    both arrays are read-only."""
    angles = (2 * np.arange(p) + 1) * (0.5 * np.pi / p)
    weights = np.sin(angles)
    weights[1::2] *= -1.0
    nodes = np.cos(angles)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _chebyshev_terms(t: np.ndarray, p: int) -> np.ndarray:
    """The node-major p x m barycentric terms w_k / (t_i - z_k) of p
    Chebyshev nodes z at the m points t, infinite where a point falls on a
    node (a division by zero the caller lets pass).

    One p x m buffer: a broadcast fill of the nodes, t subtracted as a row
    broadcast, then w divided by it in place. The weights enter the
    division as a stride-0 column, which in that loop alone takes about
    1.3 times a contiguous operand (p = 32, m = 500 to 3000); a second
    p x m array of broadcast weights costs more in its fill and its pages
    (p = 32, m = 1500: 317 against 95 us per call).
    """
    nodes, w = _chebyshev_nodes(p)
    terms = np.empty((p, t.size))
    terms[...] = nodes[:, None]
    np.subtract(t, terms, out=terms)
    return np.divide(w[:, None], terms, out=terms)


def _chebyshev_factor(t: np.ndarray, p: int) -> np.ndarray:
    """The node-major p x m matrix that interpolates from p Chebyshev nodes
    to the m points t: entry (k, i) is the Lagrange basis at t_i in
    barycentric form, l_k(t_i) = (w_k / (t_i - z_k)) / sum_m (w_m / (t_i - z_m)),
    the terms of :func:`_chebyshev_terms` over their sum, and a point that
    falls on a node gets that node's unit column."""
    with np.errstate(divide="ignore"):
        left = _chebyshev_terms(t, p)
    sums = left.sum(axis=0)
    # a column with an infinite weight sits on a node
    on_node = ~np.isfinite(sums)
    sums[on_node] = 1.0
    # one division per point, not per entry
    left *= np.reciprocal(sums, out=sums)
    if on_node.any():
        left[:, on_node] = t[on_node] == _chebyshev_nodes(p)[0][:, None]
    return left


def _khatri_rao(blocks) -> np.ndarray:
    """Column-wise Kronecker product of p_j x m blocks: prod p_j x m, with
    the last block's index running fastest."""
    out = blocks[0]
    for block in blocks[1:]:
        out = (out[:, None, :] * block[None, :, :]).reshape(-1, out.shape[1])
    return out


def _node_table(lefts, weights: np.ndarray | None = None, kernels=()) -> np.ndarray:
    """H'W as a C-ordered ([c,] p_1, ..., p_d) array, with H' the Khatri-Rao
    product of the node-major p_j x n rows ``lefts`` and W' the c x n block
    ``weights`` (the vector 1 where None), then each of ``kernels`` applied
    along its own node axis (mode products, Kolda & Bader 2009).

    With interpolation rows L_j, both L_j and K_cj as ``kernels`` and
    the rows K_cj L_j alone give T = (K_c1 x ... x K_cd) H'W. H'W is
    R L_d' with R = KR(W', L_1, ..., L_{d-1}): one GEMM per block of
    points in which R holds about ``_GRID_BLOCK`` floats, or over all n
    when R is one operand and no product, so O(n c prod p_j) flops with no
    n x prod p_j array. One column and the vector 1 take L_1 1 as sums.
    """
    *rest, last = lefts
    factors = rest if weights is None else [weights, *rest]
    n = last.shape[1]
    if factors:
        width = math.prod(f.shape[0] for f in factors)
        step = n if len(factors) == 1 else max(1, _GRID_BLOCK // width)
        blocks = (slice(start, start + step) for start in range(0, n, step))
        table = sum(_khatri_rao([f[:, cols] for f in factors]) @ last[:, cols].T for cols in blocks)
    else:
        table = last.sum(axis=1)
    table = table.reshape([f.shape[0] for f in factors] + [last.shape[0]])
    lead = 0 if weights is None else 1
    for j, kc in enumerate(kernels):
        table = np.moveaxis(np.tensordot(kc, table, axes=(1, j + lead)), 0, j + lead)
    return np.ascontiguousarray(table)


def _interpolate(lefts, table: np.ndarray) -> np.ndarray:
    """H T, shape ([c,] m), at the m points of the node-major rows
    ``lefts`` (H' their Khatri-Rao product) for a table T of
    :func:`_node_table`. Per block of points in which the widest temporary
    holds about ``_GRID_BLOCK`` floats: one GEMM of T, as a
    ([c] prod_{j<d} p_j) x p_d matrix, with L_d, then for each other column
    from the last, one multiply by L_j and a sum over its node axis. No
    m x prod p_j array is formed. For the T of the vector 1 these are the
    row sums of H (K_c1 x ... x K_cd) H'."""
    *rest, last = lefts
    p, m = last.shape
    flat = table.reshape(-1, p)
    out = np.empty(table.shape[: table.ndim - len(lefts)] + (m,))
    step = max(1, _GRID_BLOCK // len(flat))
    for start in range(0, m, step):
        cols = slice(start, start + step)
        acc = flat @ last[:, cols]
        for left in reversed(rest):
            block = left[:, cols]
            acc = acc.reshape(-1, *block.shape)
            acc *= block
            acc = acc.sum(axis=1)
        out[..., cols] = acc.reshape(out[..., cols].shape)
    return out


def _slope_tables(ones: np.ndarray, nodes, ratios: np.ndarray) -> np.ndarray:
    """[(K_c1 x ... x K_cd) H'1, sum_j (K_c1 x ... x K_cj' x ... x K_cd) H'1]
    as one (2, p_1, ..., p_d) array, from H'1 (``ones``), the ``nodes``
    (p_j, K_cj) and the ``ratios`` r_j / c, where K_cj' = d K_cj / d log c
    = K_cj o g_j^2 (r_j / c)^2 for the node gaps g_j (:func:`_node_gaps`).
    Axis 1 takes H'1 to (K_c1 H'1, K_c1' H'1), and each other axis j the
    pair (A, B) to (K_cj A, K_cj B + K_cj' A), the product rule: one
    product with [K_cj; K_cj'] per axis."""
    pairs = [np.concatenate([kc, kc * _node_gaps(p) * r**2]) for (p, kc), r in zip(nodes, ratios)]
    p = ones.shape[0]
    table = pairs[0] @ ones.reshape(p, -1)
    for j, pair in enumerate(pairs[1:], start=1):
        pre, p = math.prod(ones.shape[:j]), ones.shape[j]
        both = np.matmul(pair, table.reshape(2 * pre, p, -1))
        both = both.reshape(2, pre, 2, p, -1)
        table = both[:, :, 0]
        table[1] += both[0, :, 1]
    return table.reshape((2,) + ones.shape)
