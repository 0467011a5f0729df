"""Row-normalized product-kernel smoother with trace-based calibration.

The smoothing matrix is S = D K where K has entries
K_ij = prod_k k((x_ik - x_jk) / h_k) and D is the diagonal of inverse row
sums, so every row of S sums to one. Bandwidths are not tuned against the
data fit; each one is calibrated so the corresponding univariate smoother
has a prescribed (small) trace, which keeps the base smoother deliberately
over-smooth.

A bandwidth, or a common bandwidth factor, solves trace(scale) = target
for a trace that decreases in its scale, by the root finder that the
spline's penalty also takes (:func:`~ibrsmooth.smoothers._log_newton_root`):
safeguarded Newton steps on log(scale), using the closed-form slope
d trace / d log(scale), inside a sign bracket. A Gaussian target, per column
or a total df over several, typically needs four to six trace evaluations,
each on the Chebyshev nodes (:mod:`ibrsmooth.chebyshev`) of the columns
mapped onto [-1, 1] over the training box, with prod p_j <= n, in
O(n prod p_j) with no n x n array (:func:`_gaussian_objective`). A design
with no such nodes and every other kernel take the O(n^2) evaluation.

Because the base smoother is over-smooth, its spectrum is numerically low
rank: most eigenvalues of A = D^{1/2} K D^{1/2} lie below the accuracy floor
f = n eps lambda_max (:func:`~ibrsmooth.smoothers._accuracy_floor`), within
which a backward-stable eigensolver returns each eigenvalue (Weyl's
inequality), so they are rounding. The spectrum comes from one of two
routes:

- factor route (Gaussian, :func:`_gaussian_factor` and
  :func:`_factor_eigenpairs`): each column's node kernel is compressed to
  its eigenpairs above f times the largest, and K ~ G G' with G the
  Khatri-Rao products of n x r_j blocks whose relative weight exceeds f.
  The pairs above f come from one Householder QR of D^{1/2} G and one
  P x P eigh, O(n P^2) with no n x n array, and every pair left out goes
  into ``tail_trace``. It serves every Gaussian design with
  P <= n / ``_FACTOR_RANK_GATE``, a gate checked from the node kernels
  alone, before any n-length work;
- dense ``eigh`` of the symmetrized Gram matrix for everything else: a
  design past the gate is numerically high rank, so no truncation pays.
  It keeps all n pairs, and is the full-rank reference of the factor
  route. It builds K once and drops it with the spectrum.

Every route here runs on numpy alone: only the spline
(:mod:`ibrsmooth.tps`) loads more, on first use. The family's one
evaluator, :class:`KernelPredictor`, serves the fit, the cross-validation
projector and a loaded model: a Gaussian fit predicts a row near the
training box from tables at its own nodes (:class:`NodeTables`) in
O(d p + prod p_j), and every other row, coefficient block and kernel by
the direct route (:class:`_KernelRows`) in O(n d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chebyshev import (
    _GRID_BLOCK,
    _accepted_nodes,
    _affordable_nodes,
    _chebyshev_factor,
    _chebyshev_terms,
    _interpolate,
    _node_table,
    _slope_tables,
)
from .kernels import is_positive_definite, kernel_slopes, kernel_values, resolve_kernel
from .smoothers import (
    BaseSmoother,
    CalibrationError,
    DesignMatrix,
    HouseholderQ,
    SpectralForm,
    _AugmentedGaps,
    _accuracy_floor,
    _column_range,
    _fill,
    _finite_rows,
    _log_newton_root,
    _pairwise_blocks,
    _squared_distances,
    _unit_box,
)

__all__ = [
    "KernelPredictor",
    "KernelSmootherSpec",
    "KernelSmoother",
    "build_kernel_smoother",
    "calibrate_bandwidth",
    "calibrate_total_df",
]

# starting sign bracket of the bandwidth search (:func:`_log_newton_root`),
# as multiples of the column range (of the column standard deviations for
# the common factor)
_BRACKET_LO = 1e-3
_BRACKET_HI = 1e3
# a Gaussian design takes the truncated factor route (module docstring)
# while its factor has at most n / _FACTOR_RANK_GATE columns P. Uniform
# columns, one BLAS thread, the factor route's build and spectrum against
# the Gram matrix and the route it replaces: at P ~ n / 2, 0.46 (d = 2,
# n = 1500), 0.52 (d = 2, n = 3000), 0.64 (d = 2, n = 400, P = 0.55 n);
# parity between 0.67 n (1.11, d = 3, n = 1500) and 0.72 n (0.98, d = 2,
# n = 1500); 1.99 at P = n
_FACTOR_RANK_GATE = 2
_GAUSSIAN_K0 = float(kernel_values(np.zeros(1), "gaussian")[0])
# prediction tables serve only columns spanning at most this many
# bandwidths per half range: the rounding of the tabulated sums, amplified
# by the interpolation, grows with the span. One column, n = 300, worst of
# 300 rows of four fits in floor units (tables / direct route): span 0.5,
# 0.3 / 0.3; 1.5, 0.8 / 0.5; 1.9, 2.0 / 0.7; 3.1, 7.7 / 1.5; 5.6, 9.6 / 2.3
_GRID_SPAN = 1.5
# prediction tables also serve a row whose every column lies within
# half_j (acosh(g_j) / p_j)^2 / 2 of the training box, clipped to that
# widened box: on the unit box such a column sits at |t| <= 1 + eps with
# T_p(1 + eps) <= cosh(p sqrt(2 eps)) <= g_j, so its interpolant, a
# polynomial of degree below p, exceeds its largest value on the box by at
# most g_j = min(_GRID_GROWTH, _GRID_SPAN / span_j). The tables' rounding
# grows with the span, so the growth shrinks to none at the span rule's
# limit. Worst of 300 fits of one column (n = 300, 200 rows 0.1-1 margins
# out), floor units with growth 2 / g_j: span 1.4, 1.14 / 0.85; 1.45,
# 1.06 / 0.88. Rows farther out take the direct route
_GRID_GROWTH = 2.0
# building prediction tables costs, per design point, about one kernel
# evaluation per interpolation-row entry (sum p_j) and this fraction of one
# per node. On 32 x 32 nodes, n = 1500, one BLAS thread, x86-64: 9.4 ns per
# entry and 0.26 ns per node against 3.0 ns per kernel value, so about 280
# kernel values where the rule counts 320
_GRID_NODE_COST = 0.25
# the expanded exponent clips a new row's gap to the design's centre to this
# many scaled units, where |u|^2 cannot overflow and every weight is 0
_FAR = 1e100
# largest miss of the df target that a calibrated bandwidth may leave, per
# column and for the total trace
_BANDWIDTH_TOL = 1e-6
_TOTAL_DF_TOL = 1e-4


@dataclass(frozen=True)
class KernelSmootherSpec:
    """Kernel and per-column bandwidths of a product-kernel smoother."""

    kind: str
    bandwidths: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", resolve_kernel(self.kind))
        if len(self.bandwidths) == 0:
            raise ValueError("need one bandwidth per column")
        if any(h <= 0 or not np.isfinite(h) for h in self.bandwidths):
            raise ValueError(f"bandwidths must be positive, got {self.bandwidths}")

    @property
    def positive_definite(self) -> bool:
        return is_positive_definite(self.kind)


class _KernelRows:
    """Product-kernel weights of new rows against a fixed design ``x``, a
    block of rows at a time (:func:`_pairwise_blocks`).

    A Gaussian block takes one ``exp`` per pair, on the design centred on
    its box and scaled by sqrt(1/2) / h_k once, when this is built, and on
    the new rows u scaled the same way once per call (centring keeps a
    design far from the origin from losing accuracy to the scaling). With
    ``expand``, a design whose every column passes the span rule of
    :attr:`KernelPredictor._tables` holds its augmented coordinates
    (``augmented``, :class:`~ibrsmooth.smoothers._AugmentedGaps`, rows
    clipped at ``_FAR``), and a block of weights is one GEMM, giving the
    exponent -|u - v|^2, and one ``exp`` in place. These weights leave out
    K(0)^d, which cancels in the kernel average, their one use
    (:func:`_kernel_average`); folded into the exponent, it would round
    every weight at the magnitude 0.92 d. The expansion's absolute
    exponent error, about eps (|u|^2 + |v|^2), outgrows the subtraction's
    past the span rule. There, in a Gram build (``expand`` False, so no
    fit's spectrum moves) and for the compact kernels, which multiply the
    columns' :func:`~ibrsmooth.kernels.kernel_values`, a block goes a column
    at a time on the design transposed (``xt``, d x n), so a gap block
    subtracts a contiguous row (:func:`_squared_distances`), and one
    constant K(0)^d follows the Gaussian ``exp``.
    """

    def __init__(self, x: np.ndarray, kind: str, bandwidths, expand: bool = False):
        self.x, self.kind, self.bandwidths = x, kind, bandwidths
        self.augmented = None
        if kind == "gaussian":
            h = np.asarray(bandwidths, dtype=float)
            self.centre, half = _unit_box(x)
            self.scale = math.sqrt(0.5) / h
            if expand and np.all(half <= _GRID_SPAN * h):
                with np.errstate(over="ignore"):
                    reach = _FAR / self.scale
                self.augmented = _AugmentedGaps(x, self.centre, self.scale, reach, sign=-1.0)
            else:
                self.xt = np.ascontiguousarray(((x - self.centre) * self.scale).T)
                self.k0 = _GAUSSIAN_K0 ** x.shape[1]
        else:
            self.xt = np.ascontiguousarray(x.T)

    def blocks(self, x_new: np.ndarray, out=None):
        """Yield (rows, w), the weights of the rows ``rows`` of ``x_new``,
        written into ``out[rows]`` when ``out`` is given."""
        if self.augmented is not None:
            return self.augmented.blocks(x_new, lambda w, scratch: np.exp(w, out=w), out)
        xt, bandwidths, kind = self.xt, self.bandwidths, self.kind
        if kind == "gaussian":
            a = (x_new - self.centre) * self.scale

            def fill(rows, w, scratch):
                # a gap that squares past the float range weighs exp(-inf) = 0
                with np.errstate(over="ignore"):
                    _squared_distances(a[rows], xt, w, scratch)
                np.negative(w, out=w)
                np.exp(w, out=w)
                w *= self.k0

        else:

            def fill(rows, w, scratch):
                for j, h in enumerate(bandwidths):
                    col = w if j == 0 else scratch
                    col[...] = x_new[rows, j, None]
                    col -= xt[j]
                    col /= h
                    kernel_values(col, kind, out=col)
                    if j:
                        w *= col

        return _pairwise_blocks(x_new, self.x, fill, out)


def product_kernel(x_new: np.ndarray, x: np.ndarray, kind: str, bandwidths) -> np.ndarray:
    """Product-kernel weights prod_k K((x_new_ik - x_jk) / h_k), one row per
    row of ``x_new`` and one column per row of ``x``, built a block of rows at
    a time (:class:`_KernelRows`) in one new array and one block of scratch."""
    out = np.empty((x_new.shape[0], x.shape[0]))
    _fill(_KernelRows(x, kind, bandwidths).blocks(x_new, out))
    return out


def _kernel_average(x_new, weights: _KernelRows, columns, labels=None) -> np.ndarray:
    """The direct route of :class:`KernelPredictor` on checked rows, with the
    design's ``weights`` and ``columns`` = [beta, 1], as an (m, c) array;
    a dead row is named by its entry in ``labels`` (its row number when None)."""
    c = columns.shape[1] - 1
    pred = np.empty((x_new.shape[0], c))
    dead = []
    for rows, w in weights.blocks(x_new):
        num = w @ columns
        # written so that a NaN sum is dead too, never a prediction
        dead_here = np.nonzero(~(num[:, c] > 0))[0]
        if dead_here.size:
            dead.extend((rows.start + dead_here).tolist())
            continue
        np.divide(num[:, :c], num[:, c:], out=pred[rows])
    if dead:
        if labels is not None:
            dead = np.asarray(labels)[dead].tolist()
        raise ValueError(
            f"prediction rows {dead} fall outside the kernel "
            "support of every design point"
        )
    return pred


class NodeTables:
    """A Gaussian kernel average tabulated at a fit's own Chebyshev nodes.

    With the fit's node kernels K_cj (:func:`_accepted_nodes`),
    K ~ H (K_c1 x ... x K_cd) H' to rounding, H the Khatri-Rao product of
    the interpolation matrices. The tables T = (K_c1 x ... x K_cd) H'
    [beta, 1], built on first use in O(n prod p_j), give a row u near the
    training box its numerator sum_i K(u - x_i) beta_i and denominator
    sum_i K(u - x_i) as H(u) T, in O(d p + prod p_j) (the fast Gauss
    transform idea, Greengard & Strain 1991). A new row takes its
    unnormalized barycentric terms (:func:`_chebyshev_terms`) as H(u):
    their per-row factor scales the numerator and the denominator alike, so
    the ratio (the second barycentric form, Berrut & Trefethen 2004) does
    without it. The tables hold for rows inside ``lo`` and ``hi``, the
    training box widened per column by a margin where the interpolant grows
    by at most min(``_GRID_GROWTH``, ``_GRID_SPAN`` / span_j), the column's
    ``ratios`` entry being its span half_j / h_j. :meth:`interpolate`
    evaluates every row it is given, each column clipped to that widened
    box, so a caller overwrites the rows beyond it rather than gathering
    the ones inside. Building costs ``cost`` kernel evaluations per design
    point: sum p_j, plus ``_GRID_NODE_COST`` per node.
    """

    def __init__(self, x: np.ndarray, nodes, beta: np.ndarray, ratios: np.ndarray):
        self.x, self.beta = x, beta
        self.centre, self.half = _unit_box(x)
        self.sizes, self.kernels = zip(*nodes)
        lo, hi = _column_range(x)
        growth = np.minimum(_GRID_GROWTH, _GRID_SPAN / ratios)
        margin = self.half * (0.5 * (np.arccosh(growth) / np.array(self.sizes)) ** 2)
        self.lo, self.hi = lo - margin, hi + margin
        self.cost = sum(self.sizes) + _GRID_NODE_COST * math.prod(self.sizes)

    @cached_property
    def table(self) -> np.ndarray:
        # K_cj enters the rows before they meet beta, whose entries cancel:
        # applied after, the rounding of H'beta grows with the Lebesgue constant
        # (one column, n = 300 and 1000, worst row of 43 fits: 1.9 floor units, 0.6 here)
        units = self._unit(self.x)
        lefts = [kc @ _chebyshev_factor(t, p) for t, p, kc in zip(units, self.sizes, self.kernels)]
        return _node_table(lefts, np.vstack([self.beta, np.ones(len(self.x))]))

    def _unit(self, x: np.ndarray) -> list[np.ndarray]:
        # clipped to the widened box, a row far outside it cannot overflow the rows
        return [
            (np.minimum(np.maximum(col, lo), hi) - centre) / half
            for col, lo, hi, centre, half in zip(x.T, self.lo, self.hi, self.centre, self.half)
        ]

    def interpolate(self, x_new: np.ndarray) -> np.ndarray:
        """The tabulated kernel average at every row of ``x_new``, a block of
        rows at a time. A row beyond the widened box gets the value at its
        point clipped to that box, a finite stand-in for its caller to
        overwrite. A row on a node, whose terms are infinite, reads a
        non-finite ratio and is evaluated again from the normalized rows."""
        table = self.table
        step = max(1, _GRID_BLOCK // max(table.size // self.sizes[-1], max(self.sizes)))
        pred = np.empty(len(x_new))
        for start in range(0, len(x_new), step):
            rows = slice(start, start + step)
            units = self._unit(x_new[rows])
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = [_chebyshev_terms(t, p) for t, p in zip(units, self.sizes)]
                num, den = _interpolate(terms, table)
                np.divide(num, den, out=pred[rows])
            hit = np.flatnonzero(~np.isfinite(pred[rows]))
            if hit.size:
                lefts = [_chebyshev_factor(t[hit], p) for t, p in zip(units, self.sizes)]
                num, den = _interpolate(lefts, table)
                pred[start + hit] = num / den
        return pred


@dataclass
class KernelPredictor:
    """A kernel smoother's evaluator: the average
    sum_j w_ij beta_j / sum_j w_ij of ``beta``, of shape (n,) or (n, c),
    weighted by the kernel between a new row and the design.

    The direct route weighs a new row against all n design points, a block
    of rows at a time in two buffers of about ``_PREDICT_BLOCK_BYTES``,
    reused for every block, so no m x n weight matrix is formed. Each block
    meets [beta, 1] in one product, whose last column holds the row sums as
    BLAS dot products. A block is a whole number of eight-row groups, so
    with OpenBLAS the answer has the bits of ``num[:, :-1] / num[:, -1:]``,
    ``num = w @ [beta, 1]``, over the full matrix of the weights the blocks
    hold (those of :func:`product_kernel` for the compact kernels and a
    Gaussian design past the span rule of :class:`_KernelRows`).

    A Gaussian fit with vector ``beta`` may instead answer a batch from
    :class:`NodeTables` at the Chebyshev nodes its factor chose, in
    O(d p + prod p_j) per row instead of O(n d), equal to the direct route
    to the rounding floor. The first batch large enough to pay for them
    builds them (160 rows at n = 1500, d = 2). Such a batch takes the
    tables on every row, each column clipped to the training box widened by
    the tables' margin (:class:`NodeTables`), and one box test, in data
    coordinates, picks the rows beyond that widened box, which are then
    overwritten from the direct route: a batch wholly inside it gathers and
    scatters nothing. A batch's route depends only on the fit and its row
    count, so a saved and reloaded model gives the same bits. Smaller
    batches, coefficient blocks and fits that no tables serve
    (:attr:`_tables`) go direct.

    Same batch, same bits: repeating a batch repeats its answer exactly,
    but a row's last bits depend on its place in the batch (the BLAS
    product treats rows by position), so in a shifted or smaller batch it
    agrees only to the rounding floor eps (|w| . |beta|) / (w . 1).
    :meth:`predict` reads a 1-D ``x_new`` as points of a one-column design
    and raises ValueError for the wrong number of columns, a non-finite
    entry, or a row outside the kernel support of every design point.
    """

    x_train: np.ndarray
    kind: str
    bandwidths: np.ndarray
    beta: np.ndarray

    @cached_property
    def _tables(self) -> NodeTables | None:
        """The unbuilt prediction tables; None for a coefficient block, a
        kernel other than the Gaussian, a column spanning no range or more
        than ``_GRID_SPAN`` bandwidths per half range (span rule), or nodes
        that :func:`_affordable_nodes` refuses, found with no n-length work."""
        if self.beta.ndim != 1 or self.kind != "gaussian":
            return None
        h, half = np.asarray(self.bandwidths, dtype=float), _unit_box(self.x_train)[1]
        if not np.all((half > 0.0) & (half <= _GRID_SPAN * h)):
            return None
        ratios = half / h
        nodes = _affordable_nodes(ratios, self.x_train.shape[0])
        return None if nodes is None else NodeTables(self.x_train, nodes, self.beta, ratios)

    @cached_property
    def _weights(self) -> _KernelRows:
        # the direct route's design, prepared once for every batch
        return _KernelRows(self.x_train, self.kind, self.bandwidths, expand=True)

    @cached_property
    def _columns(self) -> np.ndarray:
        # the direct route's [beta, 1], made once for every batch
        return np.column_stack([self.beta, np.ones(len(self.beta))])

    def predict(self, x_new: np.ndarray) -> np.ndarray:
        x_new = _finite_rows(x_new, self.x_train.shape[1])
        tables = self._tables
        if tables is None or x_new.size < tables.cost:
            pred = _kernel_average(x_new, self._weights, self._columns)
            return pred.reshape(x_new.shape[:1] + self.beta.shape[1:])
        pred = tables.interpolate(x_new)
        # rows beyond the widened box, a column at a time: a reduction over
        # a row's few columns is several times slower
        outside = np.zeros(len(x_new), dtype=bool)
        for col, lo, hi in zip(x_new.T, tables.lo, tables.hi):
            outside |= (col < lo) | (col > hi)
        outside = np.flatnonzero(outside)
        if outside.size:
            pred[outside] = _kernel_average(x_new[outside], self._weights, self._columns, outside)[:, 0]
        return pred


class KernelSmoother(BaseSmoother):
    """Row-stochastic kernel smoother over a fixed design.

    A Gaussian smoother that passes the factor gate holds its row sums and
    its r_j x n column factors, and never an n x n array. Any other holds
    the Gram matrix K only until its spectrum is built. ``kmat`` and
    ``matrix`` are built anew on each access.
    """

    def __init__(self, design: DesignMatrix, spec: KernelSmootherSpec):
        if len(spec.bandwidths) != design.d:
            raise ValueError(
                f"{len(spec.bandwidths)} bandwidths for {design.d} columns"
            )
        self.design = design
        self.spec = spec
        factor = _gaussian_factor(design.x, spec.bandwidths) if spec.kind == "gaussian" else None
        self._gram = self._factor = None
        if factor is None:
            self._gram = self.kmat
            self.row_sums = self._gram.sum(axis=1)
        else:
            self.row_sums, self._factor = factor
        if np.any(self.row_sums <= 0):
            bad = np.nonzero(self.row_sums <= 0)[0]
            raise ValueError(
                f"kernel rows {bad.tolist()} sum to zero; bandwidths too small "
                "for the design spacing"
            )

    @property
    def kmat(self) -> np.ndarray:
        """The n x n Gram matrix K, built a block of rows at a time."""
        x = self.design.x
        return product_kernel(x, x, self.spec.kind, self.spec.bandwidths)

    @property
    def matrix(self) -> np.ndarray:
        """S = D K, built in one n x n array and normalized by its own row sums."""
        s = self.kmat
        s /= s.sum(axis=1)[:, None]
        return s

    @property
    def initial_df(self) -> float:
        k0 = float(kernel_values(np.zeros(1), self.spec.kind)[0]) ** self.d
        return float(np.sum(k0 / self.row_sums))

    def spectral(self) -> SpectralForm:
        return self._spectral

    @cached_property
    def _spectral(self) -> SpectralForm:
        # symmetrize: A = D^{1/2} K D^{1/2} shares eigenvalues with S = D K
        d_half = 1.0 / np.sqrt(self.row_sums)
        if self._factor is not None:
            lam, u, tail = _factor_eigenpairs(self._factor, d_half, self.initial_df)
            return SpectralForm(d_half=d_half, u=u, lam=lam, tail_trace=tail)
        kmat, self._gram = self._gram, None
        # scaled in place: the smoother keeps no Gram matrix
        kmat *= d_half[:, None]
        kmat *= d_half[None, :]
        lam, u = np.linalg.eigh(kmat)
        order = np.argsort(lam)[::-1]
        return SpectralForm(
            d_half=d_half,
            u=u[:, order],
            lam=lam[order],
            pd_family=self.spec.positive_definite,
        )

    def predictor(self, coef: np.ndarray) -> KernelPredictor:
        h = np.asarray(self.spec.bandwidths, dtype=float)
        return KernelPredictor(self.design.x.copy(), self.spec.kind, h, coef)

    def describe(self) -> str:
        return f"{self.spec.kind} kernel (with {self.initial_df:.4g} df)"


@dataclass
class _KhatriRaoFactor:
    """G with K ~ G G', node-major: the rows of G' are those rows of the
    Khatri-Rao product of the r_j x n ``blocks`` (one per design column)
    whose multi-indices are ``index``."""

    blocks: list[np.ndarray]
    index: tuple[np.ndarray, ...]

    def scaled(self, d_half: np.ndarray) -> np.ndarray:
        """diag(d_half) G as an n x P Fortran array: the transpose of the
        C-ordered P x n product of the blocks' rows, so no copy is made."""
        g = np.multiply(self.blocks[0][self.index[0]], d_half)
        for block, idx in zip(self.blocks[1:], self.index[1:]):
            g *= block[idx]
        return g.T


def _gaussian_factor(x: np.ndarray, bandwidths):
    """Row sums and a Khatri-Rao factor of a Gaussian Gram matrix, or None.

    On each column mapped onto [-1, 1] over the training box, the node
    kernel K_c at the p_j nodes of :func:`_accepted_nodes` is compressed by
    one eigh to the pairs above f of its largest, V_j Sigma_j V_j', with
    f = n eps the accuracy floor (:func:`~ibrsmooth.smoothers._accuracy_floor`)
    at A's largest eigenvalue, which is 1. With L_j the n x p_j
    interpolation matrix (:func:`_chebyshev_factor` gives L_j'), K ~ G G'
    for G the Khatri-Rao product of the blocks L_j V_j Sigma_j^{1/2} (times
    K(0)^{1/2}, to kernel units), held as their r_j x n transposes. G keeps
    only the products whose eigenvalue prod_j sigma_j is above f of the
    largest, the same cut as each column's; their number P never falls as
    columns are added, and the gate counts them.

    The columns are taken one at a time, and None is returned as soon as P
    exceeds n / ``_FACTOR_RANK_GATE``, before any n-length work, or at a
    column with no nodes. Otherwise returns the row sums, from the
    uncompressed L_j K_c L_j' (whose node weights are positive sums, so a
    small row sum keeps its relative accuracy) one axis at a time by
    :func:`_node_table` and :func:`_interpolate`, O(n prod p_j) with no
    n x prod p_j array, and the :class:`_KhatriRaoFactor`.
    """
    n = x.shape[0]
    centre, half = _unit_box(x)
    with np.errstate(divide="ignore"):
        ratios = half / np.asarray(bandwidths, dtype=float)
    if not np.all(np.isfinite(ratios)):
        return None
    floor = _accuracy_floor(n, 1.0)
    nodes, weight = [], np.ones(1)
    for found in (_accepted_nodes(ratio, n) for ratio in ratios):
        if found is None:
            return None
        sig, v = np.linalg.eigh(found[1])
        keep = sig > floor * sig[-1]
        # eigenvalues of the products, relative to the largest
        weight = np.multiply.outer(weight, sig[keep] / sig[-1])
        if _FACTOR_RANK_GATE * np.count_nonzero(weight > floor) > n:
            return None
        nodes.append((*found, v[:, keep] * np.sqrt(sig[keep])))
    # a constant column maps onto 0, where one node interpolates to 1 exactly
    t = (x - centre) / np.where(half > 0.0, half, 1.0)
    lefts = [_chebyshev_factor(t[:, j], p) for j, (p, _, _) in enumerate(nodes)]
    k0 = _GAUSSIAN_K0
    sums = _interpolate(lefts, _node_table(lefts, kernels=[kc for _, kc, _ in nodes]))
    sums *= k0 ** len(nodes)
    blocks = [math.sqrt(k0) * (root.T @ left) for left, (_, _, root) in zip(lefts, nodes)]
    return sums, _KhatriRaoFactor(blocks, np.nonzero(weight.reshape(weight.shape[1:]) > floor))


def _factor_eigenpairs(factor: _KhatriRaoFactor, d_half: np.ndarray, trace: float):
    """Top eigenpairs of A = D^{1/2} G G' D^{1/2} for the n x P factor G
    (P < n).

    With D^{1/2} G = Q R (:class:`~ibrsmooth.smoothers.HouseholderQ`, Q
    kept as P reflectors in compact WY form), A = Q R R' Q', so one P x P
    eigh of R R' = W Lambda W' gives the eigenvalues and U = Q [W; 0] over
    the kept columns of W, two products with the reflectors and one P x P
    solve. The pairs above the accuracy floor f = n eps lambda_max
    (:func:`~ibrsmooth.smoothers._accuracy_floor`) are kept: below it an
    eigenvalue is rounding. A is positive semi-definite, so
    tau = ``trace`` - sum(kept), with ``trace`` = tr(A) =
    K(0)^d sum_i 1 / s_i from the uncompressed row sums, bounds the sum of
    every eigenvalue left out, here or by the factor's cut, and no pair
    left out moves the df at k by more than k tau.
    Returns (lam descending, U, tau).
    """
    # the scaled factor is passed, not held, so qr's copy is its only one
    q = HouseholderQ(factor.scaled(d_half))
    lam, w = np.linalg.eigh(q.r @ q.r.T)
    keep = np.flatnonzero(lam > _accuracy_floor(d_half.size, lam[-1]))[::-1]
    return lam[keep], q.dot(w[:, keep]), max(trace - float(np.sum(lam[keep])), 0.0)


def build_kernel_smoother(x, spec: KernelSmootherSpec) -> KernelSmoother:
    """Build the smoother for a design and an already-calibrated spec."""
    return KernelSmoother(DesignMatrix.from_array(x), spec)


def _trace_objective(x: np.ndarray, kind: str, scales: np.ndarray):
    """Trace of the row-normalized product smoother over the rows of x.

    Returns a function of c that gives the trace with bandwidths
    ``c * scales`` and its slope d trace / d log c. With row sums
    s_i = sum_j K_ij, the trace is K(0)^d * sum_i 1 / s_i and its slope is
    -K(0)^d * sum_i s_i' / s_i^2, where s_i' = d s_i / d log c follows from
    :func:`ibrsmooth.kernels.kernel_slopes` by the product rule. Gaps are
    measured on each column mapped onto [-1, 1], so they cannot overflow
    whatever the magnitude of the data; a Gaussian objective takes its row
    sums from :func:`_gaussian_objective`.
    """
    n, d = x.shape
    centre, half = _unit_box(x)
    t = (x - centre) / half
    # u = gap / (c * scale) = unit gap * ratio / c
    ratios = half / scales
    if kind == "gaussian":
        return _gaussian_objective(t, ratios)

    k0 = float(kernel_values(np.zeros(1), kind)[0]) ** d

    def product_trace(c: float) -> tuple[float, float]:
        kmat = np.ones((n, n))
        dkmat = np.zeros((n, n))
        for j in range(d):
            u = np.subtract.outer(t[:, j], t[:, j])
            u *= ratios[j] / c
            values = kernel_values(u, kind)
            dkmat *= values
            dkmat += kmat * kernel_slopes(u, kind)
            kmat *= values
        return _trace_and_slope(k0, kmat.sum(axis=1), dkmat.sum(axis=1))

    return product_trace


def _trace_and_slope(k0: float, sums: np.ndarray, slopes: np.ndarray) -> tuple[float, float]:
    """(K(0)^d sum_i 1 / s_i, -K(0)^d sum_i s_i' / s_i^2) from row sums s and
    their slopes s' in log scale."""
    return float(k0 * (1.0 / sums).sum()), float(-k0 * (slopes / (sums * sums)).sum())


def _gaussian_objective(t: np.ndarray, ratios: np.ndarray):
    """Gaussian trace objective over unit-range columns t (values in [-1, 1]).

    At factor c, column j's kernel is exp(-gap^2 (r_j / c)^2 / 2). An
    evaluation takes the nodes of :func:`_affordable_nodes` at the ratios
    r_j / c, as the factor and the prediction tables do, and the rows H' of
    :func:`_chebyshev_factor`, cached per column and p. H'1 comes from
    :func:`_node_table` once per node tuple, the row sums s and slopes s' in
    log c from one :func:`_interpolate` over :func:`_slope_tables`, in
    O(n prod p_j). Without affordable nodes, the nodes are the data and
    H = I: the exact form K = exp(q / c^2), s' = -2 / c^2 (K o q) 1 for
    q = -1/2 sum_j (gap_j r_j)^2, whose n x n q is built on first use.
    """
    n = t.shape[0]
    rows, ones, exact = {}, {}, []

    def gaussian_trace(c: float) -> tuple[float, float]:
        nodes = _affordable_nodes(ratios / c, n)
        if nodes is None:
            if not exact:
                q = np.zeros((n, n))
                for col, ratio in zip(t.T, ratios):
                    gap = np.subtract.outer(col, col)
                    gap *= ratio
                    gap *= gap
                    gap *= 0.5
                    q -= gap
                exact.extend((q, np.empty_like(q), np.ones(n)))
            q, kc, weights = exact
            inv_c2 = 1.0 / (c * c)
            np.exp(np.multiply(q, inv_c2, out=kc), out=kc)
            sums = kc @ weights
            kc *= q
            slopes = kc @ weights
            slopes *= -2.0 * inv_c2
        else:
            sizes = tuple(p for p, _ in nodes)
            for j, p in enumerate(sizes):
                if (j, p) not in rows:
                    rows[j, p] = _chebyshev_factor(t[:, j], p)
            lefts = [rows[j, p] for j, p in enumerate(sizes)]
            if sizes not in ones:
                ones[sizes] = _node_table(lefts)
            sums, slopes = _interpolate(lefts, _slope_tables(ones[sizes], nodes, ratios / c))
        return _trace_and_slope(1.0, sums, slopes)

    return gaussian_trace


def calibrate_bandwidth(
    column: np.ndarray,
    kind: str,
    df_target: float,
    name: str = "column",
) -> float:
    """Bandwidth whose univariate smoother trace equals ``df_target``.

    The trace decreases from (nearly) n at tiny bandwidths to 1 as the
    bandwidth grows, so the target must lie strictly inside (1, n). The
    search takes safeguarded Newton steps on log h from the middle of
    [1e-3, 1e3] times the column range, each O(n p) on the p Chebyshev
    nodes of a Gaussian column that has them (:func:`_gaussian_objective`)
    and O(n^2) otherwise. Raises ValueError on a non-finite value or a
    range that overflows.
    """
    col = np.asarray(column, dtype=float).ravel()
    n = col.size
    if not 1.0 < df_target < n:
        raise ValueError(
            f"per-variable df target must lie in (1, {n}), got {df_target}"
        )
    if not np.all(np.isfinite(col)):
        raise ValueError(f"{name} contains non-finite values")
    rng = float(col.max()) - float(col.min())
    if rng == math.inf:
        raise ValueError(f"the range of {name} overflows a float")
    if rng == 0.0:
        raise CalibrationError(f"{name} is constant; cannot calibrate a bandwidth")
    kind = resolve_kernel(kind)
    # the search runs on h / range
    trace = _trace_objective(col[:, None], kind, np.array([rng]))
    hint = f"; the {kind} kernel trace is not continuous enough, try the gaussian kernel"
    return rng * _log_newton_root(
        trace, df_target, 1.0, _BRACKET_LO, _BRACKET_HI, f"{name} df", _BANDWIDTH_TOL, hint
    )


def calibrate_total_df(x, kind: str, total_df: float) -> np.ndarray:
    """Common-factor bandwidths h_j = c * s_j hitting a total-trace target.

    s_j is the sample standard deviation of column j, so a single scalar c
    is tuned until the trace of the full product smoother equals
    ``total_df``. With one column this agrees with
    :func:`calibrate_bandwidth` up to tolerance. c is found by the same
    safeguarded Newton search on log c, starting inside [1e-3, 1e3]. A
    Gaussian evaluation takes O(n prod p_j) on the columns' Chebyshev nodes
    while prod p_j <= n, and the O(n^2) exact form beyond (for d = 3 at
    moderate n) or for another kernel (:func:`_gaussian_objective`).
    """
    design = DesignMatrix.from_array(x)
    xm = design.x
    n = design.n
    if not 1.0 < total_df < n:
        raise ValueError(f"total df target must lie in (1, {n}), got {total_df}")
    flat = np.nonzero(xm.max(axis=0) == xm.min(axis=0))[0]
    if flat.size:
        names = [design.names[j] for j in flat]
        raise CalibrationError(f"constant columns {names}; cannot calibrate")
    # taken in units of each column's largest magnitude, so it cannot overflow
    peak = np.abs(xm).max(axis=0)
    scales = peak * (xm / peak).std(axis=0, ddof=1)
    kind = resolve_kernel(kind)
    trace = _trace_objective(xm, kind, scales)
    hint = f"; the {kind} kernel trace jumps at this design"
    return scales * _log_newton_root(
        trace, total_df, 1.0, _BRACKET_LO, _BRACKET_HI, "total df", _TOTAL_DF_TOL, hint
    )
