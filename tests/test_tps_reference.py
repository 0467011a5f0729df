"""The spline's radial sums at new rows against a 40-digit reference.

sum_i a_i phi(|x - x_i|^2), phi(s) = s^p log s for even d and s^p sqrt(s)
for odd d (p = order - d/2 rounded down), is taken by the predictor's
route (``tps._RadialRows``): for even d, the squared gaps come from one
product per block of rows (s = |u|^2 + |v|^2 - 2 u.v, centred on the
design's box); for odd d, from the per-column subtraction. The reference
takes the same float inputs at 40 digits (mpmath). Errors are stated in
floor units: |got - reference| / (eps sum_i |a_i phi_i|).
"""

import warnings

import mpmath
import numpy as np
import pytest

import ibrsmooth as ib
from ibrsmooth.smoothers import _fill
from ibrsmooth.tps import _poly_block, _RadialRows, default_tps_order, tps_powers

EPS = float(np.finfo(float).eps)
# worst row allowed, in floor units. The subtraction's bound is the final
# sum's own rounding: over seeds 1-40 its worst row read 1.52 (d = 1) and
# 0.53 (d = 3), and 1.66 and 1.48 for d = 2 and 4, where the predictor no
# longer takes it. The expansion's absolute error in s, about
# eps (|u|^2 + |v|^2), reaches phi through phi'(s) = s^(p-1) (p log s + 1),
# which grows without bound at a knot for p = 1, so rows on a knot or within
# 1e-7 of one read worst, and more so for d = 4, whose |u|^2 + |v|^2 is
# about twice that of d = 2: over seeds 1-40, 6.93 (d = 2) and 11.75 (d = 4)
BOUND = {"expanded": 12.0, "subtracted": 2.0}


def design_rows(d: int, seed: int):
    """n = 24 uniform on [0, 1]^d, orthogonal coefficients (T'a = 0, as a
    fit's radial coefficients are), and four kinds of rows: 8 inside the
    box, 8 beyond one of its faces by 0.1-1 half ranges, 8 within 1e-7 of a
    knot and 8 on knots."""
    rng = np.random.default_rng([seed, d])
    n = 24
    x = rng.uniform(size=(n, d))
    t = _poly_block(x, tps_powers(default_tps_order(d), d))
    a = rng.normal(size=n)
    a -= t @ np.linalg.lstsq(t, a, rcond=None)[0]
    lo, hi = x.min(axis=0), x.max(axis=0)
    inside = rng.uniform(lo, hi, size=(8, d))
    beyond = rng.uniform(lo, hi, size=(8, d))
    cols = rng.integers(d, size=8)
    push = rng.uniform(0.1, 1.0, 8) * 0.5 * (hi - lo)[cols]
    sides = rng.integers(2, size=8)
    beyond[np.arange(8), cols] = np.where(sides, hi[cols] + push, lo[cols] - push)
    knots = rng.choice(n, size=16, replace=False)
    near = x[knots[:8]] + 1e-7 * rng.uniform(-1.0, 1.0, size=(8, d))
    return x, a, {"inside": inside, "beyond": beyond, "near a knot": near, "on": knots[8:]}


def variants(d: int, seed: int):
    """(name, x, a, rows) for the plain design, the design shifted by 1e6
    and the design scaled by 1e-3, rows mapped the same way; rows "on"
    knots are the mapped design's own rows."""
    x, a, rows = design_rows(d, seed)
    for name, move in (
        ("plain", lambda z: z),
        ("shifted 1e6", lambda z: z + 1e6),
        ("scaled 1e-3", lambda z: z * 1e-3),
    ):
        mx = move(x)
        yield name, mx, a, {kind: mx[r] if kind == "on" else move(r) for kind, r in rows.items()}


def reference(x_new, x, a, order):
    """(sum_i a_i phi_i, eps sum_i |a_i phi_i|) per row, at 40 digits."""
    d = x.shape[1]
    power, odd = divmod(2 * order - d, 2)
    mpmath.mp.dps = 40
    xm = [[mpmath.mpf(float(v)) for v in row] for row in x]
    am = [mpmath.mpf(float(v)) for v in a]
    sums, floors = [], []
    for row in x_new:
        um = [mpmath.mpf(float(v)) for v in row]
        terms = []
        for xi in xm:
            s = mpmath.fsum((uj - xj) ** 2 for uj, xj in zip(um, xi))
            if s == 0:
                terms.append(mpmath.mpf(0))
            else:
                terms.append(s**power * (mpmath.sqrt(s) if odd else mpmath.log(s)))
        sums.append(mpmath.fdot(am, terms))
        floors.append(EPS * mpmath.fsum(abs(c * t) for c, t in zip(am, terms)))
    return sums, floors


def radial_sums(x_new, x, a, order):
    out = np.empty((len(x_new), len(x)))
    _fill(_RadialRows(x, order).blocks(x_new, out))
    return out @ a


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_radial_sums_stay_near_the_rounding_floor(d, seed):
    """Worst row over the plain, shifted and scaled designs and all four
    kinds of rows, in floor units: within BOUND["expanded"] for even d and
    BOUND["subtracted"] for odd d. Worst seen over seeds 1-4 (x86-64,
    OpenBLAS): 3.46 (d = 2, shifted, near a knot) and 9.44 (d = 4, plain,
    on a knot) on the expansion; 0.90 (d = 1) and 0.35 (d = 3) on the
    subtraction."""
    order = default_tps_order(d)
    route = "subtracted" if d % 2 else "expanded"
    worst = {}
    for name, x, a, rows in variants(d, seed):
        for kind, x_new in rows.items():
            got = radial_sums(x_new, x, a, order)
            ref, floor = reference(x_new, x, a, order)
            units = max(float(abs(mpmath.mpf(float(g)) - r) / f) for g, r, f in zip(got, ref, floor))
            worst[name, kind] = units
    assert max(worst.values()) <= BOUND[route], (route, worst)


@pytest.mark.parametrize("d", [2, 3])
def test_a_row_whose_squared_gap_overflows(d):
    """A row 1e150 out has a finite squared gap and a finite prediction; at
    1e200 the gap squares past the float range and the row reads NaN. Other
    rows of the batch keep their values."""
    rng = np.random.default_rng(d)
    x = rng.uniform(size=(30, d))
    result = ib.fit(x, np.sin(3 * x[:, 0]) + rng.normal(0, 0.1, 30), smoother=ib.SmootherConfig(family="tps"))
    x_new = rng.uniform(size=(5, d))
    alone = result.predict(x_new)
    for far, finite in ((1e150, True), (1e200, False)):
        batch = x_new.copy()
        batch[2, 0] = far
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = result.predict(batch)
        assert np.isfinite(got[2]) == finite
        np.testing.assert_allclose(np.delete(got, 2), np.delete(alone, 2), rtol=1e-12)
