"""Oscillation-aware quadrature for integrals f(t)*cos(xt) or f(t)*sin(xt) on [0, 1].

Internal engine, not part of the public API. It integrates for a whole
vector of abscissas xs at once, on one node set built from x_max = max(xs):

  * split [0, 1] at the half-period lattice t = j*pi/x_max of the fastest
    kernel (the extrema of cos/sin), plus any declared interior
    breakpoints of the weight;
  * on smooth interior panels apply a fixed Gauss-Kronrod (7, 15) pair, with
    the |K15 - G7| difference as each x's panel error estimate; a panel is
    split while that difference exceeds the panel tolerance for any x;
  * on panels touching an endpoint where the weight is singular or merely
    non-smooth, use a tanh-sinh (double exponential) rule whose nodes are
    stored as exact distances from the endpoint, so algebraic endpoint
    singularities like t**(-0.9) are sampled without catastrophic rounding;
    each x keeps the first level that agrees with the previous one;
  * evaluate the weight once per node and form the kernel values
    cos/sin(xs (x) t) as a matrix, blocked along xs so that no block holds
    more than _BLOCK elements; panel sums are matrix products.

A single x is the one-point case of the same engine (oscillatory_integral).
Weights are evaluated through a two-argument callable w2(t, one_minus_t) so
densities singular at t=1 see the exact distance to that endpoint instead of
the rounded 1-t.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

# largest kernel matrix formed at once, in elements (256 KiB of float64):
# larger blocks ran no faster and raised the peak resident memory
_BLOCK = 1 << 15

# floor of every returned error estimate, times the integral of |w|: the
# rounding of a sum over the nodes, which the rule differences do not see
# (QUADPACK's 50 * epmach * resabs)
_ROUNDOFF = 50.0 * np.finfo(float).eps

# ---------------------------------------------------------------------------
# compensated accumulation
# ---------------------------------------------------------------------------


class CompensatedSum:
    """Neumaier variant of Kahan summation; exact to one final rounding for
    the magnitude ranges that arise here."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def total(self) -> float:
        return self.s + self.c


# ---------------------------------------------------------------------------
# Gauss-Kronrod (7, 15) on [-1, 1]
# ---------------------------------------------------------------------------

# Kronrod nodes (positive half, descending) and weights; Gauss-7 weights sit
# on nodes 1, 3, 5 and the center.
_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _build_gk() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nodes = [-x for x in _XGK_HALF[:7]] + [0.0] + [x for x in reversed(_XGK_HALF[:7])]
    wk = list(_WGK_HALF[:7]) + [_WGK_HALF[7]] + list(reversed(_WGK_HALF[:7]))
    wg = [0.0] * 15
    # Gauss nodes are every second Kronrod node, center included
    for i, j in enumerate((1, 3, 5)):
        wg[j] = _WG_HALF[i]
        wg[14 - j] = _WG_HALF[i]
    wg[7] = _WG_HALF[3]
    return np.array(nodes), np.array(wk), np.array(wg)


_GK_NODES, _GK_WK, _GK_WG = _build_gk()
# K15 and G7 weights as the columns of one matrix
_GK_WKG = np.stack([_GK_WK, _GK_WG], axis=1)


# ---------------------------------------------------------------------------
# tanh-sinh node tables
# ---------------------------------------------------------------------------

# Node positions are kept as distances d_j from the nearer endpoint of the
# standard interval [0, 1]: d_j = 1/(1 + exp(2*z_j)) with z_j = (pi/2)*sinh(j*h).
# Exponents of integrable singularities exceed -1, so truncating once
# d_j < 1e-290 (z_j > ~334) or j*h > 6.2 loses nothing at float64 scale.


@lru_cache(maxsize=None)
def _de_table(level: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Distances from the endpoint, weights, and the center weight for the
    tanh-sinh rule with step h = 2**-level on [0, 1]. Arrays cover j = 1..J."""
    h = 2.0 ** (-level)
    dist = []
    wts = []
    j = 1
    while True:
        jh = j * h
        if jh > 6.2:
            break
        z = 0.5 * math.pi * math.sinh(jh)
        if z > 334.0:
            break
        e = math.exp(-2.0 * z)
        d = e / (1.0 + e)
        w = 0.5 * h * (0.5 * math.pi) * math.cosh(jh) / (math.cosh(z) ** 2)
        if d < 1e-290 or w < 1e-290:
            break
        dist.append(d)
        wts.append(w)
        j += 1
    w0 = 0.5 * h * (0.5 * math.pi)
    return np.array(dist), np.array(wts), w0


def _kernel_blocks(kernel, xs: np.ndarray, t: np.ndarray):
    """Yield (rows, kernel(xs[rows] (x) t)) over row blocks of xs, each
    matrix holding at most _BLOCK elements (one row at least). The kernel
    is applied in place and the caller owns the matrix, so one block is
    all the working memory a pass needs."""
    step = max(1, _BLOCK // t.size)
    for i in range(0, xs.size, step):
        rows = slice(i, i + step)
        k = np.multiply.outer(xs[rows], t)
        yield rows, kernel(k, out=k)


def _de_panel(w2, kernel, xs: np.ndarray, a: float, b: float,
              panel_tol: float):
    """tanh-sinh integration of w(t)*kernel(x t) over [a, b] for every x.

    Node t-values near each end are formed from exact distances so endpoint
    singularities of w are sampled correctly. Levels are refined (reusing all
    previous nodes) until, for each x, two successive estimates agree within
    panel_tol; x that have converged drop out of the deeper levels.
    Returns arrays (values, error_estimates) and the level-2 estimate of
    the integral of |w| over the panel.
    """
    width = b - a
    one_minus_b = 1.0 - b

    def level_sums(level: int, odd_only: bool, xs: np.ndarray) -> np.ndarray:
        dist, wts, w0 = _de_table(level)
        if odd_only:
            dist = dist[::2]  # odd j of this level = new nodes vs level-1
            wts = wts[::2]
        d = width * dist
        # left-end nodes t = a + d, right-end nodes t = b - d, with 1 - t
        # formed stably (exact for the right end when b == 1)
        t = [a + d, b - d]
        omt = [one_minus_b + (width - d), one_minus_b + d]
        wt = [wts, wts]
        if not odd_only:
            tc = a + 0.5 * width
            t.append([tc])
            omt.append([1.0 - tc])
            wt.append([w0])
        t = np.concatenate(t)
        fw = w2(t, np.concatenate(omt)) * np.concatenate(wt)
        out = np.empty(xs.size)
        for rows, k in _kernel_blocks(kernel, xs, t):
            out[rows] = k @ fw
        return out, float(np.abs(fw).sum())

    # level 2 from scratch; each deeper level adds the odd-index nodes and
    # halves the previously accumulated weighted sum
    sums, abs_w = level_sums(2, False, xs)
    val = width * sums
    est = np.abs(val)
    todo = np.arange(xs.size)
    for level in (3, 4, 5, 6):
        cur = 0.5 * val[todo] + width * level_sums(level, True, xs[todo])[0]
        est[todo] = np.abs(cur - val[todo])
        val[todo] = cur
        todo = todo[est[todo] > panel_tol]
        if not todo.size:
            break
    return val, np.maximum(0.5 * est, 1e-17 * np.abs(val)), width * abs_w


# ---------------------------------------------------------------------------
# panel assembly
# ---------------------------------------------------------------------------


def _gk_batch(w2, kernel, xs: np.ndarray, lows: np.ndarray,
              highs: np.ndarray):
    """G7/K15 over many panels and every x at once. Returns (values,
    errors), each of shape (len(xs), len(lows)), and the K15 integral of
    |w| over each panel."""
    n = lows.size
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    # nodes laid out as an (n, 15) grid flattened once
    t = (mid[:, None] + half[:, None] * _GK_NODES[None, :]).reshape(-1)
    w = w2(t, 1.0 - t)
    vals = np.empty((xs.size, n))
    errs = np.empty((xs.size, n))
    for rows, k in _kernel_blocks(kernel, xs, t):
        k *= w
        kg = k.reshape(-1, 15) @ _GK_WKG
        k15 = kg[:, 0].reshape(-1, n)
        g7 = kg[:, 1].reshape(-1, n)
        vals[rows] = half * k15
        errs[rows] = np.abs(half * (k15 - g7))
    return vals, errs, half * (np.abs(w).reshape(-1, 15) @ _GK_WK)


def oscillatory_integrals(w2, xs, kernel: str, *,
                          singular_at_0: bool = False,
                          singular_at_1: bool = False,
                          breakpoints: tuple[float, ...] = (),
                          tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Integrate w(t)*cos(xt) or w(t)*sin(xt) over [0, 1] for every x in xs.

    xs is a non-empty sequence of finite x >= 0; callers validate it.
    w2(t_array, one_minus_t_array) must accept numpy arrays of interior
    points and return the weight values; it is called once per node, for
    all x together. Returns arrays (values, error_estimates) aligned with
    xs; raises QuadratureError if any x's estimate cannot be brought under
    tol within the refinement budget. No returned estimate is below
    _ROUNDOFF times the integral of |w|, the rounding level of the sums.
    """
    ker = np.cos if kernel == "cos" else np.sin
    xs = np.asarray(xs, dtype=float).reshape(-1)
    x_max = float(xs.max())

    lattice = []
    if x_max > math.pi:
        half = math.pi / x_max
        jmax = int(x_max / math.pi)
        lattice = [j * half for j in range(1, jmax + 1)
                   if 1e-12 < j * half < 1.0 - 1e-12]
        # a sliver of a panel against a singular endpoint would leave the
        # neighboring smooth panel too close to the singularity for the
        # fixed rule; absorb it into the double-exponential end panel
        if singular_at_1:
            while lattice and 1.0 - lattice[-1] < 0.5 * half:
                lattice.pop()
    cuts = {0.0, 1.0}
    cuts.update(lattice)
    for bp in breakpoints:
        if 0.0 < bp < 1.0:
            cuts.add(float(bp))
    edges = sorted(cuts)

    values = np.zeros(xs.size)
    errors = np.zeros(xs.size)
    abs_w = 0.0
    n_panels = len(edges) - 1
    # per-panel tolerance target; end panels get the larger share since the
    # tanh-sinh estimate is the one that actually adapts
    panel_tol = tol / max(4.0, n_panels)

    gk_lo: list[float] = []
    gk_hi: list[float] = []
    for i in range(n_panels):
        a, b = edges[i], edges[i + 1]
        de = (i == 0 and singular_at_0) or (i == n_panels - 1 and singular_at_1)
        if de:
            v, e, aw = _de_panel(w2, ker, xs, a, b, panel_tol)
            values += v
            errors += e
            abs_w += aw
        else:
            gk_lo.append(a)
            gk_hi.append(b)

    # GK panels, refined by splitting those that are worst for any x;
    # grading toward a steep end takes one round per halving, so allow a
    # decent number. A panel leaves the loop, its column summed into every
    # x's total, once it is accepted.
    lows = np.array(gk_lo)
    highs = np.array(gk_hi)
    n_done = 0
    for rnd in range(13):
        if not lows.size:
            break
        vals, errs, aws = _gk_batch(w2, ker, xs, lows, highs)
        bad = (errs > panel_tol).any(axis=0)
        if rnd == 12 or n_done + lows.size > 512:
            bad[:] = False
        done = ~bad
        values += vals[:, done].sum(axis=1)
        errors += errs[:, done].sum(axis=1)
        abs_w += float(aws[done].sum())
        n_done += int(done.sum())
        mid = 0.5 * (lows[bad] + highs[bad])
        lows, highs = (np.concatenate([lows[bad], mid]),
                       np.concatenate([mid, highs[bad]]))

    bound = np.maximum(tol, 1e-15 * (1.0 + np.abs(values))) * 10.0
    bad_x = np.flatnonzero(errors > bound)
    if bad_x.size:
        i = bad_x[0]
        raise QuadratureError(
            f"quadrature error estimate {errors[i]:.3e} exceeds tolerance "
            f"{tol:.3e} at x={xs[i]:.17g}",
            value=float(values[i]), error_estimate=float(errors[i]))
    return values, np.maximum(errors, _ROUNDOFF * abs_w)


def oscillatory_integral(w2, x: float, kernel: str, *,
                         singular_at_0: bool = False,
                         singular_at_1: bool = False,
                         breakpoints: tuple[float, ...] = (),
                         tol: float = 1e-10) -> tuple[float, float]:
    """Integrate w(t)*cos(xt) or w(t)*sin(xt) over [0, 1] at one x.

    The one-point case of oscillatory_integrals. Returns (value,
    error_estimate) as floats; raises QuadratureError if the estimate
    cannot be brought under tol within the refinement budget.
    """
    v, e = oscillatory_integrals(w2, [float(x)], kernel,
                                 singular_at_0=singular_at_0,
                                 singular_at_1=singular_at_1,
                                 breakpoints=breakpoints, tol=tol)
    return float(v[0]), float(e[0])


def plain_integral(w2, *, singular_at_0: bool = False,
                   singular_at_1: bool = False,
                   breakpoints: tuple[float, ...] = (),
                   tol: float = 1e-12) -> tuple[float, float]:
    """Integral of the weight alone (kernel = 1), used for moments of custom
    densities."""
    return oscillatory_integral(w2, 0.0, "cos",
                                singular_at_0=singular_at_0,
                                singular_at_1=singular_at_1,
                                breakpoints=breakpoints, tol=tol)
