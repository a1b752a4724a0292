"""Independent reference routes used to freeze expected test values.

Nothing here imports the package under test. Each helper recomputes a
quantity by a deliberately different method (plain bisection, power
series in exact or compensated arithmetic) so the frozen constants in the
test files can be regenerated and audited.
"""

import math
from fractions import Fraction


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def sigma_ref(k: int) -> float:
    """k-th positive root of tan x = x, via bisection on sin x - x cos x."""
    g = lambda x: math.sin(x) - x * math.cos(x)
    return bisect(g, k * math.pi + 1e-12, (k + 0.5) * math.pi - 1e-12)


def j0_series(x: float) -> float:
    """Bessel J0 by its power series with full-precision summation."""
    q = 0.25 * x * x
    term, terms, m = 1.0, [1.0], 0
    while abs(term) > 1e-20:
        m += 1
        term = -term * q / (m * m)
        terms.append(term)
    return math.fsum(terms)


def j0_first_root() -> float:
    return bisect(j0_series, 2.0, 3.0)


def pfq_partial_sum_exact(a_list, b_list, z: Fraction, n_terms: int) -> Fraction:
    """Truncated pFq sum in exact rational arithmetic.

    All parameters and z must be Fractions; n_terms around 80 converges far
    past double precision for the |z| <= 25 arguments used in the tests.
    """
    total = Fraction(0)
    term = Fraction(1)
    for n in range(n_terms):
        total += term
        num = Fraction(1)
        for a in a_list:
            num *= a + n
        den = Fraction(n + 1)
        for b in b_list:
            den *= b + n
        term = term * num * z / den
    return total


def beta_transform_ref(alpha: float, beta: float, x: float,
                       derivative: bool = False) -> complex:
    """U(x) + i V(x) for the density t^(beta-1) (1-t)^(alpha-1) / B(alpha, beta),
    or U'(x) + i V'(x) with derivative set, from Kummer's function:
    the transform is 1F1(beta; alpha + beta; i x), and its x-derivative
    i beta / (alpha + beta) 1F1(beta + 1; alpha + beta + 1; i x)."""
    import mpmath as mp
    with mp.workdps(30):
        a, b, z = mp.mpf(alpha), mp.mpf(beta), 1j * mp.mpf(x)
        if derivative:
            v = 1j * b / (a + b) * mp.hyp1f1(b + 1, a + b + 1, z)
        else:
            v = mp.hyp1f1(b, a + b, z)
        return complex(v)


def kuttner_transform_ref(delta: float, lam: float, x: float) -> complex:
    """U(x) + i V(x) for (1 - t^delta)^lam by 30-digit tanh-sinh quadrature,
    split at the half periods of the kernel."""
    import mpmath as mp
    with mp.workdps(30):
        xm = mp.mpf(x)
        cuts = [mp.mpf(0)] + [mp.pi * j / xm
                              for j in range(1, int(x / math.pi) + 1)]
        cuts = [c for c in cuts if c < 1] + [mp.mpf(1)]
        f = lambda t: (1 - t ** delta) ** lam
        u = mp.quad(lambda t: f(t) * mp.cos(xm * t), cuts)
        v = mp.quad(lambda t: f(t) * mp.sin(xm * t), cuts)
        return complex(u, v)


def pfq_ref(a_list, b_list, z, dps: int = 50) -> float:
    """pFq(a_list; b_list; z) by mpmath.hyper at dps digits; the parameters
    and z (floats or mpf) enter exactly."""
    import mpmath as mp
    with mp.workdps(dps):
        return float(mp.hyper([mp.mpf(a) for a in a_list],
                              [mp.mpf(b) for b in b_list], z))


def beta_series_ref(alpha: float, beta: float, kind: str, x: float) -> float:
    """U(x) (kind 'cosine') or V(x) ('sine') of beta(alpha, beta) from its
    2F3 representation, summed by 50-digit mpmath.hyper at -x^2/4 formed
    exactly.

    The parameters, and the sine prefactor b x / (a + b), are the doubles
    float64 arithmetic gives, as beta_series forms them: this checks the
    summation. Forming them exactly instead moves U by up to a few 1e-16
    (each parameter is off by up to half an ulp), more than beta_series's
    estimate allows for at some points, e.g. beta(0.05, 1.7831766493176908)
    cosine at x = 26.78125."""
    import mpmath as mp
    s = alpha + beta
    if kind == "cosine":
        num, den, pref = (0.5 * beta, 0.5 * (beta + 1.0)), \
            (0.5, 0.5 * s, 0.5 * (s + 1.0)), 1.0
    else:
        num, den, pref = (0.5 * (beta + 1.0), 0.5 * (beta + 2.0)), \
            (1.5, 0.5 * (s + 1.0), 0.5 * (s + 2.0)), beta * x / s
    with mp.workdps(50):
        z = -mp.mpf(x) ** 2 / 4
    return pref * pfq_ref(num, den, z)
