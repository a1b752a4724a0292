"""Generalized hypergeometric series pFq for the alternating arguments that
arise from beta densities.

The beta-density transforms have entire-function representations

    U(x) = 2F3(b/2, (b+1)/2; 1/2, (a+b)/2, (a+b+1)/2; -x^2/4)
    V(x) = (b x/(a+b)) * 2F3((b+1)/2, (b+2)/2; 3/2, (a+b+1)/2, (a+b+2)/2; -x^2/4)

for beta(a, b); beta_series evaluates those. hyp_pfq sums the defining
series by term recurrence. The alternating terms grow like e^(2 sqrt|z|)
before decaying, so float64 summation loses roughly 2*sqrt(|z|)/ln(10)
digits: up to |z| = 36 the loop runs in float64 with compensated
accumulation; beyond it the terms are summed in fixed point, as Python
integers at a scale 2^wp wide enough for the cancellation, with the
parameters and z converted to integers exactly, so that one floor division
per term is the only rounding; and beyond |z| = 400 (x = 40) the series
regime is refused outright in favor of quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import ParameterError, SeriesCancellationError, SeriesRegimeError
from .quadrature import CompensatedSum
from .transform import EvalResult, coerce_kind, resolve_tol, TransformKind

SERIES_X_LIMIT = 40.0
SERIES_ARG_LIMIT = 400.0   # |z| at the x = 40 switch, z = -x^2/4
_F64_ARG_LIMIT = 36.0      # beyond this, float64 loses > ~5 digits
_MAX_TERMS = 300
_CONSECUTIVE_SMALL = 3
_GUARD_BITS = 20           # fixed-point bits beyond what the error bound needs
_RISE_MARGIN_BITS = 56     # 2^(16 + rise - wp) <= 2^-60 once wp >= rise + 76
_MAX_RISE_BITS = 4096      # terms rising further are refused, not summed
_BITS_PER_DIGIT = math.log2(10.0)


@dataclass(frozen=True)
class HypSpec:
    """Parameter list of a pFq with p <= 2 numerator and q <= 3 denominator
    parameters, all positive (no polynomial or singular cases)."""

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]

    def __post_init__(self):
        num = tuple(float(a) for a in self.numerator)
        den = tuple(float(b) for b in self.denominator)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        if len(num) > 2:
            raise ParameterError("at most two numerator parameters supported")
        if len(den) > 3:
            raise ParameterError("at most three denominator parameters supported")
        for a in num:
            if not (a > 0.0 and math.isfinite(a)):
                raise ParameterError(f"numerator parameters must be positive, got {a!r}")
        for b in den:
            if not (b > 0.0 and math.isfinite(b)):
                raise ParameterError(f"denominator parameters must be positive, got {b!r}")


def _sum_float64(num, den, z, tol):
    """Sum pFq(num; den; z) term by term in float64 with a CompensatedSum.

    Stops after _CONSECUTIVE_SMALL consecutive decreasing terms below
    tol * max(|partial sum|, 1e-300); returns (total, last |term|,
    sum of |term|, terms used).
    """
    acc = CompensatedSum()
    acc.add(1)
    term = abs_sum = prev_abs = 1
    small_run = 0
    for n in range(_MAX_TERMS):
        ratio = z / (n + 1)
        for a in num:
            ratio *= a + n
        for b in den:
            ratio /= b + n
        term *= ratio
        acc.add(term)
        t_abs = abs(term)
        abs_sum += t_abs
        if t_abs < tol * max(abs(acc.total), 1e-300) and t_abs < prev_abs:
            small_run += 1
            if small_run >= _CONSECUTIVE_SMALL:
                return acc.total, t_abs, abs_sum, n + 1
        else:
            small_run = 0
        prev_abs = t_abs
    raise _no_convergence(tol, z)


def _no_convergence(tol, z) -> SeriesCancellationError:
    return SeriesCancellationError(
        f"series did not meet tol={tol:g} within {_MAX_TERMS} terms "
        f"(|z|={abs(float(z)):g})")


def _dyadic(v) -> tuple[int, int]:
    """(m, k) with v == m / 2**k exactly, for a finite float or mpf."""
    mpf = getattr(v, "_mpf_", None)
    if mpf is None:
        m, d = float(v).as_integer_ratio()
        return m, d.bit_length() - 1
    sign, man, exp, _ = mpf
    m = -man if sign else man
    return (m << exp, 0) if exp >= 0 else (m, -exp)


def _rise_bits(num, den, zabs: float) -> float:
    """log2 of the largest rise max over k <= n of |t_n / t_k| among the
    terms t_n of pFq(num; den; -zabs), from float64 term ratios.

    The scan stops at the first n where R(n), the product of zabs/(n+1),
    max(1, (a_i+n)/(b_i+n)) over the paired parameters and 1/(b_j+n) over
    the unpaired denominators, is at most 1: R bounds |t_(m+1) / t_m| for
    every m >= n and does not increase with n, so no later term exceeds
    t_n. An unpaired numerator (p > q) has no such bound, and the scan
    covers all _MAX_TERMS ratios.
    """
    pairs = list(zip(num, den))
    more_num, more_den = num[len(pairs):], den[len(pairs):]
    log_t = low = rise = 0.0
    for n in range(_MAX_TERMS):
        ratio = bound = zabs / (n + 1)
        for a, b in pairs:
            f = (a + n) / (b + n)
            ratio *= f
            if f > 1.0:
                bound *= f
        for b in more_den:
            ratio /= b + n
            bound /= b + n
        for a in more_num:
            ratio *= a + n
            bound = math.inf
        if bound <= 1.0:
            break
        if 0.0 < ratio < math.inf:
            log_t += math.log2(ratio)
        else:   # over- or underflow at extreme parameters: add the logs
            log_t += (math.log2(zabs / (n + 1))
                      + sum(math.log2(a + n) for a in num)
                      - sum(math.log2(b + n) for b in den))
        if log_t < low:
            low = log_t
        elif log_t - low > rise:
            rise = log_t - low
    return rise


def _sum_fixed(num, den, z, tol, wp):
    """Sum pFq(num; den; z) with every term an integer at scale 2^wp.

    Same stopping rule as _sum_float64, compared exactly in integers, with
    one unit 2^-wp as the floor of |partial sum|; a term of 0 ends the sum.
    Returns (total, last |term|) as integers at scale 2^wp, and the terms
    used.
    """
    zm, zk = _dyadic(z)
    nums = [_dyadic(a) for a in num]
    dens = [_dyadic(b) for b in den]
    # with a = m / 2^k, a + n = (m + n 2^k) / 2^k: the powers of two of z
    # and of every parameter collect in one shift of the term ratio
    shift = sum(k for _, k in dens) - sum(k for _, k in nums) - zk
    zm <<= max(shift, 0)
    den_shift = max(-shift, 0)
    nums = [(m, 1 << k) for m, k in nums]
    dens = [(m, 1 << k) for m, k in dens]
    tol_num, tol_den = float(tol).as_integer_ratio()
    term = total = prev_abs = 1 << wp
    small_run = 0
    for n in range(_MAX_TERMS):
        top = term * zm
        for m, u in nums:
            top *= m + n * u
        bottom = (n + 1) << den_shift
        for m, u in dens:
            bottom *= m + n * u
        term = top // bottom
        if not term:   # below one unit: every later term is 0 as well
            return total, 0, n + 1
        total += term
        t_abs = abs(term)
        if t_abs < prev_abs and t_abs * tol_den < tol_num * max(abs(total), 1):
            small_run += 1
            if small_run >= _CONSECUTIVE_SMALL:
                return total, t_abs, n + 1
        else:
            small_run = 0
        prev_abs = t_abs
    raise _no_convergence(tol, z)


def _to_float(m: int, wp: int) -> float:
    """m / 2^wp, correctly rounded; +-inf past the float range."""
    try:
        return m / (1 << wp)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def hyp_pfq(spec: HypSpec, z, tol: float | None = None) -> EvalResult:
    """Sum pFq(spec; z) for z <= 0, |z| <= 400.

    Term-by-term recurrence with a stopping rule of three consecutive
    decreasing terms below tol * |partial sum|. Positive z or |z| beyond the
    regime limit raises SeriesRegimeError. Up to |z| = 36 the sum runs in
    float64 with estimate last |term| + 1e-16 sum |term|.

    Beyond |z| = 36 it runs in fixed point: each term t_n is an integer
    T_n ~ t_n 2^wp. The parameters and z are dyadic rationals m / 2^k
    (floats through as_integer_ratio, an mpf through _mpf_), so T_(n+1) is
    one floor division of the exact product T_n z prod(a_i + n) by
    (n+1) prod(b_j + n), both made integers by powers of two; the floor is
    the only rounding. Each floor errs by less than one unit 2^-wp, and an
    error in T_k reaches T_n multiplied by |t_n / t_k|, so over the
    N <= 300 terms the sum is off by less than N(N+1)/2 * 2^(rise - wp)
    < 2^(16 + rise - wp), where 2^rise bounds every |t_n / t_k|, k <= n
    (_rise_bits). The scale is

        wp = 20 + max(bits of 20 + int(0.46 * 2 sqrt|z|) digits, rise + 56)

    so that error stays below 2^-60, under one percent of the 1e-16 (1+|v|)
    term of the estimate last |term| + 1e-16 (1 + |v|). The beta-density
    specs rise by at most about e^(2 sqrt|z|) and the digit rule decides
    their scale; specs whose terms grow faster, such as 1F1 and 0F0 (e^|z|),
    get theirs from the rise. Terms rising by more than 2^4096 raise
    SeriesCancellationError. Value and estimate are converted by correctly
    rounded integer division.

    z may be an mpmath mpf as well as a float. In the fixed-point regime the
    alternating sum cancels down by up to fifteen orders, so the value is
    genuinely sensitive to the last bits of z: a caller holding
    z = -x^2/4 should form it in extended precision (see series_argument)
    rather than round it through float64 first.
    """
    tol = resolve_tol(tol)
    zf = float(z)
    if not math.isfinite(zf):
        raise ParameterError(f"series argument must be finite, got {z!r}")
    if zf > 0.0:
        raise SeriesRegimeError(
            f"series evaluation supports z <= 0 only, got z={zf:g}")
    if abs(zf) > SERIES_ARG_LIMIT:
        raise SeriesRegimeError(
            f"|z|={abs(zf):g} beyond the series regime limit {SERIES_ARG_LIMIT:g}; "
            "use quadrature")
    if zf == 0.0:
        return EvalResult(1.0, 0.0, "series")
    if abs(zf) <= _F64_ARG_LIMIT:
        v, t_abs, abs_sum, _ = _sum_float64(spec.numerator, spec.denominator,
                                            zf, tol)
        return EvalResult(v, t_abs + 1e-16 * abs_sum, "series")
    rise = _rise_bits(spec.numerator, spec.denominator, abs(zf))
    if rise > _MAX_RISE_BITS:
        raise SeriesCancellationError(
            f"terms rise by 2^{rise:.0f} before decaying (|z|={abs(zf):g}); "
            f"cancellation beyond 2^{_MAX_RISE_BITS} is not summed")
    digits = 20 + int(0.46 * (2.0 * math.sqrt(abs(zf))))
    # (digits + 1) log2(10) bits, as mpmath sizes a working precision
    wp = _GUARD_BITS + max(round((digits + 1) * _BITS_PER_DIGIT),
                           math.ceil(rise) + _RISE_MARGIN_BITS)
    total, t_abs, _ = _sum_fixed(spec.numerator, spec.denominator, z, tol, wp)
    v = _to_float(total, wp)
    return EvalResult(v, _to_float(t_abs, wp) + 1e-16 * (1.0 + abs(v)),
                      "series")


def series_argument(x: float):
    """-x^2/4 carrying enough precision for hyp_pfq at this x.

    Small arguments stay float64; once the sum needs widened precision the
    square is formed under mpmath so no information is lost before the
    cancellation."""
    x = float(x)
    if 0.25 * x * x <= _F64_ARG_LIMIT:
        return -0.25 * x * x
    with mp.workdps(40):
        return mp.mpf(x) ** 2 / (-4)


def beta_series(alpha: float, beta: float, kind, x: float,
                tol: float | None = None) -> EvalResult:
    """Series value of the cosine or sine transform of beta(alpha, beta)
    at 0 <= x <= 40."""
    kind = coerce_kind(kind)
    tol = resolve_tol(tol)
    if not (alpha > 0.0 and beta > 0.0):
        raise ParameterError(
            f"beta_series requires alpha, beta > 0, got ({alpha:g}, {beta:g})")
    x = float(x)
    if not (0.0 <= x and math.isfinite(x)):
        raise ParameterError(f"x must be finite and >= 0, got {x!r}")
    if x > SERIES_X_LIMIT:
        raise SeriesRegimeError(
            f"series regime ends at x = {SERIES_X_LIMIT:g}, got x = {x:g}; "
            "use quadrature")
    z = series_argument(x)
    s = alpha + beta
    if kind == TransformKind.COSINE:
        spec = HypSpec((0.5 * beta, 0.5 * (beta + 1.0)),
                       (0.5, 0.5 * s, 0.5 * (s + 1.0)))
        return hyp_pfq(spec, z, tol)
    if kind == TransformKind.SINE:
        if x == 0.0:
            return EvalResult(0.0, 0.0, "series")
        spec = HypSpec((0.5 * (beta + 1.0), 0.5 * (beta + 2.0)),
                       (1.5, 0.5 * (s + 1.0), 0.5 * (s + 2.0)))
        f = hyp_pfq(spec, z, tol)
        pref = beta * x / s
        return EvalResult(pref * float(f), abs(pref) * f.abs_error_estimate
                          + 1e-16 * abs(pref * float(f)), "series")
    raise ParameterError(
        f"beta_series supports cosine and sine kinds, got {kind.value}")
