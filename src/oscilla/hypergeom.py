"""Generalized hypergeometric series pFq for the alternating arguments that
arise from beta densities.

The beta-density transforms have entire-function representations

    U(x) = 2F3(b/2, (b+1)/2; 1/2, (a+b)/2, (a+b+1)/2; -x^2/4)
    V(x) = (b x/(a+b)) * 2F3((b+1)/2, (b+2)/2; 3/2, (a+b+1)/2, (a+b+2)/2; -x^2/4)

for beta(a, b); beta_series evaluates those. hyp_pfq sums the defining
series by term recurrence in one loop over two number types. The
alternating terms grow like e^(2 sqrt|z|) before decaying, so float64
summation loses roughly 2*sqrt(|z|)/ln(10) digits: up to |z| = 36 the loop
runs in float64 with compensated accumulation, beyond it in mpmath numbers
at a working precision scaled to the cancellation, and beyond |z| = 400
(x = 40) the series regime is refused outright in favor of quadrature.
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


class _Adder:
    """Plain running sum at the ambient mpmath working precision."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, x) -> None:
        self.total += x


def _sum_series(num, den, z, tol, acc, floor):
    """Sum pFq(num; den; z) term by term into acc.

    num, den, z and floor share one number type: float64 with a
    CompensatedSum, or mpf with an _Adder under mp.workdps. Stops after
    _CONSECUTIVE_SMALL consecutive decreasing terms below
    tol * max(|partial sum|, floor); returns (total, last |term|,
    sum of |term|, terms used).
    """
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
        if t_abs < tol * max(abs(acc.total), floor) and t_abs < prev_abs:
            small_run += 1
            if small_run >= _CONSECUTIVE_SMALL:
                return acc.total, t_abs, abs_sum, n + 1
        else:
            small_run = 0
        prev_abs = t_abs
    raise SeriesCancellationError(
        f"series did not meet tol={tol:g} within {_MAX_TERMS} terms "
        f"(|z|={abs(float(z)):g})")


def hyp_pfq(spec: HypSpec, z, tol: float | None = None) -> EvalResult:
    """Sum pFq(spec; z) for z <= 0, |z| <= 400.

    Term-by-term recurrence with a stopping rule of three consecutive
    decreasing terms below tol * |partial sum|. Positive z or |z| beyond the
    regime limit raises SeriesRegimeError; the cancellation regime between
    |z| = 36 and 400 is summed in widened precision.

    z may be an mpmath mpf as well as a float. In the widened-precision
    regime the alternating sum cancels down by up to fifteen orders, so the
    value is genuinely sensitive to the last bits of z: a caller holding
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
        v, t_abs, abs_sum, _ = _sum_series(spec.numerator, spec.denominator,
                                           zf, tol, CompensatedSum(), 1e-300)
        return EvalResult(v, t_abs + 1e-16 * abs_sum, "series")
    # working precision sized to the cancellation: max term ~ e^(2 sqrt|z|).
    # every factor, parameter sums included, must be formed at working
    # precision: float64 rounding inside a term is amplified by the full
    # cancellation ratio
    x_equiv = 2.0 * math.sqrt(abs(zf))
    with mp.workdps(20 + int(0.46 * x_equiv)):
        s, t_abs, _, _ = _sum_series(
            [mp.mpf(a) for a in spec.numerator],
            [mp.mpf(b) for b in spec.denominator], mp.mpf(z), tol, _Adder(),
            mp.mpf("1e-300"))
    v = float(s)
    return EvalResult(v, float(t_abs) + 1e-16 * (1.0 + abs(v)), "series")


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
