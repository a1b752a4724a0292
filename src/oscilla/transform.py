"""Finite Fourier cosine/sine transforms of a density and their derivatives.

    cosine            U(x)  =  integral_0^1 f(t) cos(xt) dt
    sine              V(x)  =  integral_0^1 f(t) sin(xt) dt
    d_cosine          U'(x) = -integral_0^1 t f(t) sin(xt) dt
    d_sine            V'(x) =  integral_0^1 t f(t) cos(xt) dt
    cosine_reflected  transform of t -> f(1-t), likewise sine_reflected

Reflected kinds are integrated directly and cross-checked against the
trigonometric identities

    U_r(x) = cos(x) U(x) + sin(x) V(x)
    V_r(x) = sin(x) U(x) - cos(x) V(x)

with a ConsistencyError if the two routes disagree beyond what the error
estimates allow. closed_form() returns exact elementary expressions for the
families that have them; evaluate() (one x) and evaluate_many() (a vector
of x on one shared node set) always go through quadrature, so the two are
genuinely independent routes.
"""
from __future__ import annotations

import enum
import math
import os

import mpmath as mp
import numpy as np

from .density import Density
from .errors import ConsistencyError, ParameterError
from .quadrature import oscillatory_integral, oscillatory_integrals

DEFAULT_TOL = 1e-10
TOL_FLOOR = 1e-14
TOL_CEIL = 1e-3
_ENV_TOL = "OSCILLA_TOL"


class TransformKind(str, enum.Enum):
    COSINE = "cosine"
    SINE = "sine"
    D_COSINE = "d_cosine"
    D_SINE = "d_sine"
    COSINE_REFLECTED = "cosine_reflected"
    SINE_REFLECTED = "sine_reflected"


_KIND_ALIASES = {
    "cosine": TransformKind.COSINE, "cos": TransformKind.COSINE,
    "u": TransformKind.COSINE,
    "sine": TransformKind.SINE, "sin": TransformKind.SINE,
    "v": TransformKind.SINE,
    "d_cosine": TransformKind.D_COSINE, "dcos": TransformKind.D_COSINE,
    "du": TransformKind.D_COSINE,
    "d_sine": TransformKind.D_SINE, "dsin": TransformKind.D_SINE,
    "dv": TransformKind.D_SINE,
    "cosine_reflected": TransformKind.COSINE_REFLECTED,
    "ur": TransformKind.COSINE_REFLECTED,
    "sine_reflected": TransformKind.SINE_REFLECTED,
    "vr": TransformKind.SINE_REFLECTED,
}


def coerce_kind(kind) -> TransformKind:
    if isinstance(kind, TransformKind):
        return kind
    try:
        return _KIND_ALIASES[str(kind).strip().lower()]
    except KeyError:
        raise ParameterError(f"unknown transform kind {kind!r}") from None


class EvalResult(float):
    """A float carrying an error estimate and the method that produced it.

    Behaves as its value in arithmetic; .value, .abs_error_estimate and
    .method give the details.
    """

    def __new__(cls, value: float, abs_error_estimate: float, method: str):
        obj = super().__new__(cls, value)
        obj.abs_error_estimate = float(abs_error_estimate)
        obj.method = method
        return obj

    @property
    def value(self) -> float:
        return float(self)

    def __repr__(self) -> str:
        return (f"EvalResult({float(self)!r}, "
                f"abs_error_estimate={self.abs_error_estimate:.3e}, "
                f"method={self.method!r})")


def default_tol() -> float:
    """Absolute tolerance used when none is passed: the OSCILLA_TOL
    environment variable if set, else 1e-10."""
    raw = os.environ.get(_ENV_TOL)
    if raw is None:
        return DEFAULT_TOL
    try:
        t = float(raw)
    except ValueError:
        raise ParameterError(f"{_ENV_TOL} is not a number: {raw!r}") from None
    return _check_tol(t)


def _check_tol(tol: float) -> float:
    if not (TOL_FLOOR <= tol <= TOL_CEIL):
        raise ParameterError(
            f"tolerance must lie in [{TOL_FLOOR:g}, {TOL_CEIL:g}], got {tol:g}")
    return float(tol)


def resolve_tol(tol: float | None) -> float:
    return default_tol() if tol is None else _check_tol(tol)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------
# Each entry is a function of (x, lib) where lib is either the math module or
# mpmath; below x = 0.5 the expressions are evaluated in 40-digit arithmetic
# to absorb the cancellation all of them suffer as x -> 0.


def _cf_uniform_cos(x, lb):
    return lb.sin(x) / x


def _cf_uniform_sin(x, lb):
    return (1 - lb.cos(x)) / x


def _cf_uniform_dcos(x, lb):
    return (x * lb.cos(x) - lb.sin(x)) / (x * x)


def _cf_uniform_dsin(x, lb):
    return (lb.cos(x) + x * lb.sin(x) - 1) / (x * x)


def _cf_t_cos(x, lb):  # integral of 2t cos(xt): beta(1,2) cosine
    return 2 * (lb.cos(x) + x * lb.sin(x) - 1) / (x * x)


def _cf_t_sin(x, lb):  # 2t sine
    return 2 * (lb.sin(x) - x * lb.cos(x)) / (x * x)


def _cf_1mt_cos(x, lb):  # beta(2,1): 2(1-t) cosine
    return 2 * (1 - lb.cos(x)) / (x * x)


def _cf_1mt_sin(x, lb):
    return 2 * (x - lb.sin(x)) / (x * x)


# moments of t^d against the kernels, d = 1..4: C_d = int t^d cos, S_d = int t^d sin
def _cs_power(d: int, x, lb):
    s, c = lb.sin(x), lb.cos(x)
    if d == 1:
        return ((c + x * s - 1) / x ** 2,
                (s - x * c) / x ** 2)
    if d == 2:
        return ((2 * x * c + (x * x - 2) * s) / x ** 3,
                (2 * x * s - (x * x - 2) * c - 2) / x ** 3)
    if d == 3:
        return (((x ** 3 - 6 * x) * s + (3 * x * x - 6) * c + 6) / x ** 4,
                ((6 * x - x ** 3) * c + (3 * x * x - 6) * s) / x ** 4)
    if d == 4:
        return (((x ** 4 - 12 * x * x + 24) * s + (4 * x ** 3 - 24 * x) * c) / x ** 5,
                ((24 - 12 * x * x + x ** 4) * (-c) + (4 * x ** 3 - 24 * x) * s + 24) / x ** 5)
    raise ValueError(d)


# gegenbauer(0.5) is the uniform density 1 = beta(1, 1), and gegenbauer(1.5)
# is 1 - t^2 = kuttner(2, 1); both read the other family's closed forms
_SAME_DENSITY = {("gegenbauer", (0.5,)): ("beta", (1.0, 1.0)),
                 ("gegenbauer", (1.5,)): ("kuttner", (2.0, 1.0))}


def _closed_form_expr(d: Density, kind: TransformKind):
    """Return expr(x, lib) for (density, kind) or None."""
    fam, p = _SAME_DENSITY.get((d.family, d.params), (d.family, d.params))
    if fam == "beta":
        if p == (1.0, 1.0):
            return {TransformKind.COSINE: _cf_uniform_cos,
                    TransformKind.SINE: _cf_uniform_sin,
                    TransformKind.D_COSINE: _cf_uniform_dcos,
                    TransformKind.D_SINE: _cf_uniform_dsin,
                    TransformKind.COSINE_REFLECTED: _cf_uniform_cos,
                    TransformKind.SINE_REFLECTED: _cf_uniform_sin}.get(kind)
        if p == (2.0, 1.0):
            return {TransformKind.COSINE: _cf_1mt_cos,
                    TransformKind.SINE: _cf_1mt_sin,
                    TransformKind.COSINE_REFLECTED: _cf_t_cos,
                    TransformKind.SINE_REFLECTED: _cf_t_sin}.get(kind)
        if p == (1.0, 2.0):
            return {TransformKind.COSINE: _cf_t_cos,
                    TransformKind.SINE: _cf_t_sin,
                    TransformKind.COSINE_REFLECTED: _cf_1mt_cos,
                    TransformKind.SINE_REFLECTED: _cf_1mt_sin}.get(kind)
        return None
    if fam == "kuttner" and p[1] == 1.0 and p[0] in (1.0, 2.0, 3.0, 4.0):
        dd = int(p[0])

        if kind == TransformKind.COSINE:
            def expr(x, lb, _d=dd):
                return lb.sin(x) / x - _cs_power(_d, x, lb)[0]
            return expr
        if kind == TransformKind.SINE:
            def expr(x, lb, _d=dd):
                return (1 - lb.cos(x)) / x - _cs_power(_d, x, lb)[1]
            return expr
        return None
    if fam == "quadratic":
        a, b = p
        if kind == TransformKind.COSINE:
            def expr(x, lb, _a=a, _b=b):
                return (_a * lb.sin(x) / x
                        - _b * _cs_power(2, x, lb)[0])
            return expr
        if kind == TransformKind.SINE:
            def expr(x, lb, _a=a, _b=b):
                return (_a * (1 - lb.cos(x)) / x
                        - _b * _cs_power(2, x, lb)[1])
            return expr
        return None
    return None


def _value_at_zero(d: Density, kind: TransformKind) -> float:
    if kind in (TransformKind.SINE, TransformKind.SINE_REFLECTED,
                TransformKind.D_COSINE):
        return 0.0
    if kind in (TransformKind.COSINE, TransformKind.COSINE_REFLECTED):
        return d.moment0
    return d.moment1  # d_sine: V'(0) = integral t f


def closed_form(d: Density, kind, x: float) -> EvalResult | None:
    """Exact elementary expression for the transform, when one exists.

    Returns None for (density, kind) pairs without one. Small arguments go
    through 40-digit arithmetic because every expression here cancels as
    x -> 0.
    """
    kind = coerce_kind(kind)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ParameterError(f"x must be finite and >= 0, got {x!r}")
    expr = _closed_form_expr(d, kind)
    if expr is None:
        return None
    if x == 0.0:
        v = _value_at_zero(d, kind)
    elif x < 0.5:
        # the x -> 0 cancellation deepens like x^-5, so widen precision as
        # x shrinks
        dps = 40 + int(6.0 * max(0.0, -math.log10(x)))
        with mp.workdps(dps):
            v = float(expr(mp.mpf(x), mp))
    else:
        v = float(expr(x, math))
    return EvalResult(v, 1e-15 * (1.0 + abs(v)), "closed_form")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


# non-reflected kind -> (weight carries a factor t, kernel, sign); the
# derivatives differentiate under the integral, U'(x) = -int t f sin(xt)
# and V'(x) = int t f cos(xt), the factor t removing a singularity at 0
_QUAD_TABLE = {
    TransformKind.COSINE: (False, "cos", 1.0),
    TransformKind.SINE: (False, "sin", 1.0),
    TransformKind.D_COSINE: (True, "sin", -1.0),
    TransformKind.D_SINE: (True, "cos", 1.0),
}


def _quad(d: Density, kind: TransformKind, x, tol: float, integral):
    """One quadrature pass for a non-reflected kind. x is one abscissa and
    integral is oscillatory_integral, or x is an array of them and
    integral is oscillatory_integrals."""
    t_weighted, kernel, sign = _QUAD_TABLE[kind]
    w2 = (lambda t, omt: t * d._eval2(t, omt)) if t_weighted else d._eval2
    v, e = integral(w2, x, kernel, singular_at_0=d.singular_at_0,
                    singular_at_1=d.singular_at_1,
                    breakpoints=d.breakpoints, tol=tol)
    return sign * v, e


def _integrate(d: Density, kind: TransformKind, x, tol: float, integral):
    """(value, error) of any kind at x > 0, as _quad. Reflected kinds are
    integrated directly and cross-checked against the cos/sin combination
    identity at every x; disagreement beyond 10*tol raises
    ConsistencyError."""
    if kind not in (TransformKind.COSINE_REFLECTED, TransformKind.SINE_REFLECTED):
        return _quad(d, kind, x, tol, integral)
    w2 = lambda t, omt: d._eval2(omt, t)
    ker = "cos" if kind == TransformKind.COSINE_REFLECTED else "sin"
    v, e = integral(
        w2, x, ker, singular_at_0=d.singular_at_1,
        singular_at_1=d.singular_at_0,
        breakpoints=tuple(sorted(1.0 - b for b in d.breakpoints)),
        tol=tol)
    u, _ = _quad(d, TransformKind.COSINE, x, tol, integral)
    w, _ = _quad(d, TransformKind.SINE, x, tol, integral)
    if kind == TransformKind.COSINE_REFLECTED:
        ident = np.cos(x) * u + np.sin(x) * w
    else:
        ident = np.sin(x) * u - np.cos(x) * w
    gap = np.abs(v - ident)
    bad = np.flatnonzero(gap > 10.0 * tol)
    if bad.size:
        xi, vi, ii = (float(np.ravel(a)[bad[0]]) for a in (x, v, ident))
        raise ConsistencyError(
            f"reflected {kind.value} at x={xi:g}: direct quadrature "
            f"{vi:.15g} vs identity {ii:.15g}",
            direct=vi, via_identity=ii)
    return v, np.maximum(e, gap)


def evaluate(d: Density, kind, x: float, tol: float | None = None) -> EvalResult:
    """Evaluate the requested transform of d at x >= 0 by adaptive quadrature.

    The returned EvalResult is a float with .abs_error_estimate and .method
    attached. Reflected kinds are computed directly and cross-checked
    against the cos/sin combination identity; disagreement beyond 10*tol
    raises ConsistencyError.
    """
    kind = coerce_kind(kind)
    tol = resolve_tol(tol)
    x = float(x)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ParameterError(f"x must be finite and >= 0, got {x!r}")

    if x == 0.0:
        v = _value_at_zero(d, kind)
        return EvalResult(v, 1e-15 * (1.0 + abs(v)), "closed_form")
    v, e = _integrate(d, kind, x, tol, oscillatory_integral)
    return EvalResult(v, e, "quadrature")


def evaluate_many(d: Density, kind, xs,
                  tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the requested transform of d at every x in xs at once.

    Returns float arrays (values, abs_error_estimates) aligned with xs.
    Each quadrature pass covers the whole vector on one node set built for
    max(xs), so a value agrees with evaluate() at the same x to within the
    two error estimates, not bit for bit. x = 0 gives the exact value at the
    origin. Reflected kinds are cross-checked against the combination
    identity at every x, as in evaluate(). xs must be a non-empty
    one-dimensional sequence of finite x >= 0, else ParameterError.
    """
    kind = coerce_kind(kind)
    tol = resolve_tol(tol)
    try:
        arr = np.array(xs, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"xs must be a sequence of numbers, got {xs!r}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(
            f"xs must be a non-empty one-dimensional sequence, got shape {arr.shape}")
    invalid = np.flatnonzero(~(np.isfinite(arr) & (arr >= 0.0)))
    if invalid.size:
        raise ParameterError(
            f"x must be finite and >= 0, got {float(arr[invalid[0]])!r}")

    values = np.empty(arr.size)
    errors = np.empty(arr.size)
    at_zero = arr == 0.0
    if at_zero.any():
        v = _value_at_zero(d, kind)
        values[at_zero] = v
        errors[at_zero] = 1e-15 * (1.0 + abs(v))
    rest = ~at_zero
    if rest.any():
        values[rest], errors[rest] = _integrate(d, kind, arr[rest], tol,
                                                oscillatory_integrals)
    return values, errors
