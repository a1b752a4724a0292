"""Densities on (0, 1): named parameter families, shape analysis, reflection.

A Density bundles a positive weight f on (0, 1) with everything the
transform and classification layers need to know about it: how to evaluate
it stably near the endpoints, whether the endpoints are non-smooth, its
first two moments when they have closed forms, and a ShapeReport describing
monotonicity and convexity.

Shape reports for the named families come from exact sign analysis of f'
and f'' (closed forms below); custom densities fall back to numerical
probing and are marked inferred.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

from .errors import NonIntegrableError, ParameterError
from .quadrature import plain_integral

_INF = float("inf")


# ---------------------------------------------------------------------------
# shape reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeReport:
    """Monotonicity/convexity summary of a density on (0, 1).

    monotonicity and convexity are strict-sense labels ("increasing",
    "decreasing", "neither" / "convex", "concave", "neither"); affine and
    constant functions get "neither" plus the is_affine / is_constant flags,
    and the weak-sense helpers below fold those flags back in.

    general_case is False exactly when f coincides almost everywhere with a
    piecewise constant function whose jumps sit at rational points; several
    strict-inequality conclusions about zero locations degrade to weak ones
    in that degenerate situation. deriv_general_case is the same flag for f'.

    neg_deriv_at_0 is lim_{t->0+} -f'(t) (possibly +inf), populated only
    when f is non-increasing; deriv_shape describes -f' in that case when a
    closed-form analysis exists.
    """

    monotonicity: str
    convexity: str
    is_constant: bool = False
    is_affine: bool = False
    general_case: bool = True
    deriv_general_case: bool = True
    f_at_0: float | None = None
    f_at_1: float | None = None
    neg_deriv_at_0: float | None = None
    deriv_shape: "ShapeReport | None" = None
    inferred: bool = False
    low_confidence: bool = False

    def is_increasing(self) -> bool:
        return self.monotonicity == "increasing" or self.is_constant

    def is_decreasing(self) -> bool:
        return self.monotonicity == "decreasing" or self.is_constant

    def is_convex_weak(self) -> bool:
        return self.convexity == "convex" or self.is_affine

    def is_concave_weak(self) -> bool:
        return self.convexity == "concave" or self.is_affine


def _reflect_shape(s: ShapeReport) -> ShapeReport:
    mono = {"increasing": "decreasing", "decreasing": "increasing"}.get(
        s.monotonicity, s.monotonicity)
    return ShapeReport(
        monotonicity=mono,
        convexity=s.convexity,
        is_constant=s.is_constant,
        is_affine=s.is_affine,
        general_case=s.general_case,
        deriv_general_case=s.deriv_general_case,
        f_at_0=s.f_at_1,
        f_at_1=s.f_at_0,
        neg_deriv_at_0=None,
        deriv_shape=None,
        inferred=s.inferred,
        low_confidence=s.low_confidence,
    )


# ---------------------------------------------------------------------------
# the Density record
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Density:
    """A positive integrable weight on (0, 1).

    _eval2(t, one_minus_t) takes numpy arrays with both the point and its
    exact distance from 1, so weights singular at either endpoint can be
    sampled without forming 1 - t in floating point; calling the density
    itself on an array of t forms 1 - t and goes through it. singular_at_0/1 flag
    endpoints where f fails to extend analytically (integrable blow-ups and
    fractional-power vanishing alike); the quadrature engine switches to a
    double-exponential rule on panels touching a flagged endpoint.
    """

    family: str
    params: tuple[float, ...]
    label: str
    shape: ShapeReport
    singular_at_0: bool
    singular_at_1: bool
    breakpoints: tuple[float, ...] = ()
    _eval2: object = None
    _moment0: float | None = None
    _moment1: float | None = None
    _reflected_from: "Density | None" = None

    def __call__(self, t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = self._eval2(arr, 1.0 - arr)
        return out if np.ndim(t) else float(out[0])

    @property
    def moment0(self) -> float:
        """integral of f over (0, 1)."""
        if self._moment0 is not None:
            return self._moment0
        v, _ = plain_integral(self._eval2, singular_at_0=self.singular_at_0,
                              singular_at_1=self.singular_at_1,
                              breakpoints=self.breakpoints)
        object.__setattr__(self, "_moment0", v)
        return v

    @property
    def moment1(self) -> float:
        """integral of t*f(t) over (0, 1)."""
        if self._moment1 is not None:
            return self._moment1
        v, _ = plain_integral(lambda t, omt: t * self._eval2(t, omt),
                              singular_at_0=False,
                              singular_at_1=self.singular_at_1,
                              breakpoints=self.breakpoints)
        object.__setattr__(self, "_moment1", v)
        return v

    def __repr__(self) -> str:
        return f"Density({self.label})"


# ---------------------------------------------------------------------------
# closed-form shape analysis per family
# ---------------------------------------------------------------------------


def _quad_sign_on_01(c0: float, c1: float, c2: float) -> str:
    """Sign of c0 + c1*t + c2*t^2 on [0, 1]: 'nonneg', 'nonpos', or 'mixed'.
    Zero polynomial reports 'zero'."""
    if c0 == 0.0 and c1 == 0.0 and c2 == 0.0:
        return "zero"
    vals = [c0, c0 + c1 + c2]
    if c2 != 0.0:
        tstar = -c1 / (2.0 * c2)
        if 0.0 < tstar < 1.0:
            vals.append(c0 + c1 * tstar + c2 * tstar * tstar)
    lo, hi = min(vals), max(vals)
    eps = 1e-13 * max(abs(c0), abs(c1), abs(c2), 1.0)
    if lo >= -eps:
        return "nonneg"
    if hi <= eps:
        return "nonpos"
    return "mixed"


def _beta_shape(al: float, be: float) -> ShapeReport:
    # f = t^(be-1) (1-t)^(al-1) / B(al, be); write A = be-1, B = al-1.
    # t(1-t) f'/f = A(1-t) - B t, and t^2 (1-t)^2 f''/f = Q(t) with
    # Q(t) = A(A-1) + 2A(1-S) t + S(S-1) t^2, S = A + B.
    A = be - 1.0
    B = al - 1.0
    S = A + B

    if A == 0.0 and B == 0.0:
        return ShapeReport("neither", "neither", is_constant=True,
                           is_affine=True, general_case=False,
                           deriv_general_case=False, f_at_0=1.0, f_at_1=1.0,
                           neg_deriv_at_0=0.0)

    if A >= 0.0 and B <= 0.0:
        mono = "increasing"
    elif A <= 0.0 and B >= 0.0:
        mono = "decreasing"
    else:
        mono = "neither"

    q = _quad_sign_on_01(A * (A - 1.0), 2.0 * A * (1.0 - S), S * (S - 1.0))
    is_affine = q == "zero"  # exactly (al,be) in {(1,1),(2,1),(1,2)}
    if is_affine:
        conv = "neither"
    elif q == "nonneg":
        conv = "convex"
    elif q == "nonpos":
        conv = "concave"
    else:
        conv = "neither"

    norm = math.exp(-betaln(al, be))
    f0 = _INF if be < 1.0 else (norm if be == 1.0 else 0.0)
    f1 = _INF if al < 1.0 else (norm if al == 1.0 else 0.0)

    L = None
    dshape = None
    if mono == "decreasing":
        if be < 1.0:
            L = _INF
        else:  # be == 1, al >= 1; f = al (1-t)^(al-1), -f' = al(al-1)(1-t)^(al-2)
            L = al * (al - 1.0)
            if al > 1.0:
                if al < 2.0:
                    dmono, d0, d1 = "increasing", al * (al - 1.0), _INF
                elif al == 2.0:
                    dmono, d0, d1 = "neither", 2.0, 2.0
                else:
                    dmono, d0, d1 = "decreasing", al * (al - 1.0), 0.0
                # (-f')'' has the sign of (al-2)(al-3)
                t2 = (al - 2.0) * (al - 3.0)
                if al == 2.0:
                    dconv, daff, dconst = "neither", True, True
                elif al == 3.0:
                    dconv, daff, dconst = "neither", True, False
                elif t2 > 0.0:
                    dconv, daff, dconst = "convex", False, False
                else:
                    dconv, daff, dconst = "concave", False, False
                dshape = ShapeReport(dmono, dconv, is_constant=dconst,
                                     is_affine=daff,
                                     general_case=(al != 2.0),
                                     f_at_0=d0, f_at_1=d1)

    deriv_general = not is_affine  # f' piecewise constant only for the affine trio
    return ShapeReport(mono, conv, is_affine=is_affine,
                       general_case=True, deriv_general_case=deriv_general,
                       f_at_0=f0, f_at_1=f1, neg_deriv_at_0=L,
                       deriv_shape=dshape)


def _kuttner_shape(delta: float, lam: float) -> ShapeReport:
    # f = (1 - t^delta)^lam: strictly decreasing; f'' sign is governed by
    # (delta-1) - (delta*lam - 1) t^delta.
    affine = delta == 1.0 and lam == 1.0
    if affine:
        conv = "neither"
    elif delta <= 1.0 <= lam:
        conv = "convex"
    elif lam <= 1.0 <= delta:
        conv = "concave"
    else:
        # both parameters on the same side of 1: the bracket
        # (delta-1) - (delta*lam-1) t^delta changes sign inside (0,1)
        conv = "neither"

    if delta < 1.0:
        L = _INF
    elif delta == 1.0:
        L = lam
    else:
        L = 0.0

    dshape = None
    if lam == 1.0 and delta != 1.0:
        # -f' = delta * t^(delta-1)
        if delta < 1.0:
            dshape = ShapeReport("decreasing", "convex", f_at_0=_INF, f_at_1=delta)
        else:
            dconv = ("concave" if delta < 2.0
                     else ("neither" if delta == 2.0 else "convex"))
            dshape = ShapeReport("increasing", dconv,
                                 is_affine=(delta == 2.0),
                                 f_at_0=0.0, f_at_1=delta)

    return ShapeReport("decreasing", conv, is_affine=affine,
                       general_case=True,
                       deriv_general_case=not affine,
                       f_at_0=1.0, f_at_1=0.0, neg_deriv_at_0=L,
                       deriv_shape=dshape)


def _power_shape(a: float) -> ShapeReport:
    # f = t^(-a), 0 < a < 1
    dshape = ShapeReport("decreasing", "convex", f_at_0=_INF, f_at_1=a)
    return ShapeReport("decreasing", "convex", f_at_0=_INF, f_at_1=1.0,
                       neg_deriv_at_0=_INF, deriv_shape=dshape)


def _gegenbauer_shape(nu: float) -> ShapeReport:
    # f = (1 - t^2)^(nu - 1/2); write c = nu - 1/2.
    c = nu - 0.5
    if c == 0.0:
        return ShapeReport("neither", "neither", is_constant=True,
                           is_affine=True, general_case=False,
                           deriv_general_case=False,
                           f_at_0=1.0, f_at_1=1.0, neg_deriv_at_0=0.0)
    if c < 0.0:
        # increasing, convex: f'' = 2|c|(1-t^2)^(c-2) (1 + (2c+1)... ) > 0
        return ShapeReport("increasing", "convex", f_at_0=1.0, f_at_1=_INF)
    # c > 0: decreasing; concave iff c <= 1; -f' = 2c t (1-t^2)^(c-1) is
    # increasing and convex on (0,1) for 0 < c < 1, affine for c == 1
    conv = "concave" if c <= 1.0 else "neither"
    f1 = 0.0
    dshape = None
    if c <= 1.0:
        dshape = ShapeReport("increasing",
                             "convex" if c < 1.0 else "neither",
                             is_affine=(c == 1.0),
                             f_at_0=0.0,
                             f_at_1=(_INF if c < 1.0 else 2.0))
    return ShapeReport("decreasing", conv, f_at_0=1.0, f_at_1=f1,
                       neg_deriv_at_0=0.0, deriv_shape=dshape)


def _quadratic_shape(a: float, b: float) -> ShapeReport:
    # f = a - b t^2; -f' = 2 b t is affine increasing with L = 0
    dshape = ShapeReport("increasing", "neither", is_affine=True,
                         f_at_0=0.0, f_at_1=2.0 * b)
    return ShapeReport("decreasing", "concave", f_at_0=a, f_at_1=a - b,
                       neg_deriv_at_0=0.0, deriv_shape=dshape)


def _piecewise_shape(knots: tuple[float, ...], levels: tuple[float, ...]) -> ShapeReport:
    diffs = [levels[i + 1] - levels[i] for i in range(len(levels) - 1)]
    if all(d == 0.0 for d in diffs):
        mono, const = "neither", True
    elif all(d >= 0.0 for d in diffs):
        mono, const = "increasing", False
    elif all(d <= 0.0 for d in diffs):
        mono, const = "decreasing", False
    else:
        mono, const = "neither", False
    rational = all(_is_rationalish(k) for k in knots[1:-1])
    return ShapeReport(mono, "neither", is_constant=const,
                       general_case=not rational,
                       deriv_general_case=False,
                       f_at_0=levels[0], f_at_1=levels[-1])


def _is_rationalish(x: float, max_den: int = 10 ** 6) -> bool:
    from fractions import Fraction
    fr = Fraction(x).limit_denominator(max_den)
    return abs(float(fr) - x) < 1e-12


# ---------------------------------------------------------------------------
# numeric shape inference for custom densities
# ---------------------------------------------------------------------------


def infer_shape(eval2, n: int = 4096) -> ShapeReport:
    """Probe a weight on an interior grid and guess monotonicity/convexity.

    Used for custom densities that declare no shape. The report is flagged
    inferred; low_confidence is set when the sampled sign pattern is not
    clean (more than a sliver of disagreeing differences).
    """
    t = (np.arange(n) + 0.5) / n
    v = eval2(t, 1.0 - t)
    d1 = np.diff(v)
    d2 = np.diff(d1)
    scale = float(np.max(np.abs(v))) + 1e-300
    tol = 1e-11 * scale

    def trend(d, eps):
        pos = int(np.sum(d > eps))
        neg = int(np.sum(d < -eps))
        if pos == 0 and neg == 0:
            return "flat", 0
        if neg == 0:
            return "up", pos
        if pos == 0:
            return "down", neg
        return "mixed", min(pos, neg)

    m, _ = trend(d1, tol)
    mono = {"up": "increasing", "down": "decreasing",
            "flat": "neither", "mixed": "neither"}[m]
    c, bad = trend(d2, tol / n)
    conv = {"up": "convex", "down": "concave",
            "flat": "neither", "mixed": "neither"}[c]
    low_conf = (m == "mixed") or (c == "mixed" and bad > n // 100)

    f0 = float(v[0])
    f1 = float(v[-1])
    edge0 = float(eval2(np.array([1e-9]), np.array([1.0 - 1e-9]))[0])
    edge1 = float(eval2(np.array([1.0 - 1e-9]), np.array([1e-9]))[0])
    if edge0 > 1e8 * max(f0, 1.0):
        f0 = _INF
    else:
        f0 = edge0
    if edge1 > 1e8 * max(f1, 1.0):
        f1 = _INF
    else:
        f1 = edge1

    flat = m == "flat"
    return ShapeReport(mono, "neither" if flat else conv,
                       is_constant=flat, is_affine=flat,
                       general_case=not flat,
                       deriv_general_case=not flat,
                       f_at_0=f0, f_at_1=f1,
                       inferred=True, low_confidence=low_conf)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _fmt(p: float) -> str:
    return f"{p:g}"


def _check_finite(name: str, *vals: float) -> None:
    for v in vals:
        if not math.isfinite(v):
            raise ParameterError(f"{name}: parameters must be finite, got {v!r}")


def make_density(family: str, params=(), *, evaluate=None, shape=None,
                 singular_at_0=None, singular_at_1=None,
                 breakpoints=()) -> Density:
    """Construct a density.

    Named families:
      beta(alpha, beta)        t^(beta-1) (1-t)^(alpha-1) / B(alpha, beta)
      kuttner(delta, lambda)   (1 - t^delta)^lambda
      power(a)                 t^(-a), 0 < a < 1
      gegenbauer(nu)           (1 - t^2)^(nu - 1/2), nu > -1/2
      quadratic(a, b)          a - b t^2, 0 < b <= a
      uniform                  constant 1 (alias for beta(1, 1))
      piecewise(r1, v1, r2, v2, ..., 1, vN)  right endpoints and levels
      custom                   caller-supplied evaluate(t, one_minus_t)

    Positivity of the weight on the open interval is required and spot
    checked for custom densities.
    """
    params = tuple(float(p) for p in params)
    fam = family.lower()

    if fam == "uniform":
        return make_density("beta", (1.0, 1.0))

    if fam == "beta":
        if len(params) != 2:
            raise ParameterError("beta takes two parameters (alpha, beta)")
        al, be = params
        _check_finite("beta", al, be)
        if al <= 0.0 or be <= 0.0:
            raise ParameterError(f"beta requires alpha, beta > 0, got ({al:g}, {be:g})")
        norm = math.exp(-betaln(al, be))
        bm1, am1 = be - 1.0, al - 1.0

        def ev(t, omt, _n=norm, _b=bm1, _a=am1):
            out = np.full_like(t, _n)
            if _b != 0.0:
                out = out * t ** _b
            if _a != 0.0:
                out = out * omt ** _a
            return out

        return Density(
            family="beta", params=params,
            label=f"beta:{_fmt(al)},{_fmt(be)}",
            shape=_beta_shape(al, be),
            singular_at_0=not (be == round(be) and be >= 1.0),
            singular_at_1=not (al == round(al) and al >= 1.0),
            _eval2=ev, _moment0=1.0, _moment1=be / (al + be))

    if fam == "kuttner":
        if len(params) != 2:
            raise ParameterError("kuttner takes two parameters (delta, lambda)")
        de, la = params
        _check_finite("kuttner", de, la)
        if de <= 0.0 or la <= 0.0:
            raise ParameterError(f"kuttner requires delta, lambda > 0, got ({de:g}, {la:g})")

        def ev(t, omt, _d=de, _l=la):
            if _d == 1.0:
                base = omt
            elif _d == 2.0:
                base = omt * (1.0 + t)
            else:
                base = -np.expm1(_d * np.log(t))  # 1 - t^d without cancellation at t=1
            return base ** _l if _l != 1.0 else base

        lg = math.lgamma
        m0 = math.exp(lg(1.0 / de) + lg(la + 1.0) - lg(1.0 / de + la + 1.0)) / de
        m1 = math.exp(lg(2.0 / de) + lg(la + 1.0) - lg(2.0 / de + la + 1.0)) / de
        return Density(
            family="kuttner", params=params,
            label=f"kuttner:{_fmt(de)},{_fmt(la)}",
            shape=_kuttner_shape(de, la),
            singular_at_0=not (de == round(de) and de >= 1.0),
            singular_at_1=not (la == round(la) and la >= 1.0),
            _eval2=ev, _moment0=m0, _moment1=m1)

    if fam == "power":
        if len(params) != 1:
            raise ParameterError("power takes one parameter a")
        a, = params
        _check_finite("power", a)
        if a >= 1.0:
            raise NonIntegrableError(
                f"power density t^(-a) is not integrable on (0,1) for a >= 1 (got {a:g})")
        if a <= 0.0:
            raise ParameterError(f"power requires 0 < a < 1, got {a:g}")

        def ev(t, omt, _a=a):
            return t ** (-_a)

        return Density(
            family="power", params=params, label=f"power:{_fmt(a)}",
            shape=_power_shape(a),
            singular_at_0=True, singular_at_1=False,
            _eval2=ev, _moment0=1.0 / (1.0 - a), _moment1=1.0 / (2.0 - a))

    if fam == "gegenbauer":
        if len(params) != 1:
            raise ParameterError("gegenbauer takes one parameter nu")
        nu, = params
        _check_finite("gegenbauer", nu)
        if nu <= -0.5:
            raise NonIntegrableError(
                f"gegenbauer density requires nu > -1/2, got {nu:g}")
        c = nu - 0.5

        def ev(t, omt, _c=c):
            if _c == 0.0:
                return np.ones_like(t)
            return (omt * (1.0 + t)) ** _c

        m0 = math.exp(0.5 * math.log(math.pi) + gammaln(nu + 0.5)
                      - math.log(2.0) - gammaln(nu + 1.0))
        return Density(
            family="gegenbauer", params=params, label=f"gegenbauer:{_fmt(nu)}",
            shape=_gegenbauer_shape(nu),
            singular_at_0=False,
            singular_at_1=not (c == round(c) and c >= 0.0),
            _eval2=ev, _moment0=m0, _moment1=1.0 / (2.0 * nu + 1.0))

    if fam == "quadratic":
        if len(params) != 2:
            raise ParameterError("quadratic takes two parameters (a, b)")
        a, b = params
        _check_finite("quadratic", a, b)
        if not (0.0 < b <= a):
            raise ParameterError(f"quadratic requires 0 < b <= a, got ({a:g}, {b:g})")

        def ev(t, omt, _a=a, _b=b):
            return _a - _b * t * t

        return Density(
            family="quadratic", params=params,
            label=f"quadratic:{_fmt(a)},{_fmt(b)}",
            shape=_quadratic_shape(a, b),
            singular_at_0=False, singular_at_1=False,
            _eval2=ev, _moment0=a - b / 3.0, _moment1=a / 2.0 - b / 4.0)

    if fam == "piecewise":
        if len(params) < 2 or len(params) % 2 != 0:
            raise ParameterError(
                "piecewise takes pairs r_i, v_i with increasing right endpoints "
                "ending at 1")
        knots = params[0::2]
        levels = params[1::2]
        if knots[-1] != 1.0:
            raise ParameterError("piecewise: last right endpoint must be 1")
        prev = 0.0
        for r in knots:
            if not (prev < r <= 1.0):
                raise ParameterError("piecewise: right endpoints must increase within (0, 1]")
            prev = r
        if any(v <= 0.0 for v in levels):
            raise ParameterError("piecewise: levels must be positive")
        edges = np.array((0.0,) + knots)
        lv = np.array(levels)

        def ev(t, omt, _e=edges, _v=lv):
            idx = np.clip(np.searchsorted(_e, t, side="left") - 1, 0, _v.size - 1)
            return _v[idx]

        m0 = float(np.sum(lv * np.diff(edges)))
        m1 = float(np.sum(lv * 0.5 * (edges[1:] ** 2 - edges[:-1] ** 2)))
        inner = tuple(k for k in knots if k < 1.0)
        return Density(
            family="piecewise", params=params,
            label="piecewise:" + ",".join(_fmt(p) for p in params),
            shape=_piecewise_shape((0.0,) + knots, tuple(levels)),
            singular_at_0=False, singular_at_1=False,
            breakpoints=inner,
            _eval2=ev, _moment0=m0, _moment1=m1)

    if fam == "custom":
        if evaluate is None:
            raise ParameterError("custom density requires an evaluate callable")

        def ev(t, omt, _f=evaluate):
            return np.asarray(_f(t, omt), dtype=float)

        s0 = True if singular_at_0 is None else bool(singular_at_0)
        s1 = True if singular_at_1 is None else bool(singular_at_1)
        shp = shape if shape is not None else infer_shape(ev)
        probe = (np.arange(997) + 0.5) / 997.0
        vals = ev(probe, 1.0 - probe)
        if not np.all(np.isfinite(vals)):
            raise ParameterError("custom density returned non-finite interior values")
        if np.any(vals <= 0.0):
            bad = float(probe[np.argmin(vals)])
            raise ParameterError(
                f"custom density must be positive on (0,1); non-positive near t={bad:.4g}")
        return Density(
            family="custom", params=params, label="custom",
            shape=shp, singular_at_0=s0, singular_at_1=s1,
            breakpoints=tuple(float(b) for b in breakpoints),
            _eval2=ev)

    raise ParameterError(f"unknown density family {family!r}")


def parse_density(spec: str) -> Density:
    """Parse 'family:p1,p2,...' (or bare 'uniform') into a Density."""
    s = spec.strip()
    if not s:
        raise ParameterError("empty density spec")
    if ":" in s:
        fam, _, rest = s.partition(":")
        rest = rest.strip()
        try:
            params = tuple(float(tok) for tok in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ParameterError(f"bad density parameters in {spec!r}") from exc
    else:
        fam, params = s, ()
    if fam.lower() in ("", "custom"):
        raise ParameterError(f"density spec {spec!r} is not constructible from a string")
    return make_density(fam, params)


def reflect(d: Density) -> Density:
    """The reflected density t -> f(1 - t).

    reflect(reflect(d)) returns the original object; reflecting a beta
    density swaps its parameters and stays in the family.
    """
    if d._reflected_from is not None:
        return d._reflected_from
    if d.family == "beta":
        al, be = d.params
        return make_density("beta", (be, al))
    if d.family == "piecewise":
        knots = d.params[0::2]
        levels = d.params[1::2]
        lefts = (0.0,) + knots[:-1]
        new = []
        for left, v in zip(reversed(lefts), reversed(levels)):
            new.extend((1.0 - left, v))
        new[-2] = 1.0
        return make_density("piecewise", tuple(new))

    def ev(t, omt, _f=d._eval2):
        return _f(omt, t)

    m1 = None if d._moment0 is None or d._moment1 is None else d._moment0 - d._moment1
    return Density(
        family="custom", params=d.params,
        label=f"reflect({d.label})",
        shape=_reflect_shape(d.shape),
        singular_at_0=d.singular_at_1,
        singular_at_1=d.singular_at_0,
        breakpoints=tuple(sorted(1.0 - b for b in d.breakpoints)),
        _eval2=ev, _moment0=d._moment0, _moment1=m1,
        _reflected_from=d)
