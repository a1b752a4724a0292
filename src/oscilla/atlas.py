"""Parameter atlas: region classification and checkable predictions.

For the beta density f(t) = t^(beta-1) (1-t)^(alpha-1) / B(alpha, beta) the
positive parameter quadrant splits into regions where the cosine transform
Phi and the sine transform Psi are strictly positive, follow a k-indexed
pattern of simple zeros, or are only known to change sign.
classify_beta_params places a point, predict turns the label into
Prediction objects for the zeros verifier, and sweep runs the whole
classify/predict/verify pipeline over a parameter grid.

The module also hosts the shape-driven rule table predict_from_shape (for
densities outside the beta family), a predictor for the Kuttner transform
of (1-t^delta)^lambda, the Lommel function cases realized as beta-density
transforms, and the half-lattice sign sequence attached to the power
density t^(beta-1).
"""

from __future__ import annotations

import json
import math
import multiprocessing
from dataclasses import dataclass, field

from .density import Density, ShapeReport, make_density
from .errors import ParameterError
from .hypergeom import SERIES_X_LIMIT, HypSpec, hyp_pfq, series_argument
from .quadrature import oscillatory_integrals
from .transform import evaluate_many, resolve_tol
# evaluate is no longer called here (cross_zero_violations batches through
# evaluate_many); it stays importable as atlas.evaluate because the
# benchmark's tracer (perfbench/tracing.py) rebinds that name
from .transform import evaluate  # noqa: F401
from .zeros import (EndpointSpec, PatternItem, PositivityClaim, Prediction,
                    verify_pattern)

_PI = math.pi

REGION_TAGS = (
    "Pc", "Ps_minus_Pc", "Pc_star", "Ps_star_minus_Pc_star",
    "mono_C", "mono_D", "mono_C_star", "mono_D_star",
    "concave_strip", "diagonal", "sign_change_zone", "excluded_point",
    "unknown",
)

# parameter points where the density is affine and the transforms reduce to
# elementary closed forms; every inequality system excludes them
_EXCLUDED_POINTS = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0))


# ---------------------------------------------------------------------------
# region membership
# ---------------------------------------------------------------------------

def _in_pc(a: float, b: float) -> bool:
    if a >= 5.0 / 3.0 and 0.0 < b <= min(1.0, a - 1.0) and (a, b) != (2.0, 1.0):
        return True
    return 1.0 <= a <= 5.0 / 3.0 and 0.0 < b <= 2.0 / 3.0


def _in_ps(a: float, b: float) -> bool:
    return (a >= 0.5
            and 0.0 < b <= min(2.0, (a + 1.0) / 2.0, 2.0 * a - 1.0)
            and (a, b) != (1.0, 1.0))


def _in_pc_star(a: float, b: float) -> bool:
    if 0.0 < a <= 1.0 and b >= max(5.0 / 3.0, a + 1.0) and (a, b) != (1.0, 2.0):
        return True
    return 0.0 < a <= 2.0 / 3.0 and 1.0 <= b <= 5.0 / 3.0


def _in_ps_star(a: float, b: float) -> bool:
    return (0.0 < a <= 2.0
            and b >= max(0.5, (a + 1.0) / 2.0, 2.0 * a - 1.0)
            and (a, b) != (1.0, 1.0))


def _in_c(a: float, b: float) -> bool:
    # decreasing and convex
    return ((a >= 2.0 and 0.0 < b < 1.0) or (a > 2.0 and b == 1.0)
            or (a == 1.0 and 0.0 < b < 1.0))


def _in_d(a: float, b: float) -> bool:
    # decreasing
    return (a >= 1.0 and 0.0 < b < 1.0) or (a > 1.0 and b == 1.0)


def _check_params(alpha: float, beta: float) -> tuple[float, float]:
    a, b = float(alpha), float(beta)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"parameters must be finite, got ({alpha!r}, {beta!r})")
    if a <= 0.0 or b <= 0.0:
        raise ParameterError(f"parameters must be positive, got ({a:g}, {b:g})")
    return a, b


def region_memberships(alpha: float, beta: float) -> dict:
    """Raw membership of (alpha, beta) in every named region.

    Boundary equalities follow the printed inequality systems exactly;
    parameters are compared as the caller-given floats with no tolerance.
    """
    a, b = _check_params(alpha, beta)
    return {
        "Pc": _in_pc(a, b),
        "Ps": _in_ps(a, b),
        "Pc_star": _in_pc_star(a, b),
        "Ps_star": _in_ps_star(a, b),
        "mono_C": _in_c(a, b),
        "mono_D": _in_d(a, b),
        "mono_C_star": _in_c(b, a),
        "mono_D_star": _in_d(b, a),
        "concave_strip": 1.0 < a < 2.0 and b == 1.0,
        "diagonal": a == b,
        "excluded_point": (a, b) in _EXCLUDED_POINTS,
    }


@dataclass(frozen=True)
class RegionLabel:
    """Classification of one beta parameter point.

    tag is the strongest applicable region name; memberships keeps the raw
    per-region booleans so containment relations stay inspectable after
    precedence has collapsed them to a single tag.
    """

    tag: str
    alpha: float
    beta: float
    provenance: str = ""
    memberships: dict = field(default_factory=dict)


_PROVENANCE = {
    "Pc": "cosine and sine transforms strictly positive for x > 0",
    "Ps_minus_Pc": "sine transform strictly positive for x > 0; "
                   "cosine transform not classified here",
    "Pc_star": "reflected parameters lie in the cosine positivity region; "
               "both transforms follow the offset half-lattice zero pattern "
               "and share no common zeros",
    "Ps_star_minus_Pc_star": "reflected parameters lie in the sine "
                             "positivity region; unit-width window pattern "
                             "with no common zeros",
    "mono_C": "decreasing convex density: sine transform positive "
              "everywhere, cosine transform positive up to pi",
    "mono_D": "decreasing density: sine transform positive everywhere, "
              "cosine transform positive up to pi",
    "mono_C_star": "increasing convex density: half-offset cosine zeros, "
                   "unit sine bands",
    "mono_D_star": "increasing density: one cosine zero per shifted window, "
                   "one sine zero per unit band",
    "concave_strip": "decreasing concave density: cosine transform positive "
                     "up to pi with one zero per following unit band",
    "diagonal": "symmetric density: forced zeros at odd multiples of pi "
                "(cosine) and even multiples (sine); other zeros unknown",
    "sign_change_zone": "both transforms change sign infinitely often; no "
                        "interval localization is available",
    "excluded_point": "affine density excluded from the inequality systems; "
                      "transforms reduce to elementary closed forms",
    "unknown": "no classification available at this parameter point",
}


def classify_beta_params(alpha: float, beta: float) -> RegionLabel:
    """Strongest region label for the beta density at (alpha, beta).

    Precedence runs positivity regions before monotonicity-only regions,
    then the diagonal, then the sign-change zone beta > alpha. The concave
    strip 1 < alpha < 2, beta = 1 sits inside the sine positivity region
    but carries the sharper cosine-band statement, so it is reported first.
    """
    a, b = _check_params(alpha, beta)
    m = region_memberships(a, b)
    if m["excluded_point"]:
        tag = "excluded_point"
    elif m["Pc"]:
        tag = "Pc"
    elif m["concave_strip"]:
        tag = "concave_strip"
    elif m["Ps"]:
        tag = "Ps_minus_Pc"
    elif m["Pc_star"]:
        tag = "Pc_star"
    elif m["Ps_star"]:
        tag = "Ps_star_minus_Pc_star"
    elif m["mono_C"]:
        tag = "mono_C"
    elif m["mono_D"]:
        tag = "mono_D"
    elif m["mono_C_star"]:
        tag = "mono_C_star"
    elif m["mono_D_star"]:
        tag = "mono_D_star"
    elif m["diagonal"]:
        tag = "diagonal"
    elif b > a:
        tag = "sign_change_zone"
    else:
        tag = "unknown"
    return RegionLabel(tag=tag, alpha=a, beta=b,
                       provenance=_PROVENANCE[tag], memberships=m)


# ---------------------------------------------------------------------------
# interval predictions per region
# ---------------------------------------------------------------------------

# endpoint shorthands; value(k) = (mul*k + add)*pi
_HALF_BELOW = EndpointSpec(1.0, -0.5)     # (k-1/2) pi
_LATTICE = EndpointSpec(1.0, 0.0)         # k pi
_HALF_ABOVE = EndpointSpec(1.0, 0.5)      # (k+1/2) pi
_NEXT = EndpointSpec(1.0, 1.0)            # (k+1) pi
_THREE_HALVES = EndpointSpec(1.0, 1.5)    # (k+3/2) pi
_ODD = EndpointSpec(2.0, -1.0)            # (2k-1) pi
_EVEN = EndpointSpec(2.0, 0.0)            # 2k pi
_EVEN_HALF = EndpointSpec(2.0, 0.5)       # (2k+1/2) pi
_FIRST_HALF = EndpointSpec(0.0, 0.5)      # pi/2, fixed
_FIRST_ONE = EndpointSpec(0.0, 1.0)       # pi, fixed
_SIGMA = EndpointSpec(1.0, 0.0, use_sigma=True)   # k-th root of tan x = x


def _one(lo: EndpointSpec, hi: EndpointSpec, k_count: int | None = None,
         note: str = "") -> PatternItem:
    return PatternItem("exactly_one", lo=lo, hi=hi, k_count=k_count, note=note)


def _exact(point: EndpointSpec, note: str = "") -> PatternItem:
    return PatternItem("exact_zero_at", point=point, note=note)


# the shifted-window pattern for an increasing density: one zero in
# (pi/2, pi), then one per ((k+1/2) pi, (k+3/2) pi)
def _shifted_windows() -> tuple[PatternItem, ...]:
    return (_one(_FIRST_HALF, _FIRST_ONE, k_count=1),
            _one(_HALF_ABOVE, _THREE_HALVES))


def _pos(upper: float | None = None) -> PositivityClaim:
    return PositivityClaim("+", upper)


def _predict_excluded(a: float, b: float, k_max: int):
    if (a, b) == (1.0, 1.0):
        phi = Prediction(
            items=(_exact(_LATTICE),),
            k_max=k_max,
            provenance="sin x / x: zeros exactly at the lattice points")
        psi = Prediction(
            items=(_exact(_EVEN),),
            positivity=PositivityClaim("+0"),
            k_max=k_max,
            provenance="(1 - cos x)/x: nonnegative, zeros at even lattice "
                       "points")
        return phi, psi
    if (a, b) == (2.0, 1.0):
        phi = Prediction(
            items=(_exact(_EVEN),),
            positivity=PositivityClaim("+0"),
            k_max=k_max,
            provenance="2(1 - cos x)/x^2: nonnegative, zeros at even "
                       "lattice points")
        psi = Prediction(
            positivity=_pos(),
            scan_complement=False,
            k_max=k_max,
            provenance="2(x - sin x)/x^2: strictly positive")
        return phi, psi
    # (1, 2): density 2t, increasing with derivative in the exceptional case
    phi = Prediction(
        items=_shifted_windows() + (_exact(_EVEN),),
        positivity=_pos(_PI / 2.0),
        k_max=k_max,
        provenance="2(x sin x + cos x - 1)/x^2: one zero per shifted "
                   "window; even lattice points are zeros")
    psi = Prediction(
        items=(_one(_LATTICE, _HALF_ABOVE), _exact(_SIGMA)),
        positivity=_pos(_PI),
        k_max=k_max,
        provenance="2(sin x - x cos x)/x^2: zeros exactly at the roots of "
                   "tan x = x")
    return phi, psi


def predict(label: RegionLabel, k_max: int = 20):
    """(cosine Prediction, sine Prediction) for a classified point.

    Either slot may be None when the region carries no statement for that
    transform. Raises ParameterError for the unknown tag.
    """
    tag = label.tag
    if tag == "unknown":
        raise ParameterError(
            f"no prediction is available at ({label.alpha:g}, {label.beta:g}); "
            "the point lies outside every classified region")

    if tag == "excluded_point":
        return _predict_excluded(label.alpha, label.beta, k_max)

    if tag == "Pc":
        return (Prediction(positivity=_pos(), scan_complement=False,
                           k_max=k_max, provenance=_PROVENANCE[tag]),
                Prediction(positivity=_pos(), scan_complement=False,
                           k_max=k_max, provenance=_PROVENANCE[tag]))

    if tag == "Ps_minus_Pc":
        return (None,
                Prediction(positivity=_pos(), scan_complement=False,
                           k_max=k_max, provenance=_PROVENANCE[tag]))

    if tag == "concave_strip":
        phi = Prediction(items=(_one(_LATTICE, _NEXT),),
                         positivity=_pos(_PI), k_max=k_max,
                         provenance=_PROVENANCE[tag])
        psi = Prediction(positivity=_pos(), scan_complement=False,
                         k_max=k_max,
                         provenance="inside the sine positivity region")
        return phi, psi

    if tag == "Pc_star":
        phi = Prediction(items=(_one(_HALF_BELOW, _LATTICE),),
                         positivity=_pos(_PI / 2.0), no_common_zeros=True,
                         k_max=k_max, provenance=_PROVENANCE[tag])
        psi = Prediction(items=(_one(_LATTICE, _HALF_ABOVE),),
                         positivity=_pos(_PI), no_common_zeros=True,
                         k_max=k_max, provenance=_PROVENANCE[tag])
        return phi, psi

    if tag == "Ps_star_minus_Pc_star":
        phi = Prediction(items=(_one(_HALF_BELOW, _HALF_ABOVE),),
                         positivity=_pos(_PI / 2.0), no_common_zeros=True,
                         k_max=k_max, provenance=_PROVENANCE[tag])
        psi = Prediction(items=(_one(_LATTICE, _NEXT),),
                         positivity=_pos(_PI), no_common_zeros=True,
                         k_max=k_max, provenance=_PROVENANCE[tag])
        return phi, psi

    if tag in ("mono_C", "mono_D"):
        phi = Prediction(positivity=_pos(_PI), scan_complement=False,
                         k_max=k_max, provenance=_PROVENANCE[tag])
        psi = Prediction(positivity=_pos(), scan_complement=False,
                         k_max=k_max, provenance=_PROVENANCE[tag])
        return phi, psi

    if tag == "mono_C_star":
        # non-affine beta densities have a derivative in the general case,
        # so the sharpened half-offset windows apply
        phi = Prediction(items=(_one(_HALF_BELOW, _LATTICE),),
                         positivity=_pos(_PI / 2.0), k_max=k_max,
                         provenance=_PROVENANCE[tag])
        psi = Prediction(items=(_one(_LATTICE, _NEXT),),
                         positivity=_pos(_PI), k_max=k_max,
                         provenance=_PROVENANCE[tag])
        return phi, psi

    if tag == "mono_D_star":
        phi = Prediction(items=_shifted_windows(),
                         positivity=_pos(_PI / 2.0), k_max=k_max,
                         provenance=_PROVENANCE[tag])
        psi = Prediction(items=(_one(_LATTICE, _NEXT),),
                         positivity=_pos(_PI), k_max=k_max,
                         provenance=_PROVENANCE[tag])
        return phi, psi

    if tag == "diagonal":
        note = "other zeros unknown"
        phi = Prediction(items=(_exact(_ODD, note=note),),
                         scan_complement=False, k_max=k_max,
                         provenance=_PROVENANCE[tag])
        psi = Prediction(items=(_exact(_EVEN, note=note),),
                         scan_complement=False, k_max=k_max,
                         provenance=_PROVENANCE[tag])
        return phi, psi

    # sign_change_zone
    phi = Prediction(sign_change_required=True, scan_complement=False,
                     k_max=k_max, provenance=_PROVENANCE[tag])
    psi = Prediction(sign_change_required=True, scan_complement=False,
                     k_max=k_max, provenance=_PROVENANCE[tag])
    return phi, psi


# ---------------------------------------------------------------------------
# shape-driven rule table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapePredictions:
    """Predictions derived from a ShapeReport alone.

    u and v cover the cosine and sine transforms; du and dv cover their
    derivatives (available when the density is strictly increasing).
    Iterating yields (u, v) so the record unpacks as a transform pair.
    """

    u: Prediction | None = None
    v: Prediction | None = None
    du: Prediction | None = None
    dv: Prediction | None = None

    def __iter__(self):
        return iter((self.u, self.v))


def _shape_u(s: ShapeReport, k_max: int) -> Prediction | None:
    if (s.is_decreasing() and s.is_convex_weak() and s.f_at_1 == 0.0
            and s.deriv_general_case):
        return Prediction(
            positivity=_pos(), scan_complement=False, k_max=k_max,
            provenance="decreasing convex density vanishing at 1: cosine "
                       "transform strictly positive")

    ds = s.deriv_shape
    if (s.monotonicity == "decreasing" and ds is not None
            and ds.is_increasing() and ds.is_convex_weak()
            and s.deriv_general_case
            and s.neg_deriv_at_0 is not None
            and math.isfinite(s.neg_deriv_at_0)
            and s.f_at_1 is not None and math.isfinite(s.f_at_1)):
        L, M = s.neg_deriv_at_0, s.f_at_1
        if L == 0.0 or 0.0 < 2.0 * L <= 3.0 * _PI * M:
            items = (_one(_LATTICE, _HALF_ABOVE),)
            why = ("decreasing density with increasing convex derivative "
                   "magnitude, small initial slope: one cosine zero per "
                   "(k pi, (k+1/2) pi)")
        else:
            items = (_one(_ODD, _EVEN), _one(_EVEN, _EVEN_HALF))
            why = ("decreasing density with increasing convex derivative "
                   "magnitude: cosine zeros in paired bands around even "
                   "lattice points")
        return Prediction(items=items, positivity=_pos(_PI), k_max=k_max,
                          provenance=why)

    if (s.monotonicity == "decreasing" and s.is_concave_weak()
            and s.deriv_general_case):
        return Prediction(
            items=(_one(_LATTICE, _NEXT),), positivity=_pos(_PI),
            k_max=k_max,
            provenance="decreasing concave density: one cosine zero per "
                       "unit band")

    if s.is_increasing() and s.general_case:
        if s.is_convex_weak() and s.deriv_general_case:
            return Prediction(
                items=(_one(_HALF_BELOW, _LATTICE),),
                positivity=_pos(_PI / 2.0), k_max=k_max,
                provenance="increasing convex density: one cosine zero per "
                           "half-offset window")
        return Prediction(
            items=_shifted_windows(), positivity=_pos(_PI / 2.0),
            k_max=k_max,
            provenance="increasing density: one cosine zero in (pi/2, pi), "
                       "then one per shifted window")

    if s.is_decreasing() and s.general_case:
        return Prediction(
            positivity=_pos(_PI), scan_complement=False, k_max=k_max,
            provenance="decreasing density: cosine transform positive up "
                       "to pi")
    return None


def _shape_v(s: ShapeReport, k_max: int) -> Prediction | None:
    if s.is_decreasing():
        if s.general_case:
            return Prediction(
                positivity=_pos(), scan_complement=False, k_max=k_max,
                provenance="decreasing density: sine transform strictly "
                           "positive")
        return Prediction(
            positivity=PositivityClaim("+0"), scan_complement=False,
            k_max=k_max,
            provenance="decreasing density in the exceptional case: sine "
                       "transform nonnegative")

    if s.is_increasing() and s.general_case:
        if s.is_convex_weak() and s.f_at_0 == 0.0:
            return Prediction(
                items=(_one(_LATTICE, _HALF_ABOVE),), positivity=_pos(_PI),
                k_max=k_max,
                provenance="increasing convex density vanishing at 0: one "
                           "sine zero per (k pi, (k+1/2) pi)")
        if (s.is_convex_weak() and s.f_at_0 is not None and s.f_at_0 > 0.0):
            return Prediction(
                items=(_one(_ODD, _EVEN), _one(_EVEN, _EVEN_HALF)),
                positivity=_pos(_PI), k_max=k_max,
                provenance="increasing convex density positive at 0: sine "
                           "zeros in paired bands around even lattice "
                           "points")
        return Prediction(
            items=(_one(_LATTICE, _NEXT),), positivity=_pos(_PI),
            k_max=k_max,
            provenance="increasing density: one sine zero per unit band")
    return None


def _shape_du(s: ShapeReport, k_max: int) -> Prediction | None:
    # derivative statements need strict monotonicity: for a constant
    # density the cosine derivative vanishes exactly at the tan x = x
    # roots, on the boundary of the sharpened interval
    if s.monotonicity != "increasing":
        return None
    if s.is_convex_weak():
        items = (_one(_LATTICE, _SIGMA),)
        why = ("increasing convex density: cosine derivative zeros between "
               "lattice points and the roots of tan x = x")
    else:
        items = (_one(_LATTICE, _NEXT),)
        why = "increasing density: one cosine-derivative zero per unit band"
    return Prediction(items=items, positivity=PositivityClaim("-", _PI),
                      k_max=k_max, provenance=why)


def _shape_dv(s: ShapeReport, k_max: int) -> Prediction | None:
    if s.monotonicity != "increasing":
        return None
    if s.is_convex_weak() and s.general_case:
        items = (_one(_HALF_BELOW, _LATTICE),)
        why = ("increasing convex density: sine derivative zeros in "
               "half-offset windows")
    else:
        items = _shifted_windows()
        why = ("increasing density: sine derivative zeros in shifted "
               "windows")
    return Prediction(items=items, positivity=_pos(_PI / 2.0), k_max=k_max,
                      provenance=why)


def predict_from_shape(s: ShapeReport, k_max: int = 20) -> ShapePredictions:
    """Apply the monotonicity/convexity rule table to a shape report.

    Rules are tried sharpest first; a shape matching no rule leaves the
    corresponding slot None rather than raising.
    """
    if not isinstance(s, ShapeReport):
        raise ParameterError("predict_from_shape expects a ShapeReport")
    return ShapePredictions(
        u=_shape_u(s, k_max),
        v=_shape_v(s, k_max),
        du=_shape_du(s, k_max),
        dv=_shape_dv(s, k_max),
    )


# ---------------------------------------------------------------------------
# named one-parameter problems
# ---------------------------------------------------------------------------

def kuttner_predict(delta: float, lam: float, k_max: int = 20) -> Prediction | None:
    """Prediction for Omega(x), the cosine transform of (1 - t^delta)^lambda.

    Returns None for parameter pairs with no known statement.
    """
    d, l = _check_params(delta, lam)
    if d == 1.0 and l == 1.0:
        return Prediction(
            positivity=PositivityClaim("+0"), scan_complement=False,
            k_max=k_max,
            provenance="triangular density: nonnegative transform")
    if d <= 1.0 <= l:
        return Prediction(
            positivity=_pos(), scan_complement=False, k_max=k_max,
            provenance="concave-parameter side: strictly positive transform")
    if l <= 1.0 <= d:
        items: tuple[PatternItem, ...]
        if l == 1.0:
            if d > 3.0:
                items = (_one(_LATTICE, _SIGMA),)
                why = "zeros trapped below the roots of tan x = x"
            elif d >= 2.0:
                items = (_one(_LATTICE, _HALF_ABOVE),)
                why = "zeros in the lower half of each unit band"
                if d == 2.0:
                    items = items + (_exact(
                        _SIGMA,
                        note="zeros coincide with the roots of tan x = x"),)
            else:
                items = (_one(_LATTICE, _NEXT),)
                why = "one zero per unit band"
        else:
            items = (_one(_LATTICE, _NEXT),)
            why = "one zero per unit band"
        return Prediction(items=items, positivity=_pos(_PI), k_max=k_max,
                          provenance=why)
    return None


_LOMMEL_EXCLUDED = (-0.5, 0.5)


def _check_lommel(mu: float) -> float:
    m = float(mu)
    if not math.isfinite(m):
        raise ParameterError(f"mu must be finite, got {mu!r}")
    if m <= -1.5:
        raise ParameterError(f"mu must exceed -3/2, got {m:g}")
    if m in _LOMMEL_EXCLUDED:
        raise ParameterError(
            f"mu = {m:g} is a degenerate half-integer case with no "
            "beta-density realization")
    return m


def lommel_realization(mu: float) -> tuple[Density, str]:
    """Beta density and transform kind whose zeros match s_{mu,1/2}."""
    m = _check_lommel(mu)
    if -0.5 < m < 0.5:
        return make_density("beta", (m + 0.5, 1.0)), "sine"
    return make_density("beta", (m + 1.5, 1.0)), "cosine"


def lommel_predict(mu: float, k_max: int = 20) -> Prediction:
    """Zero-pattern prediction for the Lommel function s_{mu,1/2}."""
    m = _check_lommel(mu)
    if m <= -5.0 / 6.0:
        return Prediction(
            items=(_one(_HALF_BELOW, _LATTICE),),
            positivity=_pos(_PI / 2.0), k_max=k_max,
            provenance="one zero per half-offset window")
    if m < -0.5:
        return Prediction(
            items=(_one(_HALF_BELOW, _HALF_ABOVE),),
            positivity=_pos(_PI / 2.0), k_max=k_max,
            provenance="one zero per unit window centered on the lattice")
    if m <= 1.0 / 6.0:
        return Prediction(
            items=(_one(_LATTICE, _HALF_ABOVE),), positivity=_pos(_PI),
            k_max=k_max,
            provenance="one zero in the lower half of each unit band")
    if m < 0.5:
        return Prediction(
            items=(_one(_LATTICE, _NEXT),), positivity=_pos(_PI),
            k_max=k_max, provenance="one zero per unit band")
    return Prediction(
        positivity=_pos(), scan_complement=False, k_max=k_max,
        provenance="strictly positive for x > 0")


def steinerberger_signs(beta: float, k_max: int,
                        tol: float | None = None) -> tuple[int, ...]:
    """Signs of a_k, the power-density sine transform scaled by (1+beta)/x
    at the half-lattice points x = (k - 1/2) pi.

    Returns +1/-1 per entry, or 0 when |a_k| is below 10 * tol and no
    strict sign can be certified.
    """
    b = float(beta)
    if not math.isfinite(b) or b <= -1.0:
        raise ParameterError(f"beta must exceed -1, got {beta!r}")
    n = int(k_max)
    if n < 1:
        raise ParameterError(f"k_max must be >= 1, got {k_max!r}")
    t = resolve_tol(tol)
    spec = HypSpec(((1.0 + b) / 2.0,), (1.5, (3.0 + b) / 2.0))
    xs = [(k - 0.5) * _PI for k in range(1, n + 1)]
    near = [x for x in xs if x <= SERIES_X_LIMIT]
    vals = [float(hyp_pfq(spec, series_argument(x), tol=tol)) for x in near]
    far = xs[len(near):]
    if far:
        v, _err = oscillatory_integrals(
            lambda tt, omt: tt ** (b - 1.0), far, "sin",
            singular_at_0=b < 1.0, tol=t)
        vals += [(1.0 + b) / x * float(vx) for x, vx in zip(far, v)]
    return tuple(0 if abs(val) < 10.0 * t else (1 if val > 0.0 else -1)
                 for val in vals)


def steinerberger_predict(beta: float) -> str:
    """Known behavior of the a_k sign sequence: 'all_positive',
    'alternating' (starting positive), or 'indeterminate' in the open gap
    5/3 < beta < 2."""
    b = float(beta)
    if not math.isfinite(b) or b <= -1.0:
        raise ParameterError(f"beta must exceed -1, got {beta!r}")
    if b <= 5.0 / 3.0:
        return "all_positive"
    if b >= 2.0:
        return "alternating"
    return "indeterminate"


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtlasRecord:
    """Outcome of classify/predict/verify at one parameter cell.

    passed is True/False for a definite verdict and None when the cell is
    unclassified, indeterminate, or errored; status carries the finer
    distinction. violations entries follow the verifier's dict layout with
    the transform kind prefixed onto the expectation text.
    """

    alpha: float
    beta: float
    label: str
    k_max: int
    passed: bool | None
    violations: tuple
    horizon: float
    status: str
    error: str = ""

    def to_json(self) -> str:
        obj = {
            "alpha": self.alpha, "beta": self.beta, "label": self.label,
            "k_max": self.k_max, "pass": self.passed,
            "violations": [dict(v) for v in self.violations],
            "horizon": self.horizon, "status": self.status,
        }
        if self.error:
            obj["error"] = self.error
        return json.dumps(obj)


def atlas_records_to_csv(records) -> str:
    """Flatten AtlasRecords to CSV; violation lists are JSON-encoded."""
    import csv
    import io
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["alpha", "beta", "label", "k_max", "pass", "violations",
                "horizon", "status", "error"])
    for r in records:
        p = "" if r.passed is None else ("true" if r.passed else "false")
        w.writerow([f"{r.alpha:.17g}", f"{r.beta:.17g}", r.label, r.k_max, p,
                    json.dumps([dict(v) for v in r.violations]),
                    f"{r.horizon:.17g}", r.status, r.error])
    return buf.getvalue()


def cross_zero_violations(density: Density, reports: dict,
                          tol: float | None = None) -> list[dict]:
    """Check that neither transform vanishes at the other's located zeros.

    reports maps transform kind to its VerificationReport; every refined
    zero of one kind is re-evaluated under the other kind and must clear
    the working tolerance.
    """
    thr = resolve_tol(tol)
    out: list[dict] = []
    for kind, other in (("cosine", "sine"), ("sine", "cosine")):
        rep = reports.get(kind)
        if rep is None or not rep.records:
            continue
        vals, _ = evaluate_many(density, other,
                                [rec.abscissa for rec in rep.records], tol=tol)
        for rec, val in zip(rep.records, vals.tolist()):
            if abs(val) <= thr:
                out.append({
                    "k": rec.k, "interval": [rec.lo, rec.hi],
                    "expected": f"{other}: nonzero at every {kind} zero",
                    "found": f"|value| = {abs(val):.3e} at "
                             f"x = {rec.abscissa:.9g}"})
    return out


def verify_predictions(density: Density, predictions: dict,
                       tol: float | None = None, per_pi: int = 64):
    """Verify a {kind: Prediction} dict for one density.

    Runs verify_pattern per kind, cosine before sine, and
    cross_zero_violations when both kinds are present and either asks for
    no_common_zeros. Returns (reports, cross, status): reports maps kind
    to its VerificationReport, cross lists the common-zero violations, and
    status combines them, fail over indeterminate over pass.
    """
    reports = {kind: verify_pattern(density, kind, predictions[kind],
                                    tol=tol, per_pi=per_pi)
               for kind in ("cosine", "sine") if kind in predictions}
    cross = []
    if len(reports) == 2 and any(p.no_common_zeros
                                 for p in predictions.values()):
        cross = cross_zero_violations(density, reports, tol=tol)
    statuses = {rep.status for rep in reports.values()}
    if cross or "fail" in statuses:
        return reports, cross, "fail"
    if "indeterminate" in statuses:
        return reports, cross, "indeterminate"
    return reports, cross, "pass"


def verify_cell(alpha: float, beta: float, k_max: int = 10,
                tol: float | None = None, per_pi: int = 64) -> AtlasRecord:
    """Classify one beta cell and verify its predictions numerically."""
    a, b = _check_params(alpha, beta)
    label = classify_beta_params(a, b)
    horizon = (k_max + 1) * _PI
    if label.tag == "unknown":
        return AtlasRecord(a, b, "unknown", k_max, None, (), horizon,
                           "unclassified")

    phi_pred, psi_pred = predict(label, k_max=k_max)
    preds = {kind: p for kind, p in (("cosine", phi_pred), ("sine", psi_pred))
             if p is not None}
    reports, cross, status = verify_predictions(
        make_density("beta", (a, b)), preds, tol=tol, per_pi=per_pi)
    violations = [{**v, "expected": f"{kind}: {v['expected']}"}
                  for kind, rep in reports.items() for v in rep.violations]
    return AtlasRecord(a, b, label.tag, k_max,
                       {"pass": True, "fail": False}.get(status),
                       tuple(violations + cross), horizon, status)


def _sweep_cell(args) -> AtlasRecord:
    a, b, k_max, tol = args
    tag = "error"
    try:
        tag = classify_beta_params(a, b).tag
        return verify_cell(a, b, k_max=k_max, tol=tol)
    except Exception as e:  # cell isolation: a bad cell must not kill the sweep
        return AtlasRecord(a, b, tag, k_max, None, (), (k_max + 1) * _PI,
                           "error", f"{type(e).__name__}: {e}")


def iter_sweep(alpha_grid, beta_grid, k_max: int = 10,
               tol: float | None = None, jobs: int = 1):
    """Yield verify_cell records over the product grid, ordered by
    (alpha, beta), each as soon as it and every cell before it is done.

    The grid is checked on the call, before any cell runs. Per-cell
    failures are captured in the records; jobs > 1 distributes cells over
    worker processes with the same deterministic ordering.
    """
    alphas = [float(a) for a in alpha_grid]
    betas = [float(b) for b in beta_grid]
    for v in alphas + betas:
        if not math.isfinite(v) or v <= 0.0:
            raise ParameterError(f"grid values must be finite and positive, "
                                 f"got {v!r}")
    cells = sorted((a, b) for a in alphas for b in betas)
    args = [(a, b, int(k_max), tol) for a, b in cells]
    return _run_cells(args, jobs)


def _run_cells(args, jobs):
    if jobs is not None and jobs > 1:
        # 16 cells per task: one cell per task spends about a fifth of a
        # 40x40 sweep on inter-process round trips (2 workers)
        with multiprocessing.Pool(int(jobs)) as pool:
            yield from pool.imap(_sweep_cell, args, chunksize=16)
    else:
        yield from map(_sweep_cell, args)


def sweep(alpha_grid, beta_grid, k_max: int = 10,
          tol: float | None = None, jobs: int = 1) -> list[AtlasRecord]:
    """iter_sweep collected into a list."""
    return list(iter_sweep(alpha_grid, beta_grid, k_max, tol, jobs))
