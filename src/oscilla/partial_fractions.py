"""Partial-fraction and Wronskian series built from lattice samples.

The cosine transform U of a density with moment m0 and the sine transform V
with V'(0) = m1 admit Mittag-Leffler expansions over the kernel lattices:

    pe1:  U(z)/sin(z)      = U(0)/z + sum_k (-1)^k U(k pi) [1/(z-k pi) + 1/(z+k pi)]
    pe2:  U(z)/(z cos z)   = U(0)/z + sum_k (-1)^k U(a_k)/a_k [1/(z-a_k) + 1/(z+a_k)],
                             a_k = (k-1/2) pi
    pe3:  V(z)/(z sin z)   = V'(0)/z + sum_k (-1)^k V(k pi)/(k pi) [...]

Differentiating these yields Wronskian series: with W[F, G] = F G' - F' G,

    pe1:  W[U, sin z / z](z) = (4 sin^2 z / z) sum_k (-1)^k U(k pi) (k pi)^2 / (z^2-(k pi)^2)^2
    pe2:  W[U, cos z](z)     = 4 z cos^2 z  sum_k (-1)^k U(a_k) a_k / (z^2-a_k^2)^2
    pe3:  W[V, sin z](z)     = 4 z sin^2 z  sum_k (-1)^k V(k pi) (k pi) / (z^2-(k pi)^2)^2

Each Wronskian term is evaluated in the algebraically equivalent form
prefactor * coefficient * (trig(z)/(z^2-a^2))^2 whose removable singularity
at z = a_k is handled by the explicit limit, so lattice points are fine
evaluation points. One-signed lattice samples therefore force one-signed
Wronskians, which is what the monotonicity arguments consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, PoleProximityError
from .quadrature import CompensatedSum
from .transform import evaluate, evaluate_many, resolve_tol

_PI = math.pi
_POLE_GUARD = 1e-8
_EXPANSIONS = ("pe1", "pe2", "pe3")
_NEAR_LIMIT = 1e-6   # switch to the removable-limit branch inside this window


@dataclass(frozen=True)
class LatticeCoefficients:
    """Samples of a transform on a kernel lattice, ready for resummation.

    c0 is the z -> 0 coefficient (U(0) for pe1/pe2, V'(0) for pe3);
    coefficients[k-1] is the sample at lattice[k-1]."""

    expansion: str
    c0: float
    coefficients: tuple[float, ...]
    lattice: tuple[float, ...]
    density_label: str

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)


def sample_lattice(density, expansion: str, n_terms: int,
                   tol: float | None = None) -> LatticeCoefficients:
    """Evaluate the transform at the first n_terms lattice points of the
    chosen expansion, all in one batched quadrature pass."""
    if expansion not in _EXPANSIONS:
        raise ParameterError(f"unknown expansion {expansion!r}; pick from {_EXPANSIONS}")
    if not isinstance(n_terms, int) or n_terms < 1:
        raise ParameterError(f"n_terms must be a positive integer, got {n_terms!r}")
    tol = resolve_tol(tol)
    if expansion == "pe1":
        lattice = tuple(k * _PI for k in range(1, n_terms + 1))
        kind = "cosine"
        c0 = density.moment0
    elif expansion == "pe2":
        lattice = tuple((k - 0.5) * _PI for k in range(1, n_terms + 1))
        kind = "cosine"
        c0 = density.moment0
    else:
        lattice = tuple(k * _PI for k in range(1, n_terms + 1))
        kind = "sine"
        c0 = density.moment1
    coeffs = tuple(evaluate_many(density, kind, lattice, tol)[0].tolist())
    return LatticeCoefficients(expansion=expansion, c0=float(c0),
                               coefficients=coeffs, lattice=lattice,
                               density_label=density.label)


def pf_partial_sum(coeffs: LatticeCoefficients, z: float) -> float:
    """Partial sum of the Mittag-Leffler expansion at z.

    Approximates U(z)/sin(z) (pe1), U(z)/(z cos z) (pe2), or
    V(z)/(z sin z) (pe3). z within 1e-8 of a pole raises
    PoleProximityError since the truncated sum is meaningless there.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ParameterError(f"z must be finite, got {z!r}")
    if abs(z) < _POLE_GUARD:
        raise PoleProximityError(f"z={z:g} is within {_POLE_GUARD:g} of the pole at 0")
    per_ak = coeffs.expansion in ("pe2", "pe3")
    acc = CompensatedSum()
    acc.add(coeffs.c0 / z)
    sign = 1.0
    for c, a in zip(coeffs.coefficients, coeffs.lattice):
        sign = -sign
        if abs(z - a) < _POLE_GUARD or abs(z + a) < _POLE_GUARD:
            raise PoleProximityError(
                f"z={z:g} is within {_POLE_GUARD:g} of the pole at ±{a:.12g}")
        w = c / a if per_ak else c
        acc.add(sign * w * (1.0 / (z - a) + 1.0 / (z + a)))
    return acc.total


def wronskian_series(coeffs: LatticeCoefficients, z: float) -> float:
    """Truncated Wronskian series at z from precomputed lattice samples.

    pe1 -> W[U, sin z / z], pe2 -> W[U, cos z], pe3 -> W[V, sin z].
    Lattice points themselves are regular: each term's removable
    singularity is evaluated by its limit.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ParameterError(f"z must be finite, got {z!r}")
    exp = coeffs.expansion
    acc = CompensatedSum()
    sz = math.sin(z)
    cz = math.cos(z)
    sign = 1.0
    for c, a in zip(coeffs.coefficients, coeffs.lattice):
        sign = -sign
        if exp == "pe1":
            # term = (4/z) (-1)^k c [a sin z / (z^2 - a^2)]^2
            if abs(z - a) < _NEAR_LIMIT:
                r = sign * a / (z + a)          # sin z/(z-a) -> cos a = (-1)^k
            elif abs(z + a) < _NEAR_LIMIT:
                r = sign * a / (z - a)
            else:
                r = a * sz / ((z - a) * (z + a))
            acc.add((4.0 / z) * sign * c * r * r)
        elif exp == "pe2":
            # term = 4 z (-1)^k c a [cos z / (z^2 - a^2)]^2
            if abs(z - a) < _NEAR_LIMIT:
                q = sign / (z + a)              # cos z/(z-a) -> -sin a = (-1)^k
            elif abs(z + a) < _NEAR_LIMIT:
                q = sign / (z - a)
            else:
                q = cz / ((z - a) * (z + a))
            acc.add(4.0 * z * sign * c * a * q * q)
        else:
            # pe3: term = 4 z (-1)^k c a [sin z / (z^2 - a^2)]^2
            if abs(z - a) < _NEAR_LIMIT:
                q = sign / (z + a)              # sin z/(z-a) -> cos a = (-1)^k
            elif abs(z + a) < _NEAR_LIMIT:
                q = sign / (z - a)
            else:
                q = sz / ((z - a) * (z + a))
            acc.add(4.0 * z * sign * c * a * q * q)
    return acc.total


_PAIRS = ("u_sinc", "u_cos", "v_sin")
_PAIR_FOR_EXPANSION = {"pe1": "u_sinc", "pe2": "u_cos", "pe3": "v_sin"}


def wronskian_direct(density, pair: str, x: float,
                     tol: float | None = None) -> float:
    """W[F, G](x) = F G' - F' G by direct transform evaluation.

    pair selects (F, G): 'u_sinc' -> (U, sin x / x), 'u_cos' -> (U, cos x),
    'v_sin' -> (V, sin x). Expansion ids are accepted as aliases for the
    matching pair.
    """
    pair = _PAIR_FOR_EXPANSION.get(pair, pair)
    if pair not in _PAIRS:
        raise ParameterError(f"unknown Wronskian pair {pair!r}; pick from {_PAIRS}")
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ParameterError(f"x must be finite and > 0, got {x!r}")
    tol = resolve_tol(tol)
    if pair == "u_sinc":
        u = float(evaluate(density, "cosine", x, tol))
        du = float(evaluate(density, "d_cosine", x, tol))
        g = math.sin(x) / x
        dg = (x * math.cos(x) - math.sin(x)) / (x * x)
        return u * dg - du * g
    if pair == "u_cos":
        u = float(evaluate(density, "cosine", x, tol))
        du = float(evaluate(density, "d_cosine", x, tol))
        return -u * math.sin(x) - du * math.cos(x)
    v = float(evaluate(density, "sine", x, tol))
    dv = float(evaluate(density, "d_sine", x, tol))
    return v * math.cos(x) - dv * math.sin(x)
