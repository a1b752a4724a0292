"""Transform evaluation against an independent high-precision oracle.

Frozen constants below were produced by 30-digit tanh-sinh integration of
the defining integrals (mpmath.quad on f(t) cos xt / f(t) sin xt over
[0, 1]) and are trusted to every printed digit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilla import (ConsistencyError, ParameterError, closed_form,
                     default_tol, evaluate, evaluate_many, make_density,
                     reflect)

from oracles import beta_transform_ref, kuttner_transform_ref

# (family, params, kind, x) -> value
_ORACLE = [
    (("beta", (0.5, 2)), "cosine", 1.0, 0.67957829049326415),
    (("beta", (0.5, 2)), "cosine", 4.0, -0.69959131914165447),
    (("beta", (0.5, 2)), "sine", 1.0, 0.70258706222716862),
    (("beta", (0.5, 2)), "sine", 4.0, -0.14027564425435647),
    (("beta", (2, 3)), "cosine", 2.5, 0.056834256361358859),
    (("beta", (2, 3)), "sine", 2.5, 0.87915052629299651),
    (("power", (0.5,)), "cosine", 2.0, 1.3351936962943366),
    (("power", (0.5,)), "sine", 2.0, 0.99762371132542130),
    (("gegenbauer", (1.0,)), "cosine", 3.0, 0.17753085553981473),
    (("quadratic", (1, 0.5)), "cosine", 2.0, 0.44502324419641623),
    (("kuttner", (2.5, 1.5)), "cosine", 3.0, 0.25137703890376704),
    (("beta", (1, 3)), "d_cosine", 2.0, -0.71084947776853512),
    (("beta", (1, 3)), "d_sine", 2.0, -0.025138261234796457),
    (("beta", (0.5, 2)), "cosine_reflected", 2.0, 0.84746318303463831),
    (("beta", (0.5, 2)), "sine_reflected", 2.0, 0.34181390173369946),
]


@pytest.mark.parametrize("density,kind,x,expected", _ORACLE)
def test_against_frozen_oracle(density, kind, x, expected):
    family, params = density
    d = make_density(family, params)
    r = evaluate(d, kind, x)
    assert float(r) == pytest.approx(expected, abs=1e-9)
    assert r.abs_error_estimate < 1e-6


def test_eval_result_behaves_as_float():
    d = make_density("uniform")
    r = evaluate(d, "cosine", 2.0)
    assert isinstance(r, float)
    assert r + 0.0 == r.value
    assert r.method in ("quadrature", "closed_form")


def test_value_at_zero():
    d = make_density("beta", (2, 3))
    assert float(evaluate(d, "cosine", 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(evaluate(d, "sine", 0.0)) == 0.0


def test_small_x_limits():
    # U(x) -> m0 and V(x)/x -> m1 as x -> 0
    d = make_density("beta", (0.5, 2))
    x = 1e-4
    assert float(evaluate(d, "cosine", x)) == pytest.approx(
        d.moment0, abs=1e-7)
    assert float(evaluate(d, "sine", x)) / x == pytest.approx(
        d.moment1, rel=1e-6)


def test_closed_forms_match_quadrature():
    cases = [
        (make_density("uniform"), "cosine",
         lambda x: math.sin(x) / x),
        (make_density("beta", (2, 1)), "cosine",
         lambda x: 2 * (1 - math.cos(x)) / x**2),
        (make_density("beta", (1, 2)), "sine",
         lambda x: 2 * (math.sin(x) - x * math.cos(x)) / x**2),
        (make_density("kuttner", (2, 1)), "cosine",
         lambda x: 2 * (math.sin(x) - x * math.cos(x)) / x**3),
    ]
    for d, kind, ref in cases:
        for x in (0.7, 3.3, 12.1, 57.0):
            cf = closed_form(d, kind, x)
            assert cf is not None
            assert float(cf) == pytest.approx(ref(x), abs=1e-12)
            assert float(evaluate(d, kind, x)) == pytest.approx(
                ref(x), abs=1e-9)


def test_closed_form_none_when_unknown():
    d = make_density("beta", (0.5, 2))
    assert closed_form(d, "cosine", 1.0) is None


def test_derivative_kinds_match_difference_quotient():
    d = make_density("beta", (2, 3))
    h = 1e-5
    for x in (1.0, 4.0, 9.0):
        du = (float(evaluate(d, "cosine", x + h))
              - float(evaluate(d, "cosine", x - h))) / (2 * h)
        assert float(evaluate(d, "d_cosine", x)) == pytest.approx(
            du, abs=1e-7)
        dv = (float(evaluate(d, "sine", x + h))
              - float(evaluate(d, "sine", x - h))) / (2 * h)
        assert float(evaluate(d, "d_sine", x)) == pytest.approx(dv, abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(min_value=0.4, max_value=4.0),
       b=st.floats(min_value=0.4, max_value=4.0),
       x=st.floats(min_value=0.2, max_value=25.0))
def test_reflection_identity(a, b, x):
    # transform of f(1-t) equals the cos x U + sin x V combination
    d = make_density("beta", (a, b))
    u = float(evaluate(d, "cosine", x))
    v = float(evaluate(d, "sine", x))
    ur = float(evaluate(reflect(d), "cosine", x))
    vr = float(evaluate(reflect(d), "sine", x))
    assert ur == pytest.approx(math.cos(x) * u + math.sin(x) * v, abs=1e-8)
    assert vr == pytest.approx(math.sin(x) * u - math.cos(x) * v, abs=1e-8)


def test_reflected_kind_equals_reflected_density():
    d = make_density("beta", (0.5, 2))
    r = reflect(d)
    for x in (0.9, 4.2, 17.0):
        assert float(evaluate(d, "cosine_reflected", x)) == pytest.approx(
            float(evaluate(r, "cosine", x)), abs=1e-9)


def test_kind_aliases():
    d = make_density("uniform")
    x = 2.2
    assert float(evaluate(d, "u", x)) == float(evaluate(d, "cosine", x))
    assert float(evaluate(d, "sin", x)) == float(evaluate(d, "sine", x))


def test_invalid_arguments():
    d = make_density("uniform")
    with pytest.raises(ParameterError):
        evaluate(d, "cosine", -1.0)
    with pytest.raises(ParameterError):
        evaluate(d, "cosine", math.inf)
    with pytest.raises(ParameterError):
        evaluate(d, "nokind", 1.0)
    with pytest.raises(ParameterError):
        evaluate(d, "cosine", 1.0, tol=-1e-10)


def test_tol_env_override(monkeypatch):
    monkeypatch.setenv("OSCILLA_TOL", "1e-6")
    assert default_tol() == 1e-6
    monkeypatch.delenv("OSCILLA_TOL")
    assert default_tol() == 1e-10


# (density, kind): closed-form families, a singular beta with none, and a
# reflected kind (its direct route and identity check both run batched)
_MANY_CASES = [
    (("beta", (1, 1)), "cosine"),
    (("beta", (1, 1)), "d_sine"),
    (("beta", (1, 2)), "sine"),
    (("beta", (2, 1)), "cosine"),
    (("kuttner", (2, 1)), "sine"),
    (("quadratic", (1, 0.5)), "cosine"),
    (("beta", (0.2, 0.6)), "sine"),
    (("beta", (0.2, 0.6)), "cosine_reflected"),
    (("beta", (2, 1)), "sine_reflected"),
]


@pytest.mark.parametrize("density,kind", _MANY_CASES)
def test_evaluate_many_matches_scalar_and_closed_form(density, kind):
    d = make_density(*density)
    xs = [64 * math.pi * k / 160 for k in range(1, 161)] + [1e-3, 0.3]
    values, errors = evaluate_many(d, kind, xs)
    assert values.shape == errors.shape == (len(xs),)
    for x, v, e in zip(xs, values, errors):
        r = evaluate(d, kind, x)
        assert abs(v - float(r)) <= 1e-14 + e + r.abs_error_estimate, x
        cf = closed_form(d, kind, x)
        if cf is not None:
            assert abs(v - float(cf)) <= e + 1e-14, x


def test_evaluate_many_at_zero_and_any_order():
    d = make_density("beta", (2, 3))
    values, errors = evaluate_many(d, "cosine", (3.0, 0.0, 1.0))
    assert values[1] == float(evaluate(d, "cosine", 0.0)) == 1.0
    assert errors[1] > 0.0
    for x, v in zip((3.0, 1.0), values[[0, 2]]):
        assert v == pytest.approx(float(evaluate(d, "cosine", x)), abs=1e-13)


@pytest.mark.parametrize("xs", [[], [1.0, -0.5], [math.nan], [2.0, math.inf],
                                [[1.0, 2.0]], ["a"]])
def test_evaluate_many_rejects_bad_abscissas(xs):
    d = make_density("uniform")
    with pytest.raises(ParameterError):
        evaluate_many(d, "cosine", xs)


_KIND_PART = {"cosine": (False, "real"), "sine": (False, "imag"),
              "d_cosine": (True, "real"), "d_sine": (True, "imag")}


@settings(max_examples=30, deadline=None)
@given(a=st.floats(min_value=0.1, max_value=4.0),
       b=st.floats(min_value=0.1, max_value=4.0),
       x=st.floats(min_value=0.01, max_value=40.0),
       kind=st.sampled_from(sorted(_KIND_PART)))
def test_error_estimate_bounds_true_error_beta(a, b, x, kind):
    derivative, part = _KIND_PART[kind]
    ref = getattr(beta_transform_ref(a, b, x, derivative), part)
    r = evaluate(make_density("beta", (a, b)), kind, x)
    assert abs(float(r) - ref) <= r.abs_error_estimate, (float(r), ref)


@settings(max_examples=15, deadline=None)
@given(delta=st.floats(min_value=0.5, max_value=4.0),
       lam=st.floats(min_value=0.2, max_value=3.0),
       x=st.floats(min_value=0.01, max_value=40.0))
def test_error_estimate_bounds_true_error_kuttner(delta, lam, x):
    ref = kuttner_transform_ref(delta, lam, x)
    d = make_density("kuttner", (delta, lam))
    for kind, want in (("cosine", ref.real), ("sine", ref.imag)):
        r = evaluate(d, kind, x)
        assert abs(float(r) - want) <= r.abs_error_estimate, (kind, float(r), want)
