"""Hypergeometric series: exact-arithmetic oracle, regime guards, and the
series/quadrature cross-validation for beta densities.

The frozen 1F2 reference values come from two independent routes that
agree to 22 digits: exact rational Pochhammer partial sums (oracles.py)
and 30-digit arbitrary-precision summation.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilla import (HypSpec, ParameterError, SeriesCancellationError,
                     SeriesRegimeError, beta_series, default_tol, evaluate,
                     hyp_pfq, make_density)
from oscilla.hypergeom import _F64_ARG_LIMIT, SERIES_X_LIMIT, _dyadic

from oracles import beta_series_ref, pfq_partial_sum_exact, pfq_ref

_F12_HALF = HypSpec((0.5,), (1.5, 1.25))

# 1F2(1/2; 3/2, 5/4; z) frozen references; -35.9 and -36.1 sit just inside
# and just outside _F64_ARG_LIMIT, so they are summed once in float64 and
# once in fixed point
_FROZEN = [
    (-4.0, 0.36254078750928834),
    (-25.0, 0.14067006644801819),
    (-35.9, 0.09871545800370617),
    (-36.1, 0.09837487118305453),
    (-390.0, 0.033971140576276737),
]


@pytest.mark.parametrize("z,expected", _FROZEN)
def test_1f2_against_frozen(z, expected):
    assert 35.9 < _F64_ARG_LIMIT < 36.1  # the two middle cases straddle it
    r = hyp_pfq(_F12_HALF, z)
    assert float(r) == pytest.approx(expected, abs=1e-12)
    with mp.workdps(30):
        want = float(mp.hyper([0.5], [1.5, 1.25], z))
    assert abs(float(r) - want) <= r.abs_error_estimate + default_tol()


def test_frozen_value_regenerates_from_exact_oracle():
    v = pfq_partial_sum_exact([Fraction(1, 2)],
                              [Fraction(3, 2), Fraction(5, 4)],
                              Fraction(-4), 80)
    assert float(v) == pytest.approx(0.36254078750928834, abs=1e-15)


def test_two_parameter_case():
    # 1F2(2; 3/2, 3; -(pi/2)^2)
    spec = HypSpec((2.0,), (1.5, 3.0))
    v = hyp_pfq(spec, -((math.pi / 2) ** 2))
    assert float(v) == pytest.approx(0.24102901849440175, abs=1e-12)


def test_unit_argument_and_zero():
    spec = HypSpec((1.0,), (2.0, 2.0))
    assert float(hyp_pfq(spec, 0.0)) == 1.0


def test_exact_oracle_agreement_random_rationals():
    rng = random.Random(20240817)
    for _ in range(15):
        a = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        b1 = Fraction(rng.randint(2, 9), 2)
        b2 = Fraction(rng.randint(2, 9), 3)
        z = Fraction(-rng.randint(1, 20))
        spec = HypSpec((float(a),), (float(b1), float(b2)))
        want = pfq_partial_sum_exact([a], [b1, b2], z, 120)
        assert float(hyp_pfq(spec, float(z))) == pytest.approx(
            float(want), abs=1e-10 * (1 + abs(float(want))))


def test_regime_guards():
    with pytest.raises(SeriesRegimeError):
        hyp_pfq(_F12_HALF, 1.0)
    with pytest.raises(SeriesRegimeError):
        hyp_pfq(_F12_HALF, -401.0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        hyp_pfq(HypSpec((0.5,), (0.0, 1.5)), -1.0)


def test_beta_series_matches_transform_oracle():
    # same frozen integrals as the transform tests, reached by summation
    assert float(beta_series(0.5, 2, "cosine", 4.0)) == pytest.approx(
        -0.69959131914165447, abs=1e-8)
    assert float(beta_series(2, 3, "sine", 2.5)) == pytest.approx(
        0.87915052629299651, abs=1e-8)


def test_beta_series_vs_quadrature_random():
    rng = random.Random(7)
    for _ in range(40):
        a = rng.uniform(0.3, 4.0)
        b = rng.uniform(0.3, 4.0)
        x = rng.uniform(0.1, SERIES_X_LIMIT)
        kind = rng.choice(["cosine", "sine"])
        d = make_density("beta", (a, b))
        s = float(beta_series(a, b, kind, x))
        q = float(evaluate(d, kind, x))
        assert s == pytest.approx(q, abs=1e-8), (a, b, kind, x)


def test_beta_series_x_limit():
    assert SERIES_X_LIMIT == 40.0
    with pytest.raises(SeriesRegimeError):
        beta_series(0.5, 2, "cosine", SERIES_X_LIMIT + 1)


# 1F1 and 0F0 terms grow like e^|z|, much faster than the e^(2 sqrt|z|) of
# the beta-density 2F3 series, so their fixed-point scale comes from the
# largest term rather than from the 2F3 digit rule
_FAST_GROWTH = [
    ((1.0,), (1.5,), -60.0),
    ((1.0,), (1.5,), -100.0),
    ((), (), -40.0),
]


@pytest.mark.parametrize("num,den,z", _FAST_GROWTH)
def test_fast_growing_terms_within_estimate(num, den, z):
    r = hyp_pfq(HypSpec(num, den), z)
    assert abs(float(r) - pfq_ref(num, den, z, dps=80)) <= r.abs_error_estimate
    assert r.abs_error_estimate < 1e-12


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.05, 6.0), beta=st.floats(0.05, 6.0),
       kind=st.sampled_from(["cosine", "sine"]),
       x=st.floats(12.0, SERIES_X_LIMIT, exclude_min=True))
def test_fixed_point_beta_series_within_estimate(alpha, beta, kind, x):
    r = beta_series(alpha, beta, kind, x)
    assert abs(float(r) - beta_series_ref(alpha, beta, kind, x)) \
        <= r.abs_error_estimate


def test_dyadic_conversion_is_exact():
    assert _dyadic(5e-324) == (1, 1074)
    z = math.nextafter(-36.0, -math.inf)
    m, k = _dyadic(z)
    assert Fraction(m, 2 ** k) == Fraction(z)
    with mp.workdps(60):
        z60 = -(150 + mp.pi / 7)
    m, k = _dyadic(z60)
    assert k > 150  # more fraction bits than a float holds
    with mp.workdps(120):
        assert mp.mpf(m) / mp.mpf(2) ** k == z60


def test_subnormal_parameter():
    spec = HypSpec((5e-324, 1.0), (0.5, 1.5, 2.0))
    r = hyp_pfq(spec, -100.0)
    assert float(r) == 1.0
    assert abs(float(r) - pfq_ref(spec.numerator, spec.denominator, -100.0)) \
        <= r.abs_error_estimate
    # here the first term is already below the fixed-point unit
    assert float(hyp_pfq(HypSpec((5e-324,), (1e6, 1.0)), -100.0)) == 1.0
    # as a denominator it lifts the terms past the float range (~1e325)
    assert float(hyp_pfq(HypSpec((1.0,), (5e-324, 1.5)), -100.0)) == math.inf


def test_sixty_digit_argument():
    with mp.workdps(60):
        z = -(150 + mp.pi / 7)
    r = hyp_pfq(_F12_HALF, z)
    want = pfq_ref(_F12_HALF.numerator, _F12_HALF.denominator, z, dps=80)
    assert abs(float(r) - want) <= r.abs_error_estimate


def test_one_ulp_either_side_of_the_float64_limit():
    assert _F64_ARG_LIMIT == 36.0
    inside = math.nextafter(-36.0, 0.0)        # float64 loop
    outside = math.nextafter(-36.0, -math.inf)  # fixed-point loop
    r_in, r_out = hyp_pfq(_F12_HALF, inside), hyp_pfq(_F12_HALF, outside)
    for z, r in ((inside, r_in), (outside, r_out)):
        want = pfq_ref(_F12_HALF.numerator, _F12_HALF.denominator, z)
        assert abs(float(r) - want) <= r.abs_error_estimate
    assert abs(float(r_in) - float(r_out)) <= (
        r_in.abs_error_estimate + r_out.abs_error_estimate)


def test_runaway_terms_refused():
    # terms rising by ~2^295000 would need integers of that size
    with pytest.raises(SeriesCancellationError):
        hyp_pfq(HypSpec((1e300,), (1.0, 1.0)), -100.0)
