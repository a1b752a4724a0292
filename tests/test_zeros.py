"""Zero localization, sigma roots, pattern verification, interlacing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilla import (EndpointSpec, ParameterError, PatternItem,
                     PositivityClaim, Prediction, evaluate, interlace_check,
                     make_density, scan_and_refine, sigma_roots,
                     verify_pattern)
from oscilla.zeros import _refine_roots, records_to_csv

from oracles import bisect, j0_first_root, j0_series, sigma_ref

_PI = math.pi

# frozen from the bisection oracle sigma_ref; regenerated in the test below
_SIGMA_FROZEN = (4.493409457909063, 7.725251836937707, 10.904121659428899)

# first positive root of Bessel J0, frozen from the power-series bisection
_J0_ROOT = 2.404825557695773


def test_sigma_roots_against_oracle():
    got = sigma_roots(3)
    for g, want, ref in zip(got, _SIGMA_FROZEN,
                            (sigma_ref(1), sigma_ref(2), sigma_ref(3))):
        assert ref == pytest.approx(want, abs=1e-12)
        assert g == pytest.approx(want, abs=1e-12)


def test_sigma_brackets_and_defining_equation():
    roots = sigma_roots(50)
    assert len(roots) == 50
    for k, r in enumerate(roots, start=1):
        assert k * _PI < r < (k + 0.5) * _PI
        assert abs(math.sin(r) - r * math.cos(r)) <= 1e-10 * max(1.0, r)


def test_sigma_approaches_half_grid():
    # sigma_k - (k+1/2) pi shrinks like 1/(k pi)
    r20 = sigma_roots(20)[-1]
    assert abs(r20 - 20.5 * _PI) < 1.0 / (20 * _PI)


def test_sigma_validation():
    with pytest.raises(ParameterError):
        sigma_roots(0)


def test_scan_and_refine_sine():
    recs = scan_and_refine(math.sin, (2.0, 4.0))
    assert len(recs) == 1
    assert recs[0].abscissa == pytest.approx(_PI, abs=1e-10)
    assert recs[0].simple
    recs = scan_and_refine(math.sin, (0.5, 19.0))
    assert [r.abscissa for r in recs] == pytest.approx(
        [k * _PI for k in range(1, 7)], abs=1e-10)


def test_scan_grid_refinement_is_stable():
    d = make_density("gegenbauer", (0.0,))
    f = lambda x: float(evaluate(d, "cosine", x))
    lo, hi = 0.5, 3 * _PI
    coarse = scan_and_refine(f, (lo, hi), grid_points=64 * 3)
    fine = scan_and_refine(f, (lo, hi), grid_points=128 * 3)
    assert len(coarse) == len(fine) == 3
    for a, b in zip(coarse, fine):
        assert a.abscissa == pytest.approx(b.abscissa, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(r1=st.floats(min_value=0.5, max_value=4.0),
       gap=st.floats(min_value=1.0, max_value=4.0))
def test_scan_finds_polynomial_roots(r1, gap):
    r2 = r1 + gap
    f = lambda x: (x - r1) * (x - r2)
    recs = scan_and_refine(f, (0.0, 10.0), grid_points=400)
    assert len(recs) == 2
    assert recs[0].abscissa == pytest.approx(r1, abs=1e-9)
    assert recs[1].abscissa == pytest.approx(r2, abs=1e-9)


def test_bessel_j0_first_zero():
    # oracle regenerates the frozen constant
    assert j0_first_root() == pytest.approx(_J0_ROOT, abs=1e-13)
    # the cosine transform of (1-t^2)^(-1/2) is proportional to J0
    d = make_density("gegenbauer", (0.0,))
    f = lambda x: float(evaluate(d, "cosine", x))
    recs = scan_and_refine(f, (0.5, _PI))
    assert len(recs) == 1
    assert recs[0].abscissa == pytest.approx(_J0_ROOT, abs=1e-8)


def _one(lo_mul, lo_add, hi_mul, hi_add, **kw):
    return PatternItem("exactly_one",
                       lo=EndpointSpec(lo_mul, lo_add),
                       hi=EndpointSpec(hi_mul, hi_add), **kw)


def test_gegenbauer_zero_bands():
    # J0 zeros sit in ((k-1/2) pi, k pi); J1-type zeros in (k pi, sigma_k)
    d0 = make_density("gegenbauer", (0.0,))
    pred = Prediction(items=(_one(1, -0.5, 1, 0),),
                      positivity=PositivityClaim("+", _PI / 2), k_max=5)
    rep = verify_pattern(d0, "cosine", pred)
    assert rep.status == "pass", rep.violations

    d1 = make_density("gegenbauer", (1.0,))
    pred = Prediction(items=(PatternItem(
        "exactly_one", lo=EndpointSpec(1, 0),
        hi=EndpointSpec(1, 0, use_sigma=True)),),
        positivity=PositivityClaim("+", _PI), k_max=5)
    rep = verify_pattern(d1, "cosine", pred)
    assert rep.status == "pass", rep.violations


def test_struve_paired_bands():
    # sine transform of (1-t^2)^(-1/2): zeros pair up around even lattice
    # points; first two frozen from 30-digit root finding on Struve H0
    d = make_density("gegenbauer", (0.0,))
    pred = Prediction(items=(_one(2, -1, 2, 0), _one(2, 0, 2, 0.5)),
                      positivity=PositivityClaim("+", _PI), k_max=2)
    rep = verify_pattern(d, "sine", pred)
    assert rep.status == "pass", rep.violations
    zs = sorted(r.abscissa for r in rep.records)
    assert zs[0] == pytest.approx(4.3332378204064217, abs=1e-6)
    assert zs[1] == pytest.approx(6.7810276398620778, abs=1e-6)


def test_derivative_zero_bands_increasing_convex():
    # increasing convex density: cosine-derivative zeros in (k pi, sigma_k)
    d = make_density("beta", (1, 3))
    pred = Prediction(items=(PatternItem(
        "exactly_one", lo=EndpointSpec(1, 0),
        hi=EndpointSpec(1, 0, use_sigma=True)),),
        positivity=PositivityClaim("-", _PI), k_max=10)
    rep = verify_pattern(d, "d_cosine", pred)
    assert rep.status == "pass", rep.violations
    assert len(rep.records) == 10


def test_exact_zero_pattern_uniform():
    d = make_density("uniform")
    pred = Prediction(items=(PatternItem(
        "exact_zero_at", point=EndpointSpec(1, 0)),), k_max=6)
    rep = verify_pattern(d, "cosine", pred)
    assert rep.status == "pass", rep.violations


def test_violation_reported_with_fields():
    # sin x / x has zeros at the lattice, so claiming them inside
    # (k pi, (k+1/2) pi) must fail
    d = make_density("uniform")
    pred = Prediction(items=(_one(1, 0.25, 1, 0.4),), k_max=4)
    rep = verify_pattern(d, "cosine", pred)
    assert rep.status == "fail"
    assert not rep.passed
    v = rep.violations[0]
    assert {"k", "interval", "expected", "found"} <= set(v)


def test_positivity_claims():
    d = make_density("beta", (3, 0.5))
    rep = verify_pattern(d, "sine", Prediction(
        positivity=PositivityClaim("+"), scan_complement=False, k_max=8))
    assert rep.status == "pass"
    # the same transform is certainly not negative
    rep = verify_pattern(d, "sine", Prediction(
        positivity=PositivityClaim("-"), scan_complement=False, k_max=4))
    assert rep.status == "fail"


def test_sign_change_scan():
    d = make_density("beta", (0.5, 4))   # below the diagonal reflected
    rep = verify_pattern(d, "cosine", Prediction(
        sign_change_required=True, scan_complement=False, k_max=6))
    assert rep.status == "pass"
    # a strictly positive transform cannot confirm a sign change claim
    d = make_density("beta", (3, 0.5))
    rep = verify_pattern(d, "sine", Prediction(
        sign_change_required=True, scan_complement=False, k_max=6))
    assert rep.status == "indeterminate"


def test_shifted_band_pattern_for_half_two():
    d = make_density("beta", (0.5, 2))
    phi = Prediction(items=(_one(1, -0.5, 1, 0),),
                     positivity=PositivityClaim("+", _PI / 2), k_max=8)
    psi = Prediction(items=(_one(1, 0, 1, 0.5),),
                     positivity=PositivityClaim("+", _PI), k_max=8)
    assert verify_pattern(d, "cosine", phi).status == "pass"
    assert verify_pattern(d, "sine", psi).status == "pass"


def test_concave_strip_bands():
    d = make_density("beta", (1.5, 1))
    pred = Prediction(items=(_one(1, 0, 1, 1),),
                      positivity=PositivityClaim("+", _PI), k_max=8)
    assert verify_pattern(d, "cosine", pred).status == "pass"


def test_interlace_check():
    s = sigma_roots(6)
    lattice = [k * _PI for k in range(1, 7)]
    assert interlace_check(lattice, s)
    assert not interlace_check([1.0, 2.0, 10.0], [5.0, 6.0])
    # disjoint ranges carry no interlacing information
    assert interlace_check([1.0, 2.0, 3.0], [5.0, 6.0])
    # U and V zeros of a shifted-pattern density interlace
    d = make_density("beta", (0.5, 2))
    fu = lambda x: float(evaluate(d, "cosine", x))
    fv = lambda x: float(evaluate(d, "sine", x))
    zu = [r.abscissa for r in scan_and_refine(fu, (0.5, 20.0))]
    zv = [r.abscissa for r in scan_and_refine(fv, (0.5, 20.0))]
    assert interlace_check(zu, zv)


def test_records_to_csv_round_trip():
    d = make_density("uniform")
    f = lambda x: float(evaluate(d, "cosine", x))
    recs = scan_and_refine(f, (0.5, 10.0))
    text = records_to_csv(recs, "uniform", "cosine")
    lines = text.strip().splitlines()
    assert lines[0] == "density,kind,k,lo,hi,abscissa,residual,simple"
    first = lines[1].split(",")
    assert float(first[5]) == pytest.approx(_PI, abs=1e-10)


def test_j0_series_oracle_sanity():
    # the oracle itself is worth a pin: J0(0) = 1 and the series matches
    # the classic value at x = 1 (Abramowitz-Stegun 9.1)
    assert j0_series(0.0) == 1.0
    assert j0_series(1.0) == pytest.approx(0.7651976865579666, abs=1e-13)
    assert bisect(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
        math.sqrt(2), abs=1e-13)


def _refine_one(F, a, b, fa, fb, width_tol=None):
    # the one-bracket-at-a-time loop the lockstep refinement replaced
    for _ in range(120):
        goal = width_tol if width_tol is not None else 1e-13 * (1.0 + abs(b))
        if b - a <= max(goal, 4e-16 * (1.0 + abs(b))):
            break
        m = 0.5 * (a + b)
        if fb != fa:
            s = b - fb * (b - a) / (fb - fa)
            if a + 0.125 * (b - a) < s < b - 0.125 * (b - a):
                m = s
        fm = F(m)
        if fm == 0.0:
            return m, m, m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a, b, 0.5 * (a + b)


@pytest.mark.parametrize("width_tol", [None, 1e-6])
def test_lockstep_refinement_matches_one_at_a_time(width_tol):
    # a pure function makes lockstep and sequential refinement bit-identical
    # a triple root at 0.25 and simple ones at multiples of pi
    f = lambda x: math.sin(x) * (x - 0.25) ** 3
    brackets = [(a, b, f(a), f(b)) for a, b in
                ((0.1, 0.4), (2.0, 4.0), (5.9, 7.0), (9.0, 10.0), (0.3, 3.5))]
    calls = []

    def many(xs):
        calls.append(len(xs))
        return [f(x) for x in xs]

    got = _refine_roots(many, brackets, width_tol)
    assert got == [_refine_one(f, *br, width_tol) for br in brackets]
    assert max(calls) == len(brackets)


# one classified cell of the criterion-12 grid per region tag
_TAG_CELLS = [
    ((2.7, 0.4), "Pc"), ((2.8, 1.7), "Ps_minus_Pc"), ((0.5, 2.3), "Pc_star"),
    ((1.3, 3.4), "Ps_star_minus_Pc_star"), ((1.5, 1.0), "concave_strip"),
    ((2.1, 2.1), "diagonal"), ((2.4, 3.5), "sign_change_zone"),
    ((1.0, 2.0), "excluded_point"),
]


@pytest.mark.parametrize("ab,tag", _TAG_CELLS)
def test_verdict_stable_when_scan_density_doubles(ab, tag):
    from oscilla import classify_beta_params, predict
    label = classify_beta_params(*ab)
    assert label.tag == tag
    d = make_density("beta", ab)
    for kind, pred in zip(("cosine", "sine"), predict(label, k_max=10)):
        if pred is None:
            continue
        base = verify_pattern(d, kind, pred, per_pi=64)
        fine = verify_pattern(d, kind, pred, per_pi=128)
        assert fine.status == base.status, (kind, fine.violations)
        assert len(fine.records) == len(base.records)
        for a, b in zip(base.records, fine.records):
            assert a.abscissa == pytest.approx(b.abscissa, abs=1e-9)
