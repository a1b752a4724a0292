"""Lattice expansions: partial sums, residues, and the two Wronskian routes."""

import math

import pytest

from oscilla import (ParameterError, PoleProximityError, evaluate,
                     make_density, pf_partial_sum, sample_lattice,
                     wronskian_direct, wronskian_series)

_PI = math.pi


@pytest.fixture(scope="module")
def half2():
    return make_density("beta", (0.5, 2))


def test_pe1_partial_sums_converge(half2):
    z = 4.0
    target = float(evaluate(half2, "cosine", z)) / math.sin(z)
    errs = []
    for n in (25, 50, 100, 200):
        c = sample_lattice(half2, "pe1", n)
        errs.append(abs(pf_partial_sum(c, z) - target))
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[-1] < 5e-4


def test_pe2_partial_sums_converge(half2):
    z = 2.0
    target = float(evaluate(half2, "cosine", z)) / (z * math.cos(z))
    errs = []
    for n in (25, 100, 400):
        c = sample_lattice(half2, "pe2", n)
        errs.append(abs(pf_partial_sum(c, z) - target))
    assert errs[0] > errs[1] > errs[2]


def test_pe3_partial_sums_converge(half2):
    z = 2.5
    target = float(evaluate(half2, "sine", z)) / (z * math.sin(z))
    errs = []
    for n in (25, 100, 400):
        c = sample_lattice(half2, "pe3", n)
        errs.append(abs(pf_partial_sum(c, z) - target))
    assert errs[0] > errs[1] > errs[2]


def test_pe1_residues(half2):
    # (z - k pi) U(z)/sin z -> (-1)^k U(k pi); symmetric average kills the
    # regular part's linear term
    eps = 1e-3
    for k in (1, 2, 3, 4, 5):
        a = k * _PI
        g = lambda z: float(evaluate(half2, "cosine", z)) / math.sin(z)
        res = 0.5 * ((a + eps - a) * g(a + eps) + (a - eps - a) * g(a - eps))
        want = (-1) ** k * float(evaluate(half2, "cosine", a))
        assert res == pytest.approx(want, abs=1e-5)


def test_lattice_layouts(half2):
    c1 = sample_lattice(half2, "pe1", 4)
    assert c1.lattice == tuple(k * _PI for k in (1, 2, 3, 4))
    assert c1.c0 == pytest.approx(half2.moment0)
    c2 = sample_lattice(half2, "pe2", 3)
    assert c2.lattice == tuple((k - 0.5) * _PI for k in (1, 2, 3))
    c3 = sample_lattice(half2, "pe3", 3)
    assert c3.c0 == pytest.approx(half2.moment1)
    assert c3.coefficients[0] == pytest.approx(
        float(evaluate(half2, "sine", _PI)), abs=1e-12)


def test_partial_sum_guards_poles(half2):
    c = sample_lattice(half2, "pe1", 10)
    with pytest.raises(PoleProximityError):
        pf_partial_sum(c, _PI)
    with pytest.raises(PoleProximityError):
        pf_partial_sum(c, 2 * _PI + 1e-12)


def test_sample_lattice_validation(half2):
    with pytest.raises(ParameterError):
        sample_lattice(half2, "pe9", 5)
    with pytest.raises(ParameterError):
        sample_lattice(half2, "pe1", 0)


def test_wronskian_series_vs_direct(half2):
    c = sample_lattice(half2, "pe1", 300)
    for x in (1.0, 5.0, 15.0):
        s = wronskian_series(c, x)
        d = wronskian_direct(half2, "u_sinc", x)
        assert s == pytest.approx(d, abs=1e-4)
        assert s > 0.0 and d > 0.0


def test_wronskian_other_pairs(half2):
    c2 = sample_lattice(half2, "pe2", 300)
    c3 = sample_lattice(half2, "pe3", 300)
    for x in (2.0, 7.3):
        assert wronskian_series(c2, x) == pytest.approx(
            wronskian_direct(half2, "u_cos", x), abs=1e-3)
        assert wronskian_series(c3, x) == pytest.approx(
            wronskian_direct(half2, "v_sin", x), abs=1e-3)


def test_wronskian_series_finite_at_lattice_points(half2):
    # removable singularities: lattice points are legal arguments
    c = sample_lattice(half2, "pe1", 200)
    for x in (3 * _PI, 5 * _PI):
        s = wronskian_series(c, x)
        assert math.isfinite(s)
        assert s == pytest.approx(
            wronskian_direct(half2, "u_sinc", x), abs=1e-3)


@pytest.mark.parametrize("expansion", ["pe1", "pe2", "pe3"])
@pytest.mark.parametrize("z", [0.0, -0.0])
def test_wronskian_series_at_zero(half2, expansion, z):
    # every Wronskian vanishes at 0 (U'(0) = V(0) = 0); pe1's 4/z prefactor
    # is taken by its limit, so the series is continuous there
    c = sample_lattice(half2, expansion, 50)
    assert wronskian_series(c, z) == 0.0
    assert abs(wronskian_series(c, 1e-9)) < 1e-6


def test_wronskian_direct_validation(half2):
    with pytest.raises(ParameterError):
        wronskian_direct(half2, "bogus", 1.0)
