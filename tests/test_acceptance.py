"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Each test exercises the public API end to end, checks the predicted
behavior against an independent route (closed forms, bisection oracles,
quadrature vs. series), and asserts its runtime budget.  The report lines
bypass pytest capture so they appear in the terminal output.
"""

import hashlib
import json
import math
import os
import random
import time

import pytest
from mpmath import mp

from oscilla import (EndpointSpec, PatternItem, PositivityClaim, Prediction,
                     beta_series, classify_beta_params, evaluate,
                     kuttner_predict, lommel_predict, lommel_realization,
                     make_density, pf_partial_sum, predict, sample_lattice,
                     scan_and_refine, sigma_roots, steinerberger_predict,
                     steinerberger_signs, sweep, verify_pattern,
                     wronskian_direct, wronskian_series)

from oracles import sigma_ref

_PI = math.pi


def _report(capfd, n, ok, elapsed, desc):
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {desc}"
    with capfd.disabled():
        print(line, flush=True)


def test_criterion_01_closed_form_agreement(capfd):
    t0 = time.monotonic()
    d = make_density("kuttner", (2.0, 1.0))
    xs = [10.0 ** e for e in
          (-3 + 5 * i / 199 for i in range(200))]
    worst = 0.0
    with mp.workdps(30):
        for x in xs:
            # the elementary form loses ~10 digits to cancellation below
            # x ~ 1e-2 in double precision, so form the reference exactly
            xm = mp.mpf(x)
            ref = float(2 * (mp.sin(xm) - xm * mp.cos(xm)) / xm ** 3)
            worst = max(worst, abs(float(evaluate(d, "cosine", x)) - ref))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(capfd, 1, ok, elapsed,
            f"closed-form agreement for kuttner(2,1), worst {worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_sigma_table_and_kuttner_zeros(capfd):
    t0 = time.monotonic()
    roots = sigma_roots(50)
    ok = True
    for k, r in enumerate(roots, start=1):
        ok &= k * _PI < r < (k + 0.5) * _PI
        ok &= abs(math.sin(r) - r * math.cos(r)) <= 1e-10 * max(1.0, r)
    d = make_density("kuttner", (2.0, 1.0))
    f = lambda x: float(evaluate(d, "cosine", x))
    zs = [z.abscissa for z in scan_and_refine(f, (0.5, 20.6 * _PI))]
    worst = max(abs(z - s) for z, s in zip(zs[:20], roots[:20]))
    ok &= len(zs) >= 20 and worst <= 1e-8
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(capfd, 2, ok, elapsed,
            f"sigma table k=1..50 and kuttner(2,1) zero match, worst {worst:.2e}")
    assert ok
    assert elapsed < 5.0


def test_criterion_03_shifted_patterns(capfd):
    t0 = time.monotonic()
    ok = True
    detail = []
    for a, b in ((0.5, 2.0), (0.3, 3.0), (1.0, 3.0)):
        d = make_density("beta", (a, b))
        phi, psi = predict(classify_beta_params(a, b), k_max=20)
        reps = {}
        for kind, p in (("cosine", phi), ("sine", psi)):
            rep = verify_pattern(d, kind, p)
            reps[kind] = rep
            ok &= rep.status == "pass"
        # no common zeros: each zero of one transform leaves the other
        # bounded away from zero
        cross = min(
            min(abs(float(evaluate(d, other, z.abscissa)))
                for z in reps[kind].records)
            for kind, other in (("cosine", "sine"), ("sine", "cosine")))
        ok &= cross > 1e-6
        detail.append(f"({a:g},{b:g}) cross {cross:.1e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report(capfd, 3, ok, elapsed, "shifted zero patterns: " + "; ".join(detail))
    assert ok
    assert elapsed < 30.0


def test_criterion_04_positivity_region(capfd):
    t0 = time.monotonic()
    step = _PI / 64
    n = int(100.0 / step)
    worst = math.inf
    for a, b in ((3.0, 0.5), (2.0, 2.0 / 3.0), (1.2, 0.5)):
        d = make_density("beta", (a, b))
        for kind in ("cosine", "sine"):
            m = min(float(evaluate(d, kind, (j + 1) * step))
                    for j in range(n))
            worst = min(worst, m)
    elapsed = time.monotonic() - t0
    ok = worst > 0.0 and elapsed < 10.0
    _report(capfd, 4, ok, elapsed,
            f"positivity on (0,100] grid, min value {worst:.2e}")
    assert worst > 0.0
    assert elapsed < 10.0


def test_criterion_05_series_quadrature_cross_validation(capfd):
    t0 = time.monotonic()
    rng = random.Random(20240822)
    worst = 0.0
    for _ in range(500):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(0.1, 5.0)
        x = rng.uniform(1e-3, 40.0)
        kind = rng.choice(("cosine", "sine"))
        d = make_density("beta", (a, b))
        diff = abs(float(beta_series(a, b, kind, x))
                   - float(evaluate(d, kind, x)))
        worst = max(worst, diff)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(capfd, 5, ok, elapsed,
            f"series vs quadrature on 500 samples, worst {worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_06_partial_fraction_convergence(capfd):
    t0 = time.monotonic()
    d = make_density("beta", (0.5, 2.0))
    z = 4.0
    target = float(evaluate(d, "cosine", z)) / math.sin(z)
    sums = {n: pf_partial_sum(sample_lattice(d, "pe1", n), z)
            for n in (50, 100, 200, 400)}
    errs = [abs(target - sums[n]) for n in (50, 100, 200, 400)]
    ok = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    # residues of U(z)/sin z at k pi, estimated from the symmetric limit
    coeffs = sample_lattice(d, "pe1", 5)
    h = 1e-4
    worst = 0.0
    for k in range(1, 6):
        p = k * _PI
        g = lambda t: (t - p) * float(evaluate(d, "cosine", t)) / math.sin(t)
        res_num = 0.5 * (g(p - h) + g(p + h))
        want = (-1) ** k * coeffs.coefficients[k - 1]
        worst = max(worst, abs(res_num - want))
    ok &= worst <= 1e-5
    elapsed = time.monotonic() - t0
    ok &= elapsed < 20.0
    _report(capfd, 6, ok, elapsed,
            f"partial fractions: tails {['%.1e' % e for e in errs]}, "
            f"residue dev {worst:.1e}")
    assert ok
    assert elapsed < 20.0


def test_criterion_07_wronskian_signs(capfd):
    t0 = time.monotonic()
    d = make_density("beta", (0.5, 2.0))
    coeffs = sample_lattice(d, "pe1", 500)
    worst = 0.0
    ok = True
    for x in range(1, 31):
        ws = wronskian_series(coeffs, float(x))
        wd = wronskian_direct(d, "u_sinc", float(x))
        ok &= ws > 0.0 and wd > 0.0
        worst = max(worst, abs(ws - wd))
    elapsed = time.monotonic() - t0
    ok &= worst <= 1e-4 and elapsed < 30.0
    _report(capfd, 7, ok, elapsed,
            f"Wronskian positive on 1..30, series/direct dev {worst:.2e}")
    assert ok
    assert elapsed < 30.0


def test_criterion_08_bessel_oracle(capfd):
    t0 = time.monotonic()
    d0 = make_density("gegenbauer", (0.0,))
    p = Prediction(items=(PatternItem(
        "exactly_one", lo=EndpointSpec(1, -0.5), hi=EndpointSpec(1, 0)),),
        positivity=PositivityClaim("+", _PI / 2), k_max=20)
    rep = verify_pattern(d0, "cosine", p)
    ok = rep.status == "pass"
    first = min(z.abscissa for z in rep.records)
    ok &= abs(first - 2.404825557695773) <= 1e-8

    d1 = make_density("gegenbauer", (1.0,))
    p = Prediction(items=(PatternItem(
        "exactly_one", lo=EndpointSpec(1, 0),
        hi=EndpointSpec(1, 0, use_sigma=True)),),
        positivity=PositivityClaim("+", _PI), k_max=20)
    ok &= verify_pattern(d1, "cosine", p).status == "pass"
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(capfd, 8, ok, elapsed,
            f"Bessel-kernel zero bands, first zero {first:.12f}")
    assert ok
    assert elapsed < 10.0


def test_criterion_09_kuttner_cases(capfd):
    t0 = time.monotonic()
    ok = True
    # delta <= 1 <= lambda: nonnegative; check strict positivity on grid
    d = make_density("kuttner", (0.5, 1.5))
    step = _PI / 64
    m = min(float(evaluate(d, "cosine", (j + 1) * step))
            for j in range(int(100.0 / step)))
    ok &= m > 0.0
    # lambda <= 1 <= delta: one zero per unit band
    for delta, lam in ((3.0, 0.5), (1.5, 1.0), (2.5, 1.0), (4.0, 1.0)):
        pred = kuttner_predict(delta, lam, k_max=20)
        rep = verify_pattern(make_density("kuttner", (delta, lam)),
                             "cosine", pred)
        ok &= rep.status == "pass"
    elapsed = time.monotonic() - t0
    ok &= elapsed < 20.0
    _report(capfd, 9, ok, elapsed,
            f"Kuttner cases, min of positive branch {m:.2e}")
    assert ok
    assert elapsed < 20.0


def test_criterion_10_application_tables(capfd):
    t0 = time.monotonic()
    ok = True
    # Lommel four-case table
    for mu in (-1.0, 0.0, 0.3, 1.0):
        pred = lommel_predict(mu, k_max=15)
        d, kind = lommel_realization(mu)
        rep = verify_pattern(d, kind, pred)
        ok &= rep.status == "pass"
    # Williamson: sine transform of t(1-t)^(a-1), three regimes
    d = make_density("beta", (0.5, 2.0))
    p = Prediction(items=(PatternItem(
        "exactly_one", lo=EndpointSpec(1, 0), hi=EndpointSpec(1, 0.5)),),
        positivity=PositivityClaim("+", _PI), k_max=15)
    ok &= verify_pattern(d, "sine", p).status == "pass"
    d = make_density("beta", (2.0, 2.0))
    rep = verify_pattern(d, "sine", Prediction(
        sign_change_required=True, scan_complement=False, k_max=31))
    ok &= rep.status == "pass"
    d = make_density("beta", (3.0, 2.0))
    step = _PI / 64
    m = min(float(evaluate(d, "sine", (j + 1) * step))
            for j in range(int(100.0 / step)))
    ok &= m > 0.0
    # Steinerberger sign sequences
    ok &= steinerberger_signs(1.0, 50) == (1,) * 50
    ok &= steinerberger_signs(5.0 / 3.0, 50) == (1,) * 50
    alt = tuple((-1) ** (k - 1) for k in range(1, 51))
    ok &= steinerberger_signs(2.0, 50) == alt
    ok &= steinerberger_signs(3.0, 50) == alt
    ok &= steinerberger_predict(1.8) == "indeterminate"
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report(capfd, 10, ok, elapsed, "Lommel, Williamson, Steinerberger tables")
    assert ok
    assert elapsed < 30.0


def test_criterion_11_diagonal_lattice_zeros(capfd):
    t0 = time.monotonic()
    worst = 0.0
    for ab in (1.5, 3.0):
        d = make_density("beta", (ab, ab))
        for k in range(1, 11):
            worst = max(worst, abs(float(
                evaluate(d, "cosine", (2 * k - 1) * _PI))))
            worst = max(worst, abs(float(
                evaluate(d, "sine", 2 * k * _PI))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(capfd, 11, ok, elapsed,
            f"diagonal lattice zeros, worst |value| {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_12_atlas_sweep(capfd):
    t0 = time.monotonic()
    grid = [round(0.1 * i, 10) for i in range(1, 41)]
    records = sweep(grid, grid, k_max=10, jobs=os.cpu_count() or 1)
    assert len(records) == 1600
    crashes = [r for r in records if r.status == "error"]
    definite_fails = [
        r for r in records
        if r.label != "unknown" and r.status not in ("pass", "unclassified")]
    parsed = [json.loads(r.to_json()) for r in records]
    ok = (not crashes and not definite_fails
          and len(parsed) == 1600
          and all("label" in doc for doc in parsed))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    _report(capfd, 12, ok, elapsed,
            f"atlas sweep 1600 cells, {len(crashes)} crashes, "
            f"{len(definite_fails)} definite-label failures")
    assert not crashes
    assert not definite_fails, definite_fails[:5]
    assert elapsed < 600.0
    # byte-identity gate for refactors: pass and unclassified lines carry
    # only labels, statuses and the horizon, so the hash is portable
    text = "".join(r.to_json() + "\n" for r in records)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "71fb3fc290b00baadca40f8dcf5c25f027c9e4f54405b3bdefb53e8c786979e7")
