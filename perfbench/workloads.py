"""The benchmark workloads: seeded inputs, one op, and its check.

Every workload is a closed loop with a single caller: run.py takes the next
input from ``inputs(seed)``, calls ``run(op)``, waits for the result and
only then takes the next input. The library sees only the generated inputs.

Ops reach the library through module attributes (``atlas.verify_cell``,
``transform.evaluate``, ...) looked up at call time, so the traced run can
rebind them without a second code path here.

Checks run outside the timed part and compare each output against a route
that does not share the code under test: the criterion-12 rule, and
quadrature against the hypergeometric series and the direct Wronskian.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import replace

from oscilla import atlas, hypergeom, partial_fractions, transform
from oscilla.density import make_density

# A value from quadrature may differ from an independent route by the
# quadrature's own acceptance level, 10 * tol (see oscillatory_integral and
# the ConsistencyError rule in transform.evaluate).
CHECK_FACTOR = 10.0

def _float_digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(struct.pack("<d", float(v)))
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# atlas_sweep
# ---------------------------------------------------------------------------


class AtlasSweep:
    """verify_cell(alpha, beta, k_max=10) over a stride-4 sub-lattice of the
    criterion-12 grid: alpha, beta in {0.2, 0.6, ..., 3.8}, 100 cells that
    hold every region tag of the grid, the unclassified ``unknown`` cells
    and the integer parameters 1 and 3 included.

    The seed orders the cells: the stream visits all 100 in a seeded order,
    then all 100 again in a fresh seeded order, and so on. A cell's cost
    depends strongly on its position (integer parameters skip the tanh-sinh
    end panels, unknown cells return at once, the region fixes the
    prediction), so letting the seed pick the lattice offset, or sampling
    cells at random, would make a run's median and tail depend on the draw;
    a fixed cell set gives every run the same mix. A 45 s run covers it
    about 1.6 times, so each pass is ordered by region tag strata: every
    prefix of a pass holds each tag in nearly its share of the whole set,
    and the part-pass at the end of a run does not tilt the median.
    """

    name = "atlas_sweep"
    trace_ops = 30
    grid = [round(0.1 * i, 10) for i in range(1, 41)]
    lattice = grid[1::4]
    k_max = 10

    def inputs(self, seed: int):
        rng = random.Random(seed)
        by_tag: dict[str, list] = {}
        for a in self.lattice:
            for b in self.lattice:
                tag = atlas.classify_beta_params(a, b).tag
                by_tag.setdefault(tag, []).append((a, b, tag))
        while True:
            # the i-th of a tag's n cells goes to position (i + u) / n of
            # the pass, u drawn once per tag and pass
            keyed = []
            for tag in sorted(by_tag):
                cells = by_tag[tag]
                rng.shuffle(cells)
                u = rng.random()
                keyed += [((i + u) / len(cells), rng.random(), cell)
                          for i, cell in enumerate(cells)]
            keyed.sort()
            yield from (cell for _, _, cell in keyed)

    def warm_up(self):
        self.run((0.5, 2.0, "Pc_star"))

    def run(self, op):
        a, b, _tag = op
        return atlas.verify_cell(a, b, k_max=self.k_max)

    def check(self, op, rec) -> bool:
        """The criterion-12 rule: classified cells pass, unknown cells are
        unclassified, and the JSON line parses back to the same cell."""
        a, b, tag = op
        doc = json.loads(rec.to_json())
        if (doc["alpha"], doc["beta"], doc["label"]) != (a, b, tag):
            return False
        if tag == "unknown":
            return rec.status == "unclassified"
        return rec.status == "pass" and doc["pass"] is True

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for rec in outputs:
            h.update(rec.to_json().encode() + b"\n")
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# series_lattice
# ---------------------------------------------------------------------------


class SeriesLattice:
    """One request per seeded beta point (a, b in [0.1, 5]).

    16 beta_series calls at x <= 40, one in each sixteenth of the range
    (x > 12 takes the widened-precision branch), one 64-term sample_lattice
    with expansion pe1, pe2 or pe3 (lattice points out to x ~ 200), then
    wronskian_series and pf_partial_sum at 40 points.

    A request's cost depends on (a, b) (a or b below 1 makes an endpoint
    singular) and on the expansion, so the points are stratified: the square
    is cut into 10 x 10 cells, and every block of 300 requests holds one
    point in each cell for each expansion, in seeded order, with the point
    placed in its cell by the seed. Every run then meets the costly corners
    equally often, and its median and tail do not depend on the draw.
    """

    name = "series_lattice"
    trace_ops = 120
    n_series = 16
    x_max = 40.0
    n_terms = 64
    n_points = 40
    expansions = ("pe1", "pe2", "pe3")
    ab_range = (0.1, 5.0)
    strata = 10

    def inputs(self, seed: int):
        rng = random.Random(seed)
        lo, hi = self.ab_range
        h = (hi - lo) / self.strata
        w = self.x_max / self.n_series
        block = [(i, j, pe) for i in range(self.strata)
                 for j in range(self.strata) for pe in self.expansions]
        while True:
            rng.shuffle(block)
            for i, j, pe in block:
                a = lo + h * (i + rng.random())
                b = lo + h * (j + rng.random())
                # one x in each of 16 equal slices of [0, 40]: every request
                # then makes 11 or 12 widened-precision calls (x > 12)
                xs = tuple(w * (k + rng.random()) for k in range(self.n_series))
                zs = tuple(self._point(rng) for _ in range(self.n_points))
                yield (a, b, pe, xs, zs)

    @staticmethod
    def _point(rng) -> float:
        # pf_partial_sum refuses z within 1e-8 of a pole; every expansion's
        # poles lie on multiples of pi/2, so keep a wide berth from all
        while True:
            z = rng.uniform(0.5, 40.0)
            r = math.remainder(z, 0.5 * math.pi)
            if abs(r) > 1e-6:
                return z

    def warm_up(self):
        self.run((1.5, 2.5, "pe1", (3.0, 30.0), (2.0, 20.0)))

    def run(self, op):
        a, b, pe, xs, zs = op
        series = tuple(
            hypergeom.beta_series(a, b, ("cosine", "sine")[i % 2], x)
            for i, x in enumerate(xs))
        coeffs = partial_fractions.sample_lattice(
            make_density("beta", (a, b)), pe, self.n_terms)
        ws = tuple(partial_fractions.wronskian_series(coeffs, z) for z in zs)
        ps = tuple(partial_fractions.pf_partial_sum(coeffs, z) for z in zs)
        return series, coeffs, ws, ps

    def check(self, op, out) -> bool:
        """beta_series agrees with quadrature at every x, and at every
        fourth z (the direct route costs two evaluate calls a point) the
        truncated Wronskian series has the sign of the direct Wronskian
        wherever the direct value exceeds the truncation error, estimated as
        the change from 32 to 64 terms."""
        a, b, pe, xs, zs = op
        series, coeffs, ws, _ps = out
        d = make_density("beta", (a, b))
        tol = transform.default_tol()
        for i, (s, x) in enumerate(zip(series, xs)):
            q = transform.evaluate(d, ("cosine", "sine")[i % 2], x)
            if abs(float(s) - float(q)) > CHECK_FACTOR * tol:
                return False
        half = self.n_terms // 2
        head = replace(coeffs, coefficients=coeffs.coefficients[:half],
                       lattice=coeffs.lattice[:half])
        for z, w in zip(zs[::4], ws[::4]):
            direct = partial_fractions.wronskian_direct(d, pe, z)
            trunc = abs(w - partial_fractions.wronskian_series(head, z))
            if abs(direct) > 2.0 * trunc + CHECK_FACTOR * tol \
                    and (direct > 0.0) != (w > 0.0):
                return False
        return True

    def digest(self, outputs) -> str:
        return _float_digest(v for series, coeffs, ws, ps in outputs
                             for v in (*series, *coeffs.coefficients, *ws, *ps))


WORKLOADS = {w.name: w for w in (AtlasSweep(), SeriesLattice())}
