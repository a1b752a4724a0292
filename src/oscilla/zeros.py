"""Zero localization and interval-pattern verification.

The classification layer talks about transforms through *predictions*: a
list of k-indexed open intervals each expected to hold exactly one zero, an
optional positivity claim on an initial segment, optional exact zero
locations, and flags (complement scanning, required sign changes). This
module turns a prediction into a deterministic numerical verdict:

  * every interval instance is scanned on a fixed grid of at least 64
    points per pi and each sign change is refined by a bisection/secant
    hybrid;
  * the complement of the predicted intervals up to the horizon is scanned
    for unexpected zeros;
  * grazing near-tangencies (small |F| without a sign change) make the
    verdict indeterminate rather than a pass or a fail.

verify_pattern works in three steps. It plans every abscissa it needs
(interval grids, exact points, the positivity grid, gap grids and the
sign-change grid), evaluates all of them with one evaluate_many call, and
then refines the sign changes of every scan in lockstep: each
bisection/secant step of all brackets is one more batched call, and the
simplicity probes around all roots are one more. The verdicts then read
the point cache.

Grids, refinement steps and thresholds are all deterministic functions of
the prediction and tolerance, so repeated runs agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import OscillaError, ParameterError
from .transform import evaluate_many, resolve_tol
# evaluate is no longer called here (every transform value comes from
# evaluate_many); it stays importable as zeros.evaluate because the
# benchmark's tracer (perfbench/tracing.py) rebinds that name
from .transform import evaluate  # noqa: F401

_PI = math.pi
_SHRINK = 1e-9          # open intervals are closed in by this much per side
_SIMPLE_H = 1e-7        # half-width of the simplicity probe
_NEAR_TANGENT = 100.0   # |F| < 100*tol without a crossing -> indeterminate


# ---------------------------------------------------------------------------
# roots of tan x = x
# ---------------------------------------------------------------------------

_SIGMA_CACHE: list[float] = []


def _sigma_one(k: int) -> float:
    # g(x) = sin x - x cos x has opposite signs at k*pi and (k+1/2)*pi and
    # is monotone between consecutive roots; plain bisection is plenty
    a = k * _PI
    b = (k + 0.5) * _PI

    def g(x: float) -> float:
        return math.sin(x) - x * math.cos(x)

    fa = g(a)
    for _ in range(90):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = g(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def sigma_roots(k_max: int) -> tuple[float, ...]:
    """First k_max positive roots of tan x = x (equivalently of
    sin x - x cos x = 0); the k-th lies in (k*pi, (k+1/2)*pi)."""
    if not isinstance(k_max, int) or k_max < 1:
        raise ParameterError(f"k_max must be a positive integer, got {k_max!r}")
    while len(_SIGMA_CACHE) < k_max:
        _SIGMA_CACHE.append(_sigma_one(len(_SIGMA_CACHE) + 1))
    return tuple(_SIGMA_CACHE[:k_max])


# ---------------------------------------------------------------------------
# prediction algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndpointSpec:
    """An interval endpoint as a function of the index k.

    value(k) = (mul*k + add) * pi, or the (mul*k + add)-th root of
    tan x = x when use_sigma is set.
    """

    mul: float
    add: float
    use_sigma: bool = False

    def value(self, k: int) -> float:
        r = self.mul * k + self.add
        if self.use_sigma:
            idx = int(round(r))
            if idx < 1:
                raise ParameterError(f"sigma index must be >= 1, got {idx}")
            return sigma_roots(idx)[idx - 1]
        return r * _PI


@dataclass(frozen=True)
class PatternItem:
    """One k-indexed family of interval expectations.

    expectation is one of 'exactly_one', 'at_least_one', 'none_here' (an
    interval that must stay zero-free), or 'exact_zero_at' (point gets
    .point instead of lo/hi). k_count limits the family to a fixed number
    of indices starting at k_min; None runs it up to the prediction horizon.
    """

    expectation: str
    lo: EndpointSpec | None = None
    hi: EndpointSpec | None = None
    point: EndpointSpec | None = None
    k_min: int = 1
    k_count: int | None = None
    note: str = ""

    def __post_init__(self):
        if self.expectation not in ("exactly_one", "at_least_one",
                                    "none_here", "exact_zero_at"):
            raise ParameterError(f"unknown expectation {self.expectation!r}")
        if self.expectation == "exact_zero_at":
            if self.point is None:
                raise ParameterError("exact_zero_at needs a point spec")
        elif self.lo is None or self.hi is None:
            raise ParameterError(f"{self.expectation} needs lo and hi specs")


@dataclass(frozen=True)
class PositivityClaim:
    """Sign claim on an initial segment (0, upper]; upper=None means the
    prediction horizon. sign is '+', '-', or '+0' (nonnegative)."""

    sign: str = "+"
    upper: float | None = None

    def __post_init__(self):
        if self.sign not in ("+", "-", "+0"):
            raise ParameterError(f"unknown sign claim {self.sign!r}")


@dataclass(frozen=True)
class Prediction:
    """The asserted zero pattern for one transform: interval items,
    an optional positivity claim, and scan policy."""

    items: tuple[PatternItem, ...] = ()
    positivity: PositivityClaim | None = None
    k_max: int = 20
    scan_complement: bool = True
    sign_change_required: bool = False
    no_common_zeros: bool = False
    provenance: str = ""

    def horizon(self) -> float:
        return (self.k_max + 1) * _PI


@dataclass(frozen=True)
class ZeroRecord:
    """A located zero: bracketing interval, refined abscissa, residual
    |F(abscissa)|, and whether it looked simple (sign change with a
    non-negligible slope)."""

    k: int
    lo: float
    hi: float
    abscissa: float
    residual: float
    simple: bool


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    status: str                      # 'pass' | 'fail' | 'indeterminate'
    violations: tuple[dict, ...]
    indeterminates: tuple[dict, ...]
    records: tuple[ZeroRecord, ...]
    horizon: float
    n_evaluations: int
    scale: float


# ---------------------------------------------------------------------------
# scanning machinery
# ---------------------------------------------------------------------------


class _CachedF:
    """Point cache around a batched function many(list_of_x) -> values.

    values(xs) computes every abscissa not seen before with one call of
    many, in ascending order; scans, gap scans, root refinement and the
    simplicity probes share abscissas through it."""

    def __init__(self, many):
        self.many = many
        self.cache: dict[float, float] = {}

    def values(self, xs) -> list[float]:
        missing = sorted(set(xs).difference(self.cache))
        if missing:
            self.cache.update(zip(missing, self.many(missing)))
        return [self.cache[x] for x in xs]

    def __call__(self, x: float) -> float:
        return self.values([x])[0]

    @property
    def n_evaluations(self) -> int:
        return len(self.cache)


def _n_points(length: float, per_pi: int) -> int:
    return max(9, int(math.ceil(length / _PI * per_pi)) + 1)


def _grid(lo: float, hi: float, per_pi: int) -> list[float]:
    return [float(x) for x in np.linspace(lo, hi, _n_points(hi - lo, per_pi))]


def _refine_roots(values, brackets, width_tol=None):
    """Bisection with a guarded secant step; deterministic.

    brackets holds (a, b, F(a), F(b)) with a sign change. All brackets are
    refined in lockstep: each step takes the next point of every unfinished
    bracket and evaluates them with one values(list) call. Returns
    (lo, hi, root) per bracket."""
    state = [list(br) for br in brackets]
    done: list[tuple | None] = [None] * len(state)
    active = list(range(len(state)))
    for _ in range(120):
        step = []
        for j in active:
            a, b, fa, fb = state[j]
            goal = width_tol if width_tol is not None else 1e-13 * (1.0 + abs(b))
            if b - a <= max(goal, 4e-16 * (1.0 + abs(b))):
                continue
            m = 0.5 * (a + b)
            if fb != fa:
                s = b - fb * (b - a) / (fb - fa)
                if a + 0.125 * (b - a) < s < b - 0.125 * (b - a):
                    m = s
            step.append((j, m))
        if not step:
            break
        active = []
        for (j, m), fm in zip(step, values([m for _, m in step])):
            if fm == 0.0:
                done[j] = (m, m, m)
                continue
            br = state[j]
            if (br[2] < 0.0) == (fm < 0.0):
                br[0], br[2] = m, fm
            else:
                br[1], br[3] = m, fm
            active.append(j)
    return [d if d is not None else (st[0], st[1], 0.5 * (st[0] + st[1]))
            for d, st in zip(done, state)]


def _zeros_from_scans(F, scans, labels, scale, width_tol=None):
    """Refine every sign change in each scanned grid into ZeroRecords.

    F is a _CachedF; scans are the grids, labels their k labels. Returns one
    record list per scan. The brackets of all scans are refined together
    and the simplicity probes of all roots go in one batched call."""
    found = []       # (scan, bracket index or None, grid point for None)
    brackets = []
    for s, xs in enumerate(scans):
        vs = F.values(xs)
        for i in range(len(xs) - 1):
            va, vb = vs[i], vs[i + 1]
            if va == 0.0:
                # grid point hit a zero exactly; treat as its own record once
                if i == 0 or vs[i - 1] != 0.0:
                    found.append((s, None, xs[i]))
                continue
            if va * vb < 0.0:
                found.append((s, len(brackets), None))
                brackets.append((xs[i], xs[i + 1], va, vb))
    refined = _refine_roots(F.values, brackets, width_tol)
    probes = []
    for _, j, x0 in found:
        if j is None:
            probes += [x0 + _SIMPLE_H, x0 - _SIMPLE_H]
        else:
            root = refined[j][2]
            probes += [root + _SIMPLE_H, root - _SIMPLE_H, root]
    F.values(probes)
    out: list[list[ZeroRecord]] = [[] for _ in scans]
    for s, j, x0 in found:
        if j is None:
            sl = (F(x0 + _SIMPLE_H) - F(x0 - _SIMPLE_H)) / (2.0 * _SIMPLE_H)
            out[s].append(ZeroRecord(labels[s], x0, x0, x0, 0.0,
                                     abs(sl) > 1e-6 * scale))
            continue
        a, b, root = refined[j]
        fp = F(root + _SIMPLE_H)
        fm = F(root - _SIMPLE_H)
        slope = (fp - fm) / (2.0 * _SIMPLE_H)
        simple = (fp == 0.0 or fm == 0.0 or (fm < 0.0) != (fp < 0.0)) \
            and abs(slope) > 1e-6 * scale
        out[s].append(ZeroRecord(labels[s], a, b, root, abs(F(root)), simple))
    return out


def scan_and_refine(F, interval, grid_points: int | None = None,
                    tol: float = 1e-12) -> tuple[ZeroRecord, ...]:
    """Locate every sign change of a real function in an interval.

    F is any real callable; interval is (lo, hi). The grid has grid_points
    equally spaced points (None picks 64 per pi of interval length, at
    least 9); every sign change is refined to a bracket of width <= tol and
    records come back sorted ascending, numbered from 1.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"need finite lo < hi, got ({lo!r}, {hi!r})")
    if grid_points is None:
        grid_points = _n_points(hi - lo, 64)
    if grid_points < 8:
        raise ParameterError("grid_points must be at least 8")
    if not (tol > 0.0):
        raise ParameterError(f"tol must be positive, got {tol!r}")
    xs = [float(x) for x in np.linspace(lo, hi, grid_points)]
    cached = _CachedF(lambda pts: [float(F(x)) for x in pts])
    vs = cached.values(xs)
    for x, v in zip(xs, vs):
        if not math.isfinite(v):
            raise OscillaError(f"function not finite at x={x:.17g}")
    scale = max(abs(v) for v in vs) or 1.0
    found = _zeros_from_scans(cached, [xs], [0], scale, width_tol=tol)[0]
    found.sort(key=lambda z: z.abscissa)
    return tuple(replace(z, k=i + 1) for i, z in enumerate(found))


# ---------------------------------------------------------------------------
# pattern verification
# ---------------------------------------------------------------------------


def _item_instances(item: PatternItem, k_max: int):
    """Yield (k, lo, hi) or (k, point) for the active indices of an item:
    those whose left end falls below (k_max + 1/2)*pi."""
    cutoff = (k_max + 0.5) * _PI
    k = item.k_min
    emitted = 0
    cap = 4 * (k_max + 4)  # guards k-independent endpoint specs
    while emitted < cap:
        if item.k_count is not None and emitted >= item.k_count:
            return
        if item.expectation == "exact_zero_at":
            p = item.point.value(k)
            if p > cutoff and item.k_count is None:
                return
            yield k, p, None
        else:
            lo = item.lo.value(k)
            hi = item.hi.value(k)
            if hi <= lo:
                raise ParameterError(
                    f"pattern item yields empty interval at k={k}: [{lo}, {hi}]")
            if lo >= cutoff and item.k_count is None:
                return
            yield k, lo, hi
        emitted += 1
        k += 1


_EXACT_PAD = 2.0 * _PI / 64.0   # hole carved around a predicted exact zero


def _exclusion_intervals(pred: Prediction, horizon: float):
    """Intervals of all items extended past k_max until they leave (0, horizon];
    used to build the complement that must be zero-free. Exact zero points
    are padded by two grid spacings so the gap scan never straddles them."""
    spans = []
    for item in pred.items:
        if item.expectation == "none_here":
            continue
        k = item.k_min
        emitted = 0
        while True:
            if item.k_count is not None and emitted >= item.k_count:
                break
            if item.expectation == "exact_zero_at":
                p = item.point.value(k)
                if p >= horizon + _EXACT_PAD:
                    break
                spans.append((max(p - _EXACT_PAD, 0.0),
                              min(p + _EXACT_PAD, horizon)))
                if p >= horizon:
                    break
            else:
                lo = item.lo.value(k)
                if lo >= horizon:
                    break
                hi = item.hi.value(k)
                spans.append((lo, min(hi, horizon)))
            emitted += 1
            k += 1
            if k > 10 * (pred.k_max + 4):
                break
    spans.sort()
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1] + 1e-12:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _gap_grids(prediction: Prediction, horizon: float, per_pi: int):
    """(glo, ghi, grid) for every gap of the complement of the predicted
    intervals that the positivity scan does not already cover."""
    excl = _exclusion_intervals(prediction, horizon)
    gaps = []
    prev = _SHRINK
    for lo, hi in excl:
        if lo - prev > 1e-6:
            gaps.append((prev, lo))
        prev = max(prev, hi)
    if horizon - prev > 1e-6:
        gaps.append((prev, horizon))
    pos_upper = None
    if prediction.positivity is not None:
        pos_upper = (prediction.positivity.upper
                     if prediction.positivity.upper is not None else horizon)
    out = []
    for glo, ghi in gaps:
        if pos_upper is not None and ghi <= pos_upper + 1e-12:
            continue  # already covered by the sign scan
        lo_s, hi_s = glo + _SHRINK, ghi - _SHRINK
        if glo <= _SHRINK:
            # transforms with a sine factor vanish at the origin; start
            # the leading gap one grid spacing in instead of flagging a
            # spurious graze there
            lo_s = hi_s / _n_points(hi_s, per_pi)
        if hi_s <= lo_s:
            continue
        out.append((glo, ghi, _grid(lo_s, hi_s, per_pi)))
    return out


def verify_pattern(density, kind, prediction: Prediction,
                   tol: float | None = None, per_pi: int = 64
                   ) -> VerificationReport:
    """Check a transform against a predicted zero pattern.

    Returns a report whose status is 'pass', 'fail', or 'indeterminate'
    (the latter when a grazing minimum below the noise floor prevents an
    honest yes/no at this tolerance). per_pi sets the scan density; the
    verdict should be stable under doubling it.

    The work runs in three steps: plan every grid the verdict reads, fill
    the point cache with one evaluate_many call, then refine the sign
    changes of all interval and gap scans in lockstep. n_evaluations counts
    the distinct abscissas evaluated.
    """
    from .transform import coerce_kind, TransformKind
    tol = resolve_tol(tol)
    kind = coerce_kind(kind)
    if per_pi < 8:
        raise ParameterError("per_pi must be at least 8")
    F = _CachedF(lambda xs: evaluate_many(density, kind, xs, tol)[0].tolist())
    horizon = prediction.horizon()
    violations: list[dict] = []
    indet: list[dict] = []
    records: list[ZeroRecord] = []

    # |F| is bounded by the relevant moment of the density; use that as the
    # magnitude scale for the noise floor and slope thresholds
    if kind in (TransformKind.D_COSINE, TransformKind.D_SINE):
        scale = abs(density.moment1) or 1.0
    else:
        scale = abs(density.moment0) or 1.0
    near = _NEAR_TANGENT * tol * max(1.0, scale)

    # -- plan: interval grids (None for an exact point), the positivity
    # grid, which starts one spacing in from 0 since sine-kernel transforms
    # vanish identically at 0 and a 1e-9 start would report a spurious
    # graze there, the gap grids and the sign-change grid
    instances = []
    for item in prediction.items:
        for k, a, b in _item_instances(item, prediction.k_max):
            grid = (None if item.expectation == "exact_zero_at"
                    else _grid(a + _SHRINK, b - _SHRINK, per_pi))
            instances.append((item, k, a, b, grid))
    pos_grid = []
    if prediction.positivity is not None:
        claim = prediction.positivity
        upper = claim.upper if claim.upper is not None else horizon
        n_pos = _n_points(upper, per_pi)
        pos_grid = [float(x) for x in np.linspace(upper / n_pos, upper, n_pos)]
    gaps = (_gap_grids(prediction, horizon, per_pi)
            if prediction.scan_complement and prediction.items else [])
    sign_grid = (_grid(_SHRINK, horizon, per_pi)
                 if prediction.sign_change_required else [])

    # -- one batched evaluation of everything planned, then every sign
    # change of the interval and gap scans refined in lockstep
    planned = pos_grid + sign_grid
    for _, _, a, _, grid in instances:
        planned += [a] if grid is None else grid
    for _, _, grid in gaps:
        planned += grid
    F.values(planned)
    scans = [(k, grid) for _, k, _, _, grid in instances if grid is not None]
    scans += [(0, grid) for _, _, grid in gaps]
    zeros_found = iter(_zeros_from_scans(F, [g for _, g in scans],
                                         [k for k, _ in scans], scale))

    # -- per-interval expectations
    for item, k, a, b, grid in instances:
        if grid is None:
            r = abs(F(a))
            ok = r <= 10.0 * tol * max(1.0, scale)
            records.append(ZeroRecord(k, a, a, a, r, True))
            if not ok:
                violations.append({
                    "k": k, "interval": [a, a],
                    "expected": f"zero at {a:.12g}" + (f" ({item.note})" if item.note else ""),
                    "found": f"|F|={r:.3e}"})
            continue
        vs = F.values(grid)
        found = next(zeros_found)
        records.extend(found)
        n = len(found)
        if item.expectation == "exactly_one":
            if n == 1:
                if not found[0].simple:
                    indet.append({
                        "k": k, "interval": [a, b],
                        "expected": "one simple zero",
                        "found": f"zero at {found[0].abscissa:.9g} with "
                                 "slope below the simplicity floor"})
                continue
            if n == 0:
                m = min(abs(v) for v in vs)
                if m < near:
                    indet.append({
                        "k": k, "interval": [a, b],
                        "expected": "exactly one zero",
                        "found": f"no crossing; min |F|={m:.3e} grazes zero"})
                else:
                    violations.append({
                        "k": k, "interval": [a, b],
                        "expected": "exactly one zero", "found": "no zero"})
            else:
                violations.append({
                    "k": k, "interval": [a, b],
                    "expected": "exactly one zero", "found": f"{n} zeros"})
        elif item.expectation == "at_least_one":
            if n == 0:
                m = min(abs(v) for v in vs)
                if m < near:
                    indet.append({
                        "k": k, "interval": [a, b],
                        "expected": "at least one zero",
                        "found": f"no crossing; min |F|={m:.3e}"})
                else:
                    violations.append({
                        "k": k, "interval": [a, b],
                        "expected": "at least one zero", "found": "no zero"})
        elif item.expectation == "none_here":
            if n:
                violations.append({
                    "k": k, "interval": [a, b],
                    "expected": "no zeros",
                    "found": f"zero near {found[0].abscissa:.9g}"})

    # -- positivity segment
    if prediction.positivity is not None:
        vs = F.values(pos_grid)
        sgn = -1.0 if claim.sign == "-" else 1.0
        worst = min(sgn * v for v in vs)
        wx = pos_grid[int(np.argmin([sgn * v for v in vs]))]
        if claim.sign == "+0":
            if worst < -near:
                violations.append({
                    "k": None, "interval": [0.0, upper],
                    "expected": "nonnegative",
                    "found": f"F({wx:.9g})={worst:.3e}"})
        else:
            if worst <= 0.0:
                violations.append({
                    "k": None, "interval": [0.0, upper],
                    "expected": f"strictly {'positive' if sgn > 0 else 'negative'}",
                    "found": f"sign violation near x={wx:.9g}"})
            elif worst < near:
                indet.append({
                    "k": None, "interval": [0.0, upper],
                    "expected": f"strictly {'positive' if sgn > 0 else 'negative'}",
                    "found": f"min margin {worst:.3e} below noise floor"})

    # -- complement must be zero-free
    for glo, ghi, grid in gaps:
        found = next(zeros_found)
        for z in found:
            violations.append({
                "k": None, "interval": [glo, ghi],
                "expected": "no zeros in gap",
                "found": f"zero near {z.abscissa:.9g}"})
        if not found:
            m = min(abs(v) for v in F.values(grid))
            if m < near:
                indet.append({
                    "k": None, "interval": [glo, ghi],
                    "expected": "no zeros in gap",
                    "found": f"min |F|={m:.3e} grazes zero without crossing"})

    # -- required sign change
    if prediction.sign_change_required:
        vs = F.values(sign_grid)
        changed = any(vs[i] * vs[i + 1] < 0.0 or vs[i] == 0.0
                      for i in range(len(vs) - 1))
        if not changed:
            # a finite scan cannot refute an infinitely-many-sign-changes
            # claim, it can only fail to confirm it
            indet.append({
                "k": None, "interval": [0.0, horizon],
                "expected": "at least one sign change",
                "found": "constant sign on scan grid up to the horizon"})

    records.sort(key=lambda z: z.abscissa)
    status = "fail" if violations else ("indeterminate" if indet else "pass")
    return VerificationReport(
        passed=(status == "pass"), status=status,
        violations=tuple(violations), indeterminates=tuple(indet),
        records=tuple(records), horizon=horizon,
        n_evaluations=F.n_evaluations, scale=scale)


def interlace_check(a, b) -> bool:
    """True when the two increasing sequences interlace over their common
    range: strictly between consecutive terms of either list lies exactly
    one term of the other."""
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    for name, seq in (("first", a), ("second", b)):
        for i in range(len(seq) - 1):
            if seq[i] >= seq[i + 1]:
                raise ParameterError(f"{name} sequence is not strictly increasing")
    if not a or not b:
        return True
    lo = max(a[0], b[0])
    hi = min(a[-1], b[-1])

    def ok(outer, inner):
        for i in range(len(outer) - 1):
            x, y = outer[i], outer[i + 1]
            if y < lo or x > hi:
                continue
            cnt = sum(1 for t in inner if x < t < y)
            if cnt != 1:
                return False
        return True

    return ok(a, b) and ok(b, a)


def records_to_csv(records, density_label: str, kind: str) -> str:
    """CSV rendering of zero records with a fixed header; 17 significant
    digits so values round-trip.  Labels with commas get RFC 4180 quoting."""
    label = density_label
    if any(c in label for c in ',"\n'):
        label = '"' + label.replace('"', '""') + '"'
    lines = ["density,kind,k,lo,hi,abscissa,residual,simple"]
    for z in records:
        lines.append(
            f"{label},{kind},{z.k},{z.lo:.17g},{z.hi:.17g},"
            f"{z.abscissa:.17g},{z.residual:.17g},{str(z.simple).lower()}")
    return "\n".join(lines) + "\n"
