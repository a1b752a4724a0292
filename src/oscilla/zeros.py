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
  * a margin below its floor (a grazing minimum without a sign change, a
    zero without a clear slope) makes the verdict indeterminate rather
    than a pass or a fail, and the report names the margin.

verify_pattern works in four steps. It plans every abscissa it needs
(interval grids, exact points, the positivity grid, gap grids and the
sign-change grid). It builds a Chebyshev proxy of the transform on [0, H],
H the largest planned abscissa, from one evaluate_many call at the
Chebyshev points (U and V are entire of exponential type 1, so degree 64
or 128 resolves them); when the proxy would need more points than the plan
holds, the plan is evaluated by quadrature instead. It scans every grid
and refines all sign changes in lockstep on the proxy. Finally one more
evaluate_many call re-checks by quadrature everything the verdict reads:
the simplicity probes and residual of every root, the exact points, the
argmin of every margin and a bracketing pair of a required sign change.

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
_SLOPE = 1e-6           # a simple zero has |slope| > 1e-6 * scale
_NEAR_TANGENT = 100.0   # |F| < 100*tol (+ proxy bound) without a crossing
                        # -> indeterminate
_WIDTH_TOL = 1e-12      # default bracket width of scan_and_refine
_PROXY_DEGREE = 64      # first degree of the Chebyshev proxy
_PROXY_CHOP = 1e-13     # relative level of the proxy's coefficient plateau
_PROXY_BLOCK = 1 << 15  # largest barycentric matrix formed at once, elements


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
    proxy_degree: int = 0            # 0: the planned grid went to quadrature
    proxy_bound: float = 0.0         # bound on |proxy - F|, part of the floor


# ---------------------------------------------------------------------------
# scanning machinery
# ---------------------------------------------------------------------------


class _CachedF:
    """Point cache around a batched function many(list_of_x) -> (values,
    error_estimates), the convention of evaluate_many.

    values(xs) computes every abscissa not seen before with one call of
    many, in ascending order; the proxy nodes, scans, root refinement and
    the quadrature re-checks share abscissas through it. errors holds the
    error estimate of every cached abscissa."""

    def __init__(self, many):
        self.many = many
        self.cache: dict[float, float] = {}
        self.errors: dict[float, float] = {}

    def values(self, xs) -> list[float]:
        missing = sorted(set(xs).difference(self.cache))
        if missing:
            vs, es = self.many(missing)
            self.cache.update(zip(missing, map(float, vs)))
            self.errors.update(zip(missing, map(float, es)))
        return [self.cache[x] for x in xs]

    def __call__(self, x: float) -> float:
        return self.values([x])[0]

    @property
    def n_evaluations(self) -> int:
        return len(self.cache)


class _ChebProxy:
    """Polynomial interpolant of a transform on [0, H] through the n + 1
    Chebyshev points of the second kind, x_j = H sin^2(j pi / 2n).

    values(xs) evaluates the barycentric formula of the second kind.
    bound bounds |proxy - F| on [0, H]: the tail of the Chebyshev
    coefficients on the noise plateau, plus the Lebesgue constant of the
    points times the largest quadrature error estimate at the nodes."""

    def __init__(self, nodes: np.ndarray, vals: np.ndarray, bound: float):
        self.nodes = nodes
        self.vals = vals
        self.bound = bound
        w = np.resize([1.0, -1.0], nodes.size)
        w[[0, -1]] *= 0.5
        # numerator and denominator weights as the columns of one matrix
        self._wv = np.stack([w * vals, w], axis=1)

    @property
    def degree(self) -> int:
        return self.nodes.size - 1

    def values(self, xs) -> list[float]:
        x = np.asarray(xs, dtype=float)
        # an abscissa on a node takes the node's value
        at = np.minimum(np.searchsorted(self.nodes, x), self.nodes.size - 1)
        hit = self.nodes[at] == x
        out = np.empty(x.size)
        step = max(1, _PROXY_BLOCK // self.nodes.size)
        for r in range(0, x.size, step):
            d = np.subtract.outer(x[r:r + step], self.nodes)
            rows = np.flatnonzero(hit[r:r + step])
            d[rows, at[r + rows]] = 1.0
            nd = np.reciprocal(d, out=d) @ self._wv
            out[r:r + step] = nd[:, 0] / nd[:, 1]
        out[hit] = self.vals[at[hit]]
        return out.tolist()


def _chebyshev_proxy(F: _CachedF, H: float, n_limit: int) -> _ChebProxy | None:
    """Chebyshev proxy of F on [0, H], or None when its points would
    outnumber the n_limit abscissas the caller would otherwise evaluate.

    F is the quadrature route behind a _CachedF; each degree tried costs one
    batched call (doubling reuses the previous points, which are every
    second point of the next set). The degree starts at _PROXY_DEGREE and
    doubles until the last eighth of the Chebyshev coefficients lies on the
    noise plateau: below _PROXY_CHOP times the largest coefficient, or
    below the largest quadrature error estimate at the nodes, which no
    degree can resolve. U and V are entire of exponential type 1, so on
    [0, (k_max + 1) pi] with k_max <= 20 this happens at degree 64 or 128.
    """
    n = _PROXY_DEGREE
    while n + 1 <= n_limit:
        nodes = H * np.sin(np.arange(n + 1) * (0.5 * _PI / n)) ** 2
        nodes[-1] = H
        vals = np.array(F.values(nodes.tolist()))
        err = max(F.errors[x] for x in nodes.tolist())
        # DCT-I by one real FFT of the even extension
        c = np.abs(np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real) / n
        c[[0, -1]] *= 0.5
        tail = c[-(n // 8):]
        if tail.max() <= max(_PROXY_CHOP * c.max(), err):
            lebesgue = 2.0 / _PI * math.log(n + 1) + 1.0
            return _ChebProxy(nodes, vals, float(tail.sum()) + lebesgue * err)
        n *= 2
    return None


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


def _argmin(grid, key):
    """(grid point, key) where the key list is smallest."""
    i = int(np.argmin(key))
    return grid[i], key[i]


def _sign_changes(values, scans, width_tol=None):
    """Locate and refine every sign change of each scanned grid.

    values maps a list of abscissas to their values; scans are the grids.
    Returns one list of (lo, hi, root) per scan: a refined bracket, or
    (x, x, x) for a grid point whose value is exactly 0. The brackets of
    all scans are refined together."""
    found: list[list] = [[] for _ in scans]
    slots = []
    brackets = []
    for s, xs in enumerate(scans):
        vs = values(xs)
        for i in range(len(xs) - 1):
            va, vb = vs[i], vs[i + 1]
            if va == 0.0:
                # grid point hit a zero exactly; treat as its own root once
                if i == 0 or vs[i - 1] != 0.0:
                    found[s].append((xs[i], xs[i], xs[i]))
                continue
            if va * vb < 0.0:
                slots.append((s, len(found[s])))
                found[s].append(None)
                brackets.append((xs[i], xs[i + 1], va, vb))
    for (s, i), root in zip(slots, _refine_roots(values, brackets, width_tol)):
        found[s][i] = root
    return found


def _probe_points(roots) -> list[float]:
    """Abscissas the simplicity check of each (lo, hi, root) reads."""
    return [x for _, _, r in roots for x in (r + _SIMPLE_H, r - _SIMPLE_H, r)]


def _crosses(F, x: float) -> bool:
    """F changes sign across x +- _SIMPLE_H (or vanishes at one end)."""
    fp, fm = F(x + _SIMPLE_H), F(x - _SIMPLE_H)
    return fp == 0.0 or fm == 0.0 or (fm < 0.0) != (fp < 0.0)


def _slope(F, x: float) -> float:
    return (F(x + _SIMPLE_H) - F(x - _SIMPLE_H)) / (2.0 * _SIMPLE_H)


def _records(F, roots, k: int, scale: float) -> list[ZeroRecord]:
    """ZeroRecords of refined roots, read from F after the caller has
    evaluated their _probe_points: the residual is |F(root)|, and a zero
    is simple when F changes sign across it with |slope| > _SLOPE * scale."""
    return [ZeroRecord(k, lo, hi, root, abs(F(root)),
                       _crosses(F, root) and abs(_slope(F, root)) > _SLOPE * scale)
            for lo, hi, root in roots]


def scan_and_refine(F, interval, grid_points: int | None = None,
                    tol: float = _WIDTH_TOL) -> tuple[ZeroRecord, ...]:
    """Locate every sign change of a real function in an interval.

    F is any real callable; interval is (lo, hi). The grid has grid_points
    equally spaced points (None picks 64 per pi of interval length, at
    least 9); every sign change is refined to a bracket of width <= tol and
    records come back sorted ascending, numbered from 1.
    """
    def many(xs):
        return [float(F(x)) for x in xs], [0.0] * len(xs)
    return _scan_and_refine(many, interval, grid_points, tol)


def _scan_and_refine(many, interval, grid_points: int | None = None,
                     tol: float = _WIDTH_TOL) -> tuple[ZeroRecord, ...]:
    """scan_and_refine for a batched function many(list_of_x) -> (values,
    error_estimates), such as a partial application of evaluate_many: the
    grid is one call, each lockstep refinement step one more, and the
    simplicity probes of all roots one more."""
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
    F = _CachedF(many)
    vs = F.values(xs)
    for x, v in zip(xs, vs):
        if not math.isfinite(v):
            raise OscillaError(f"function not finite at x={x:.17g}")
    scale = max(abs(v) for v in vs) or 1.0
    roots = _sign_changes(F.values, [xs], width_tol=tol)[0]
    F.values(_probe_points(roots))
    found = sorted(_records(F, roots, 0, scale), key=lambda z: z.abscissa)
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


def _indeterminate(k, interval, expected: str, found: str, margin: str,
                   value: float, floor: float, proxy_bound: float) -> dict:
    """An indeterminates entry: the margin that failed, its value, the floor
    it was compared with and the part of that floor that is the proxy
    bound (0.0 when the floor does not contain it)."""
    return {"k": k, "interval": interval, "expected": expected,
            "found": found, "margin": margin, "value": value,
            "floor": floor, "proxy_bound": proxy_bound}


def verify_pattern(density, kind, prediction: Prediction,
                   tol: float | None = None, per_pi: int = 64
                   ) -> VerificationReport:
    """Check a transform against a predicted zero pattern.

    Returns a report whose status is 'pass', 'fail', or 'indeterminate'.
    Indeterminate means a margin fell below its floor, so no honest yes/no
    is possible at this tolerance; each indeterminates entry names the
    margin, its value, the floor and the proxy bound's part of the floor.
    per_pi sets the scan density; the verdict should be stable under
    doubling it.

    The work runs in four steps:
      1. plan every grid the verdict reads;
      2. build a Chebyshev proxy of the transform on [0, H], H the largest
         planned abscissa, with one batched quadrature call per degree
         tried; when it would need more points than the plan holds, the
         planned grid is evaluated by quadrature instead and steps 3-4
         read those values;
      3. scan every grid and refine every sign change in lockstep on the
         proxy;
      4. re-check by quadrature in one batched call: the simplicity probes
         and the residual of every root, every exact zero point, the
         argmin of every margin (positivity, no-crossing and gap minima,
         each taken as the smaller of proxy and quadrature value) and one
         bracketing pair of a required sign change.
    A proxy root that quadrature does not confirm makes its expectation
    indeterminate unless the confirmed roots already decide it, and the
    noise floor is widened by the proxy bound, so every verdict rests on
    quadrature values. n_evaluations counts the distinct abscissas
    evaluated by quadrature.
    """
    from .transform import coerce_kind, TransformKind
    tol = resolve_tol(tol)
    kind = coerce_kind(kind)
    if per_pi < 8:
        raise ParameterError("per_pi must be at least 8")
    F = _CachedF(lambda xs: evaluate_many(density, kind, xs, tol))
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
    slope_floor = _SLOPE * scale

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
        sgn = -1.0 if claim.sign == "-" else 1.0
        n_pos = _n_points(upper, per_pi)
        pos_grid = [float(x) for x in np.linspace(upper / n_pos, upper, n_pos)]
    gaps = (_gap_grids(prediction, horizon, per_pi)
            if prediction.scan_complement and prediction.items else [])
    sign_grid = (_grid(_SHRINK, horizon, per_pi)
                 if prediction.sign_change_required else [])
    planned = pos_grid + sign_grid
    for _, _, a, _, grid in instances:
        planned += [a] if grid is None else grid
    for _, _, grid in gaps:
        planned += grid

    # -- G, the values the scans read: the proxy, or else the planned
    # grid evaluated by quadrature
    proxy = _chebyshev_proxy(F, max(planned, default=0.0), len(set(planned)))
    if proxy is None:
        F.values(planned)
        G, bound = F, 0.0
    else:
        G, bound = proxy, proxy.bound
    near = _NEAR_TANGENT * tol * max(1.0, scale) + bound

    # -- scan and refine on G; a scan with no root whose verdict reads its
    # minimum gets the argmin of |G|, the positivity grid that of sgn*G,
    # and a required sign change the pair of grid points that brackets
    # one most clearly
    scans = [(grid, item.expectation != "none_here")
             for item, _, _, _, grid in instances if grid is not None]
    scans += [(grid, True) for _, _, grid in gaps]
    roots = _sign_changes(G.values, [grid for grid, _ in scans])
    lows = [None] * len(scans)
    for j, (grid, reads_min) in enumerate(scans):
        if reads_min and not roots[j]:
            lows[j] = _argmin(grid, [abs(v) for v in G.values(grid)])
    if pos_grid:
        pos_low = _argmin(pos_grid, [sgn * v for v in G.values(pos_grid)])
    pair = None
    if sign_grid:
        vs = G.values(sign_grid)
        changes = [(min(abs(vs[i]), abs(vs[i + 1])), i)
                   for i in range(len(vs) - 1)
                   if vs[i] * vs[i + 1] < 0.0 or vs[i] == 0.0]
        if changes:
            i = max(changes)[1]
            pair = (sign_grid[i], sign_grid[i + 1])

    # -- the quadrature re-check, one batched call
    recheck = [x for rs in roots for x in _probe_points(rs)]
    recheck += [a for _, _, a, _, grid in instances if grid is None]
    recheck += [low[0] for low in lows if low is not None]
    if pos_grid:
        recheck.append(pos_low[0])
    if pair is not None:
        recheck += pair
    F.values(recheck)

    def min_abs(j):
        x, m = lows[j]
        return min(m, abs(F(x)))

    def split(j, k):
        # the roots of scan j as records, and which of them quadrature
        # confirms (a root of quadrature values is confirmed by its bracket)
        found = _records(F, roots[j], k, scale)
        ok = [G is F or _crosses(F, z.abscissa) for z in found]
        return (found, [z for z, c in zip(found, ok) if c],
                [z for z, c in zip(found, ok) if not c])

    def unconfirmed(k, iv, expected, z):
        indet.append(_indeterminate(
            k, iv, expected,
            f"proxy zero at {z.abscissa:.9g} not confirmed by quadrature",
            "simplicity", abs(_slope(F, z.abscissa)), slope_floor, 0.0))

    # -- per-interval expectations
    scan_no = iter(range(len(scans)))
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
        j = next(scan_no)
        all_found, found, extra = split(j, k)
        records.extend(all_found)
        n = len(found)
        iv = [a, b]
        # confirmed roots alone decide these: two or more fail exactly_one,
        # one passes at_least_one and fails none_here
        decided = n > 1 if item.expectation == "exactly_one" else n > 0
        if extra and not decided:
            unconfirmed(k, iv, item.expectation.replace("_", " "), extra[0])
            continue
        if item.expectation == "exactly_one":
            if n == 1:
                if not found[0].simple:
                    z = found[0].abscissa
                    indet.append(_indeterminate(
                        k, iv, "one simple zero",
                        f"zero at {z:.9g} with slope below the simplicity floor",
                        "simplicity", abs(_slope(F, z)), slope_floor, 0.0))
                continue
            if n == 0:
                m = min_abs(j)
                if m < near:
                    indet.append(_indeterminate(
                        k, iv, "exactly one zero",
                        f"no crossing; min |F|={m:.3e} grazes zero",
                        "min_abs", m, near, bound))
                else:
                    violations.append({
                        "k": k, "interval": iv,
                        "expected": "exactly one zero", "found": "no zero"})
            else:
                violations.append({
                    "k": k, "interval": iv,
                    "expected": "exactly one zero", "found": f"{n} zeros"})
        elif item.expectation == "at_least_one":
            if n == 0:
                m = min_abs(j)
                if m < near:
                    indet.append(_indeterminate(
                        k, iv, "at least one zero",
                        f"no crossing; min |F|={m:.3e}", "min_abs", m, near,
                        bound))
                else:
                    violations.append({
                        "k": k, "interval": iv,
                        "expected": "at least one zero", "found": "no zero"})
        elif item.expectation == "none_here":
            if n:
                violations.append({
                    "k": k, "interval": iv,
                    "expected": "no zeros",
                    "found": f"zero near {found[0].abscissa:.9g}"})

    # -- positivity segment: the verdict reads the quadrature value at the
    # argmin, the margin the smaller of it and the scan minimum
    if pos_grid:
        wx, worst = pos_low
        direct = sgn * F(wx)
        worst = min(worst, direct)
        iv = [0.0, upper]
        if claim.sign == "+0":
            if direct < -near:
                violations.append({
                    "k": None, "interval": iv, "expected": "nonnegative",
                    "found": f"F({wx:.9g})={direct:.3e}"})
            elif worst < -near:
                indet.append(_indeterminate(
                    None, iv, "nonnegative",
                    f"min {worst:.3e} below minus the noise floor",
                    "sign_margin", worst, -near, bound))
        else:
            # a value inside the noise floor cannot refute the claim,
            # whatever its sign: -near < direct <= 0 falls to the margin
            expected = f"strictly {'positive' if sgn > 0 else 'negative'}"
            if direct <= -near:
                violations.append({
                    "k": None, "interval": iv, "expected": expected,
                    "found": f"sign violation near x={wx:.9g}"})
            elif worst < near:
                indet.append(_indeterminate(
                    None, iv, expected,
                    f"min margin {worst:.3e} below noise floor",
                    "sign_margin", worst, near, bound))

    # -- complement must be zero-free
    for glo, ghi, _ in gaps:
        j = next(scan_no)
        iv = [glo, ghi]
        _, found, extra = split(j, 0)
        for z in found:
            violations.append({
                "k": None, "interval": iv,
                "expected": "no zeros in gap",
                "found": f"zero near {z.abscissa:.9g}"})
        if found:
            continue
        if extra:
            unconfirmed(None, iv, "no zeros in gap", extra[0])
            continue
        m = min_abs(j)
        if m < near:
            indet.append(_indeterminate(
                None, iv, "no zeros in gap",
                f"min |F|={m:.3e} grazes zero without crossing",
                "min_abs", m, near, bound))

    # -- required sign change
    if sign_grid:
        if pair is None or not (F(pair[0]) * F(pair[1]) < 0.0
                                or F(pair[0]) == 0.0):
            # a finite scan cannot refute an infinitely-many-sign-changes
            # claim, it can only fail to confirm it
            indet.append(_indeterminate(
                None, [0.0, horizon], "at least one sign change",
                "constant sign on scan grid up to the horizon" if pair is None
                else f"proxy sign change near {pair[0]:.9g} not confirmed "
                     "by quadrature",
                "sign_change", 0, 1, 0.0))

    records.sort(key=lambda z: z.abscissa)
    status = "fail" if violations else ("indeterminate" if indet else "pass")
    return VerificationReport(
        passed=(status == "pass"), status=status,
        violations=tuple(violations), indeterminates=tuple(indet),
        records=tuple(records), horizon=horizon,
        n_evaluations=F.n_evaluations, scale=scale,
        proxy_degree=proxy.degree if proxy is not None else 0,
        proxy_bound=bound)


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
