"""Spans at the layer boundaries of oscilla, recorded from outside the package.

``traced(tracer)`` rebinds, for the duration of a ``with`` block, the names
through which one layer calls the next (``oscilla.transform.oscillatory_integral``,
``oscilla.zeros.evaluate``, ...) and the entry points the workloads call.
Nothing under ``src/`` changes. Each span records its name, start, end,
parent span, the op it belongs to and a small note taken from the call's
arguments or result; spans stay in memory until ``layer_metrics`` reduces
them. A layer's self time is its span minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

from oscilla import atlas, hypergeom, partial_fractions, transform, zeros

# hyp_pfq sums in float64 up to this |z| and in widened precision beyond
_F64_LIMIT = getattr(hypergeom, "_F64_ARG_LIMIT", 36.0)

NAME, START, END, PARENT, OP, NOTE, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def call(self, name, fn, note, args, kwargs):
        spans = self.spans
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.op, None, None]
        self.stack.append(len(spans))
        spans.append(span)
        span[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as e:
            span[END] = perf_counter()
            span[ERROR] = type(e).__name__
            raise
        finally:
            self.stack.pop()
        span[END] = perf_counter()
        if note is not None:
            span[NOTE] = note(args, kwargs, out)
        return out


def _kind(args, kwargs, out):
    k = args[1] if len(args) > 1 else kwargs["kind"]
    return transform.coerce_kind(k).value


def _err_over_tol(args, kwargs, out):
    return out[1] / kwargs["tol"]


def _verify_note(args, kwargs, rep):
    return rep.n_evaluations, len(rep.records)


def _widened(args, kwargs, out):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return abs(float(z)) > _F64_LIMIT


# (module, attribute, span name, note); the first block is how the layers
# call each other, the second the entry points the workloads call
BINDINGS = (
    (transform, "oscillatory_integral", "quadrature", _err_over_tol),
    (zeros, "evaluate", "transform", _kind),
    (atlas, "evaluate", "transform", _kind),
    (partial_fractions, "evaluate", "transform", _kind),
    (atlas, "verify_pattern", "zeros", _verify_note),
    (atlas, "cross_zero_violations", "atlas.cross_zero", None),
    (atlas, "make_density", "density.make", None),
    (hypergeom, "hyp_pfq", "hypergeom", _widened),

    (atlas, "verify_cell", "atlas", None),
    (transform, "evaluate", "transform", _kind),
    (partial_fractions, "sample_lattice", "pf.lattice", None),
    (partial_fractions, "wronskian_series", "pf.resum", None),
    (partial_fractions, "pf_partial_sum", "pf.resum", None),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in BINDINGS]
    for (mod, attr, name, note), (_, _, fn) in zip(BINDINGS, saved):
        def wrapper(*args, _name=name, _fn=fn, _note=note, **kwargs):
            return tracer.call(_name, _fn, _note, args, kwargs)
        setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _p50_us(durations) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Reduce spans to the per-layer metrics. Counts are exact; times are
    sums of span durations in seconds, medians in microseconds."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by.get(name, [])

    def total(values, name):
        return sum(values[i] for i in idx(name))

    def errors(name, kind=None):
        return sum(1 for i in idx(name)
                   if spans[i][ERROR] and (kind is None or spans[i][ERROR] == kind))

    def has_ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    quad, tr, ver = idx("quadrature"), idx("transform"), idx("zeros")
    cells, hyp = idx("atlas"), idx("hypergeom")
    ok_quad = [i for i in quad if spans[i][NOTE] is not None]
    ok_ver = [i for i in ver if spans[i][NOTE] is not None]
    widened = [i for i in hyp if spans[i][NOTE]]
    m = {
        "quadrature.calls": len(quad),
        "quadrature.busy_s": total(dur, "quadrature"),
        "quadrature.call_p50_us": _p50_us([dur[i] for i in quad]),
        "quadrature.err_over_tol_max": max((spans[i][NOTE] for i in ok_quad),
                                           default=0.0),
        "quadrature.errors": errors("quadrature"),
        "transform.calls": len(tr),
        "transform.self_s": total(self_t, "transform"),
        "transform.quad_per_call": (
            sum(1 for i in quad if spans[i][PARENT] >= 0
                and spans[spans[i][PARENT]][NAME] == "transform") / len(tr)
            if tr else 0.0),
    }
    for kind in transform.TransformKind:
        m[f"transform.call_p50_us.{kind.value}"] = _p50_us(
            [dur[i] for i in tr if spans[i][NOTE] == kind.value])
    m["transform.consistency_errors"] = errors("transform", "ConsistencyError")
    m.update({
        "zeros.verify_calls": len(ver),
        "zeros.self_s": total(self_t, "zeros"),
        "zeros.evals_per_verify": (
            sum(spans[i][NOTE][0] for i in ok_ver) / len(ok_ver) if ok_ver else 0.0),
        "zeros.zeros_found": sum(spans[i][NOTE][1] for i in ok_ver),
        "atlas.cells": len(cells),
        "atlas.self_s": total(self_t, "atlas") + total(self_t, "atlas.cross_zero"),
        "atlas.cross_zero_s": total(dur, "atlas.cross_zero"),
        "atlas.evals_per_cell": (
            sum(1 for i in tr if has_ancestor(i, "atlas")) / len(cells)
            if cells else 0.0),
        "hypergeom.calls": len(hyp),
        "hypergeom.busy_s": total(dur, "hypergeom"),
        "hypergeom.widened_calls": len(widened),
        "hypergeom.widened_busy_s": sum(dur[i] for i in widened),
        "partial_fractions.lattice_calls": len(idx("pf.lattice")),
        "partial_fractions.resum_calls": len(idx("pf.resum")),
        "partial_fractions.self_s": (total(self_t, "pf.lattice")
                                     + total(self_t, "pf.resum")),
        "density.make_calls": len(idx("density.make")),
        "density.make_s": total(dur, "density.make"),
    })
    return m


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_us" in name:
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_max"):
        return "ratio"
    return "count"


# counts that must repeat exactly for a fixed seed and op count
EXACT = ("quadrature.calls", "transform.calls", "zeros.evals_per_verify",
         "zeros.zeros_found", "atlas.evals_per_cell", "hypergeom.calls",
         "hypergeom.widened_calls", "partial_fractions.lattice_calls",
         "partial_fractions.resum_calls", "density.make_calls")
