"""Command-line front end.

Subcommands: eval (one transform value), zeros (zero table as CSV),
verify (pattern verification with verdict exit codes), sweep (parameter
grid as JSON lines), sigma (roots of tan x = x), steinerberger (sign
sequence of the power-density transform at the half lattice).

Exit codes: 0 success / verification pass, 2 verification fail,
3 verification indeterminate, 64 usage error, 1 computation error.
All floating output uses 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .atlas import (REGION_TAGS, RegionLabel, classify_beta_params,
                    iter_sweep, kuttner_predict, predict, predict_from_shape,
                    region_memberships, steinerberger_signs,
                    verify_predictions)
from .density import parse_density
from .errors import OscillaError, ParameterError
from .transform import TransformKind, evaluate, evaluate_many
from .zeros import _scan_and_refine, records_to_csv, sigma_roots

_PI = math.pi
_KIND_NAMES = tuple(k.value for k in TransformKind)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the exit-code contract reserves 2 for
    # verification failure, so flag problems are rerouted to 64
    def error(self, message):
        raise _UsageError(message)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_density(spec: str):
    """family[:p1,p2,...] -> (Density, family, params, canonical spec)."""
    try:
        d = parse_density(spec)
    except ParameterError as e:
        raise _UsageError(str(e)) from None
    canon = d.family if not d.params else (
        d.family + ":" + ",".join(f"{p:g}" for p in d.params))
    return d, d.family, d.params, canon


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid spec must be LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"grid spec must be numeric, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise _UsageError(f"grid bounds must be finite: {text!r}")
    if step <= 0.0 or hi < lo:
        raise _UsageError(f"grid needs step > 0 and hi >= lo: {text!r}")
    out = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9 * step:
            break
        # kill accumulated binary noise so 0.1 * 3 prints as 0.3
        out.append(round(v, 12))
        k += 1
    return out


def _build_parser() -> _Parser:
    p = _Parser(prog="oscilla")
    sub = p.add_subparsers(dest="subcommand", metavar="COMMAND")

    def dens(q):
        q.add_argument("--density", required=True, metavar="FAMILY:P1,P2",
                       help="density spec, e.g. beta:0.5,2 or kuttner:2,1")

    def tol(q):
        q.add_argument("--tol", type=float, default=None,
                       help="target tolerance (default OSCILLA_TOL or 1e-10)")

    q = sub.add_parser("eval", help="evaluate one transform value")
    dens(q)
    q.add_argument("--kind", default="cosine", choices=_KIND_NAMES)
    q.add_argument("--x", type=float, required=True)
    tol(q)

    q = sub.add_parser("zeros", help="zero table as CSV")
    dens(q)
    q.add_argument("--kind", default="cosine", choices=_KIND_NAMES)
    q.add_argument("--kmax", type=int, default=20)
    q.add_argument("--out", default=None, metavar="FILE")
    tol(q)

    q = sub.add_parser("verify", help="verify the predicted zero pattern")
    dens(q)
    q.add_argument("--prediction", default="auto",
                   help="auto, or a region tag to force that prediction")
    q.add_argument("--kind", default=None, choices=_KIND_NAMES,
                   help="restrict to one transform kind")
    q.add_argument("--kmax", type=int, default=20)
    tol(q)

    q = sub.add_parser("sweep", help="verify a parameter grid, JSON lines")
    q.add_argument("--alpha", required=True, metavar="LO:HI:STEP")
    q.add_argument("--beta", required=True, metavar="LO:HI:STEP")
    q.add_argument("--kmax", type=int, default=10)
    q.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    q.add_argument("--out", default=None, metavar="FILE")
    tol(q)

    q = sub.add_parser("sigma", help="positive roots of tan x = x")
    q.add_argument("--kmax", type=int, default=10)

    q = sub.add_parser("steinerberger", help="sign sequence at (k-1/2) pi")
    q.add_argument("--beta", type=float, required=True)
    q.add_argument("--kmax", type=int, default=50)
    tol(q)
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eval(ns, out) -> int:
    d, _, _, _ = _parse_density(ns.density)
    if ns.x <= 0.0 or not math.isfinite(ns.x):
        raise _UsageError(f"--x must be a positive real, got {ns.x!r}")
    r = evaluate(d, ns.kind, ns.x, tol=ns.tol)
    out.write(f"{_fmt(r.value)} {_fmt(r.abs_error_estimate)}\n")
    return 0


def _cmd_zeros(ns, out) -> int:
    d, _, _, canon = _parse_density(ns.density)
    if ns.kmax < 1:
        raise _UsageError(f"--kmax must be >= 1, got {ns.kmax}")
    hi = (ns.kmax + 1) * _PI
    grid = 64 * (ns.kmax + 1)
    kw = {} if ns.tol is None else {"tol": ns.tol}
    recs = _scan_and_refine(lambda xs: evaluate_many(d, ns.kind, xs, ns.tol),
                            (hi / grid, hi), grid_points=grid, **kw)
    text = records_to_csv(recs, canon, ns.kind)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _kind_summary(rep) -> dict:
    return {
        "status": rep.status,
        "zeros": [_fmt(z.abscissa) for z in rep.records],
        "violations": list(rep.violations),
        "indeterminate": list(rep.indeterminates),
        "horizon": rep.horizon,
    }


def _resolve_predictions(ns, d):
    """Resolve --prediction/--kind into {kind: Prediction} plus a label."""
    name = ns.prediction
    _, family, params, _ = _parse_density(ns.density)
    if name == "auto":
        if family == "beta":
            label = classify_beta_params(*params)
            if label.tag == "unknown":
                return label.tag, {}
            phi, psi = predict(label, k_max=ns.kmax)
            preds = {"cosine": phi, "sine": psi}
        elif family == "kuttner":
            preds = {"cosine": kuttner_predict(*params, k_max=ns.kmax)}
            label = RegionLabel("kuttner", *params)
        else:
            u, v = predict_from_shape(d.shape, k_max=ns.kmax)
            preds = {"cosine": u, "sine": v}
            label = RegionLabel("shape", 0.0, 0.0)
    else:
        if family != "beta":
            raise _UsageError(
                "named predictions apply to the beta family only")
        if name not in REGION_TAGS or name == "unknown":
            raise _UsageError(f"unknown prediction name {name!r}; choose "
                              f"from {', '.join(REGION_TAGS[:-1])}")
        a, b = params
        label = RegionLabel(name, a, b, provenance="forced by flag",
                            memberships=region_memberships(a, b))
        phi, psi = predict(label, k_max=ns.kmax)
        preds = {"cosine": phi, "sine": psi}
    if ns.kind is not None:
        preds = {k: v for k, v in preds.items() if k == ns.kind}
    return label.tag, {k: v for k, v in preds.items() if v is not None}


def _cmd_verify(ns, out) -> int:
    d, _, _, canon = _parse_density(ns.density)
    if ns.kmax < 1:
        raise _UsageError(f"--kmax must be >= 1, got {ns.kmax}")
    tag, preds = _resolve_predictions(ns, d)
    doc = {"density": canon, "prediction": ns.prediction, "label": tag,
           "k_max": ns.kmax}
    if not preds:
        doc["status"] = "indeterminate"
        doc["pass"] = None
        doc["kinds"] = {}
        doc["note"] = "no prediction available for this density"
        out.write(json.dumps(doc) + "\n")
        return 3

    reports, cross, status = verify_predictions(d, preds, tol=ns.tol)
    doc["status"] = status
    doc["pass"] = None if status == "indeterminate" else status == "pass"
    doc["kinds"] = {kind: _kind_summary(rep) for kind, rep in reports.items()}
    if cross:
        doc["common_zero_violations"] = cross
    out.write(json.dumps(doc) + "\n")
    return {"pass": 0, "fail": 2, "indeterminate": 3}[status]


def _cmd_sweep(ns, out) -> int:
    alphas = _parse_grid(ns.alpha)
    betas = _parse_grid(ns.beta)
    for v in alphas + betas:
        if v <= 0.0:
            raise _UsageError("grid values must be positive")
    if ns.kmax < 1:
        raise _UsageError(f"--kmax must be >= 1, got {ns.kmax}")
    records = iter_sweep(alphas, betas, k_max=ns.kmax, tol=ns.tol,
                         jobs=ns.jobs)
    sink = open(ns.out, "w", encoding="utf-8") if ns.out else out
    try:
        # stream records as they finish so an interrupted sweep still
        # leaves usable JSON lines behind
        for rec in records:
            sink.write(rec.to_json() + "\n")
    finally:
        if ns.out:
            sink.close()
    return 0


def _cmd_sigma(ns, out) -> int:
    if ns.kmax < 1:
        raise _UsageError(f"--kmax must be >= 1, got {ns.kmax}")
    for r in sigma_roots(ns.kmax):
        out.write(_fmt(r) + "\n")
    return 0


def _cmd_steinerberger(ns, out) -> int:
    signs = steinerberger_signs(ns.beta, ns.kmax, tol=ns.tol)
    out.write("k,sign\n")
    for k, s in enumerate(signs, start=1):
        out.write(f"{k},{s:+d}\n" if s else f"{k},0\n")
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "zeros": _cmd_zeros,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "sigma": _cmd_sigma,
    "steinerberger": _cmd_steinerberger,
}


def run(argv, out=None, err=None) -> int:
    """Parse argv and execute; returns the process exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.subcommand is None:
            raise _UsageError("a subcommand is required")
        return _DISPATCH[ns.subcommand](ns, out)
    except _UsageError as e:
        err.write(f"usage error: {e}\n")
        err.write(parser.format_usage())
        return 64
    except BrokenPipeError:
        return 1
    except OscillaError as e:
        err.write(f"error: {e}\n")
        return 1
    except (ArithmeticError, ValueError) as e:
        err.write(f"error: {type(e).__name__}: {e}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
