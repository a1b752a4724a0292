"""oscilla benchmark: one command, seeded closed-loop workloads.

    python3 perfbench/run.py --workload atlas_sweep --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the command times ops for ``--seconds`` seconds
and prints the end-to-end metrics. With ``--trace 1`` it runs a fixed number
of ops twice each, untraced and traced (see tracing.py), and prints the
per-layer metrics and the tracing overhead. Either way every output is
checked outside the timed part, a report goes to stdout and the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

End-to-end times are reported at nominal machine speed, measured with the
reference kernel in speed.py; the wall-clock figures are printed too.
speed.py needs numpy and mpmath, so it is imported inside the functions
that use it: a set-up probe's clock then covers those imports.

The traced run also compares its exact counts and output digest with the
last traced run of the same workload, seed and source tree, kept under
``.perfbench_state/``, and says when they differ. ``--max-ops`` caps the
op count, for the smoke test.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHECK_EVERY_S = 1.0
TAIL_BEYOND = 10


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _pin_environment() -> None:
    # OSCILLA_TOL changes the work done per evaluate call, so a run under it
    # would not be comparable with any other
    if "OSCILLA_TOL" in os.environ:
        _fail("refusing to run while OSCILLA_TOL is set")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "oscilla" / "__init__.py").is_file():
        _fail(f"no oscilla package under {SRC}")
    sys.path.insert(0, str(SRC))


def _environment() -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _setup_probe(workload: str) -> None:
    """Child process: time importing the package plus the warm-up."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[workload].warm_up()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _setup_seconds(workload: str) -> tuple[float, float]:
    """Median set-up time of SETUP_PROBES fresh interpreters, run one after
    another: (at nominal speed, wall clock). Each probe is scaled by the
    median of the speed samples taken here just before and just after it."""
    import speed
    walls, scaled = [], []
    cal = [speed.sample() for _ in range(speed.WINDOW)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            _fail(f"setup probe failed:\n{proc.stderr}")
        walls.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        after = [speed.sample() for _ in range(speed.WINDOW)]
        scaled.append(walls[-1] * speed.NOMINAL_S / statistics.median(cal + after))
        cal = after
    print("setup probes: " + " ".join(f"{w:.4f}" for w in walls) + " s wall, "
          + " ".join(f"{s:.4f}" for s in scaled) + " s at nominal speed")
    return statistics.median(scaled), statistics.median(walls)


def _run_op(wl, op):
    try:
        return wl.run(op), None
    except Exception as e:  # a failed op is counted, not fatal
        return None, f"{type(e).__name__}: {e}"


def _timed_loop(wl, seed: int, seconds: float, max_ops: int):
    """Run ops until --seconds of timed work are done. About once a second
    the clock stops and the batch just run is checked and dropped, so the
    checks stay out of the timings and memory does not grow with op count.
    Speed samples (speed.py) are taken between ops, at most every
    speed.EVERY_S, and at both ends of every batch, so each op lies between
    two samples. Returns the wall latencies, the same at nominal speed, the
    speed samples, the check verdicts, the errors and the elapsed time."""
    import speed
    lat, epochs, cal, verdicts, errors = [], [], [], [], []
    stream = wl.inputs(seed)
    elapsed = 0.0
    while elapsed < seconds and len(lat) < max_ops:
        batch = []
        budget = min(CHECK_EVERY_S, seconds - elapsed)
        cal.append(speed.sample())
        start = now = last = time.perf_counter()
        while now - start < budget and len(lat) < max_ops:
            if now - last >= speed.EVERY_S:
                cal.append(speed.sample())
                last = time.perf_counter()
            op = next(stream)
            t0 = time.perf_counter()
            out, err = _run_op(wl, op)
            now = time.perf_counter()
            lat.append(now - t0)
            epochs.append(len(cal) - 1)
            batch.append((op, out, err))
        cal.append(speed.sample())
        elapsed += time.perf_counter() - start
        verdicts += _check_all(wl, batch)
        errors += [err for _, _, err in batch if err]
    # an op between samples k and k+1 ran at the median speed of the
    # samples around it: the drift lasts seconds, while one sample can be
    # off by 10%, and the tail would pick out the ops whose samples were
    scale = {k: speed.NOMINAL_S / statistics.median(
        cal[max(k + 1 - speed.WINDOW, 0):k + 1 + speed.WINDOW])
        for k in set(epochs)}
    norm = [t * scale[k] for t, k in zip(lat, epochs)]
    return lat, norm, cal, verdicts, errors, elapsed


def _paired_runs(wl, ops, tracing):
    """Run every op once untraced and once traced, back to back, so that
    drift in machine speed hits both sides alike; the order alternates
    from op to op so neither side always runs on warm caches. Returns the
    tracer, the (output, error) pairs and the total seconds of each side,
    keyed by traced."""
    tracer = tracing.Tracer()
    runs = {False: [], True: []}
    secs = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            with tracing.traced(tracer) if traced else contextlib.nullcontext():
                tracer.op = i
                t0 = time.perf_counter()
                runs[traced].append(_run_op(wl, op))
                secs[traced] += time.perf_counter() - t0
    return tracer, runs, secs


def _check_all(wl, batch):
    """Per-op verdicts for (op, output, error) triples: False for raised or
    wrong, None for no independent reference."""
    verdicts = []
    for op, out, err in batch:
        if err is not None:
            verdicts.append(False)
            continue
        try:
            verdicts.append(wl.check(op, out))
        except Exception as e:  # a check that cannot run is a failed op
            print(f"check raised {type(e).__name__}: {e}", file=sys.stderr)
            verdicts.append(False)
    return verdicts


def _percentile(lat_sorted, beyond: int):
    """Latency at the highest percentile with at least `beyond` samples
    beyond it, but never below the median: (latency, percentile, samples
    beyond)."""
    n = len(lat_sorted)
    i = max(n - 1 - beyond, (n - 1) // 2)
    return lat_sorted[i], 100.0 * (i + 1) / n, n - 1 - i


def _source_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "oscilla").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _compare_with_last_run(key: str, record: dict) -> int:
    """Number of exact counts (and the output digest) that differ from the
    last traced run under the same key; 0 when there is none."""
    path = STATE / f"{key}.json"
    mismatches = 0
    if path.is_file():
        prev = json.loads(path.read_text())
        diff = sorted(k for k in record if prev.get(k) != record[k])
        mismatches = len(diff)
        if diff:
            print(f"determinism: MISMATCH with the last traced run ({key}) in "
                  + ", ".join(f"{k}: {prev.get(k)} -> {record[k]}" for k in diff))
        else:
            print(f"determinism: exact counts and outputs match the last "
                  f"traced run ({key})")
    else:
        print(f"determinism: first traced run for {key}; counts recorded")
    STATE.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return mismatches


def _print_metric(name, value, unit, extra=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {extra}".rstrip())


def _latency_metrics(lat):
    """{name: (value, unit, note)} of one list of op latencies. op_tail_ms
    is the highest percentile with 10 samples beyond it; op_p90_ms has at
    least 10% of them beyond it. On a shared host 1-2% of ops are preempted
    for 10-40 ms, so the tail of ~750 requests measures those stops and
    is printed unbounded, while p90 stays below them."""
    s = sorted(lat)
    n = len(s)
    p90 = _percentile(s, max(TAIL_BEYOND, math.ceil(0.1 * n)))
    tail = _percentile(s, TAIL_BEYOND)
    return {"ops_per_s": (n / sum(lat), "1/s", ""),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms", ""),
            "op_p90_ms": (p90[0] * 1e3, "ms",
                          f"p{p90[1]:.2f} of {n} samples, {p90[2]} beyond"),
            "op_tail_ms": (tail[0] * 1e3, "ms",
                           f"p{tail[1]:.2f} of {n} samples, {tail[2]} beyond")}


def _end_to_end(wl, args) -> dict:
    import speed
    setup_s, setup_wall_s = _setup_seconds(wl.name)
    wl.warm_up()
    lat, norm, cal, verdicts, errors, elapsed = _timed_loop(
        wl, args.seed, args.seconds, args.max_ops or sys.maxsize)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for v in verdicts if v is False)
    n = len(lat)
    metrics = _latency_metrics(norm)
    tail = metrics.pop("op_tail_ms")
    metrics.update(setup_s=(setup_s, "s", ""), peak_rss_mb=(peak_rss_mb, "MB", ""))
    wall = _latency_metrics(lat)
    wall.update(setup_s=(setup_wall_s, "s", ""))
    print(f"{wl.name}: {n} ops in {elapsed:.3f} s, closed loop, one caller; "
          f"{len(cal)} speed samples, median {statistics.median(cal) * 1e3:.4f} ms "
          f"(nominal {speed.NOMINAL_S * 1e3:.4f} ms)")
    print("at nominal speed (reported):")
    for name, (value, unit, note) in metrics.items():
        _print_metric(name, value, unit, note)
    print("at nominal speed (printed only):")
    _print_metric("op_tail_ms", *tail)
    _print_metric("failed_ratio", failed / n, "ratio",
                  f"{failed} of {n} failed; "
                  f"{sum(1 for v in verdicts if v is None)} had no reference")
    print("wall clock:")
    for name, (value, unit, note) in wall.items():
        _print_metric(name, value, unit, note)
    for err in sorted(set(errors))[:5]:
        print(f"  error: {err}")
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in metrics.items()}}


def _traced(wl, args) -> dict:
    import tracing
    n_ops = min(wl.trace_ops, args.max_ops or wl.trace_ops)
    stream = wl.inputs(args.seed)
    ops = [next(stream) for _ in range(n_ops)]
    wl.warm_up()
    tracer, runs, secs = _paired_runs(wl, ops, tracing)
    layers = tracing.layer_metrics(tracer.spans)
    layers["trace.overhead_pct"] = 100.0 * (secs[True] / secs[False] - 1.0)
    layers["trace.spans"] = len(tracer.spans)

    verdicts = _check_all(wl, [(op, out, err)
                               for op, (out, err) in zip(ops, runs[True])])
    failed = sum(1 for v in verdicts if v is False)
    digests = {t: wl.digest(out for out, err in runs[t] if err is None)
               for t in runs}
    errs = {t: [err for _, err in runs[t]] for t in runs}
    same = errs[False] == errs[True] and digests[False] == digests[True]
    if not same:
        print("determinism: MISMATCH between the untraced and traced runs")
    record = {k: layers[k] for k in tracing.EXACT}
    record.update(ops=n_ops, outputs=digests[True],
                  errors=sum(1 for e in errs[True] if e))
    key = f"{wl.name}-seed{args.seed}-ops{n_ops}-{_source_hash()}"
    layers["determinism.mismatches"] = (_compare_with_last_run(key, record)
                                        + (0 if same else 1))

    print(f"{wl.name}: {n_ops} ops, each run untraced ({secs[False]:.3f} s "
          f"in all) and traced ({secs[True]:.3f} s, {len(tracer.spans)} spans)")
    for name, value in layers.items():
        _print_metric(name, value, tracing.unit(name))
    return {"correct": failed == 0, "attempted": n_ops, "failed": failed,
            "metrics": {k: {"value": v, "unit": tracing.unit(k)}
                        for k, v in layers.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--setup-probe", metavar="WORKLOAD")
    args = p.parse_args(argv)

    _pin_environment()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    print("env: " + json.dumps(_environment(), sort_keys=True))
    result = _traced(wl, args) if args.trace else _end_to_end(wl, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
