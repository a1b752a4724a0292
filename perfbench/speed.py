"""The machine's current speed, measured with a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same op with the same input takes anywhere from 0.7x to 1.4x its usual
time, depending on what the neighbours do, and the drift lasts seconds to
minutes, so it does not average out within a run. run.py therefore takes a
speed sample between ops (at most every ``EVERY_S`` seconds), and reports
each op's time scaled to a machine on which one reference kernel call takes
``NOMINAL_S`` seconds: ``t * NOMINAL_S / s``, ``s`` being the median of the
``2 * WINDOW`` samples nearest the op (``WINDOW`` before it, ``WINDOW``
after). The wall-clock figures are printed as well.

The kernel mixes what oscilla spends its time on: Gauss-Kronrod style panel
sums over small numpy arrays, scalar float math in a Python loop, and a
short widened-precision mpmath series. It calls nothing in oscilla, so a
change to the library cannot move it. One sample is the fastest of
``REPEATS`` kernel calls, so a single preemption does not skew it.
"""
from __future__ import annotations

import math
from time import perf_counter

import mpmath
import numpy as np

# one kernel call on a shared 2-vCPU x86-64 host, Python 3.11, numpy 2.4,
# mpmath 1.3, at its typical speed; it only fixes the scale of the figures
NOMINAL_S = 0.0005
REPEATS = 3
EVERY_S = 0.05
WINDOW = 4

_NODES = np.array([0.0042723, 0.0254460, 0.0675677, 0.1292344, 0.2069563,
                   0.2970774, 0.3961075, 0.5, 0.6038925, 0.7029226,
                   0.7930437, 0.8707656, 0.9324323, 0.9745540, 0.9957277])
_WEIGHTS = np.full(15, 1.0 / 15.0)
_PANELS = 24
_TERMS = 12


def kernel() -> float:
    acc = 0.0
    h = 1.0 / _PANELS
    for j in range(_PANELS):
        a = j * h
        t = a + h * _NODES
        v = np.exp(-t) * np.cos(37.0 * t) * np.sqrt(t + 0.1)
        acc += h * float(v @ _WEIGHTS)
        acc += math.sin(a) * math.exp(-a) * h
    with mpmath.workdps(30):
        z = mpmath.mpf(acc) + 20
        term = total = mpmath.mpf(1)
        for k in range(1, _TERMS):
            term = term * z / (k * (k + mpmath.mpf("0.5")))
            total += term
    return acc + float(total) * 1e-30


def sample() -> float:
    """Seconds of one kernel call now: the fastest of REPEATS calls."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best
