"""A fixed reference computation that tracks the machine's speed.

The machine the benchmark was written on, a 2-core VM, changes speed by up
to ±30 % over minutes; process CPU time moves with wall time, so the
slowdown comes from the host.  The same runs' wall times swing with it.
This kernel does the kinds of work the workloads do: a Python loop of
small-array numpy calls, vectorised exp and normal-cdf, and pure-Python
integer arithmetic.  Timed between curves, it measures how fast the
machine is at that moment, and times are scaled by REFERENCE_S / its time.
Over 150 s of repeated passes, scaling cut the spread of 22 s windows from
13 % to 4 % (angular-thermal) and of 14 s windows from 11 % to 4 %
(lines-coherent).

The kernel must not change: every scaled time is in units it defines.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import ndtr

REPEATS = 8
# a typical measure() on the machine the benchmark was written on (it read
# 0.042-0.087 s over one minute), so scaled times read as seconds there
REFERENCE_S = 0.055

_X = np.linspace(0.1, 5.0, 600)


def _kernel() -> float:
    acc = np.zeros_like(_X)
    for i in range(300):
        a = _X * (1.0 + (i % 7))
        acc += np.exp(-0.5 * a * a) / (1.0 + a)
        acc[np.searchsorted(_X, 2.5):] *= 0.999
        acc += ndtr(a[:50]).sum() * 1e-9
    total = 0
    for i in range(20000):
        total += i * i
    return float(acc.sum()) + total


def measure() -> float:
    """Wall time of REPEATS kernel calls, in seconds."""
    started = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return time.perf_counter() - started


def scaled(times: list[float], calibrations: list[float]) -> float:
    """Mean of times scaled to reference speed, as a ratio of sums.

    times[i] was taken between calibrations[i] and calibrations[i + 1], and
    is set against their mean.
    """
    if len(calibrations) != len(times) + 1:
        raise ValueError("need one calibration before each time and one "
                         "after the last")
    bracket = sum(calibrations) - 0.5 * (calibrations[0] + calibrations[-1])
    return REFERENCE_S * sum(times) / bracket
