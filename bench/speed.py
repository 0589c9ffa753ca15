"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on shared machines whose speed for one process drifts by
up to about 1.5x over tens of seconds, as other tenants load the cores: the
same job list then takes 3 s in one run and 4.7 s in the next.  That drift
is larger than any regression bound worth having, so every timed job is
bracketed by a fixed calibration loop, and times are reported in reference
seconds:

    reference seconds = measured seconds * CAL_REF_S / calibration seconds

where the calibration time is the mean of the loops run just before and just
after the job.  The loop does exact rational elimination and complex numpy
evaluation, the two kinds of work nevlab does, but calls no nevlab code, so
a change to nevlab cannot change it.  CAL_REF_S is the loop's time on the
2-vCPU VM the baseline was taken on (CPython 3.11.7, numpy 2) when nothing
else ran, so reference seconds read as seconds on that machine at full speed.
Runs print the measured seconds next to the reference ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

CAL_REF_S = 0.020

_N = 14
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(_N + 4)]
           for i in range(_N)]
_POINTS = np.linspace(0.0, 1.0, 513) * (1 + 1j)


def calibrate() -> float:
    """Seconds one run of the fixed calibration loop takes right now."""
    t0 = time.perf_counter()
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(_N + 4):
        pivot = next((i for i in range(r, _N) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(_N):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == _N:
            break
    for _ in range(200):
        np.exp(_POINTS * 1.5) * _POINTS + _POINTS * _POINTS
    return time.perf_counter() - t0


def scaled(seconds: float, calibration: float) -> float:
    """Measured seconds in reference seconds, given the calibration time beside them."""
    return seconds * CAL_REF_S / calibration
