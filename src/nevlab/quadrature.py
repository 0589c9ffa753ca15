"""Circle quadrature rules for the numeric side.

circle_quadrature is the trapezoid rule with sample doubling on the circle,
whose levels are nested: halving the step is exact, so a level keeps the
previous level's values and evaluates only the new midpoints, and every
estimate is the one a full re-evaluation gives, bit for bit.  It takes one
row per radius of a grid, each row stopping on its own.  _next_level and
_circle_midpoints are the nesting, shared with the winding integrals of the
zero finder, and _gauss_legendre gives the nodes of T_f's arcs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import OverflowGuard

TWO_PI = 2.0 * math.pi
QUADRATURE_CAP = 65536  # samples at the last circle-quadrature level


def _next_level(vals, shape, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The next sample level's array and the view of it, of shape `shape`,
    that the new samples fill.  At the first level (vals None) the view is
    the whole array; afterwards the previous level's values take the even
    positions along the last axis and the view is the odd ones."""
    if vals is None:
        level = np.empty(shape, dtype)
        return level, level
    level = np.empty(shape[:-1] + (vals.shape[-1] + shape[-1],), dtype)
    level[..., 0::2] = vals
    return level, level[..., 1::2]


def _circle_midpoints(n: int) -> np.ndarray:
    """The angles of the n-sample level that the n/2-sample level lacks, as
    a contiguous array: numpy then runs the same loops on them as on a
    whole level, so the values match a full re-evaluation bit for bit."""
    return np.linspace(0.0, TWO_PI, n, endpoint=False)[1::2].copy()


def circle_quadrature(fn, start: int = 512, cap: int = QUADRATURE_CAP,
                      rel_tol: float = 1e-8):
    """Mean of fn over the circle parameter via trapezoid with sample doubling.

    On the periodic domain the uniform trapezoid rule is the plain mean;
    doubling stops at relative change below rel_tol (floored at 1 to keep the
    test meaningful near zero) or at the sample cap.  The levels are nested:
    halving the step is exact, so each level keeps the previous values and
    calls fn only on the new midpoints, and every estimate is the one a full
    re-evaluation gives, bit for bit.

    fn may return one row of values per integrand, an array of shape
    (rows, len(theta)), to cover a radius grid in one call: the result is
    then the array of the rows' means.  Each row stops on its own, at the
    first level where it meets the stopping rule, and only its own samples
    up to that level must be finite; fn still evaluates every row at every
    level until the last row stops.  A row's mean is, bit for bit, the
    float that a one-row fn returning that row gives.  The integrands of
    T_f, Jensen and the Cartan sums evaluate their rows at most 2,048
    points at a time (nevanlinna._moduli).
    """
    if start < 1:
        raise ValueError(f"circle quadrature needs at least 1 sample, got {start}")
    n = start
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    vals = result = None
    while True:
        new = np.asarray(fn(theta), dtype=float)
        rows = new.reshape(-1, new.shape[-1])
        if result is None:  # nan marks a row still running
            result, prev = np.full(len(rows), np.nan), np.full(len(rows), np.nan)
        run = np.isnan(result)
        if not np.all(np.isfinite(rows[run])):
            raise OverflowGuard("non-finite integrand sample on the circle")
        vals, fresh = _next_level(vals, rows.shape, float)
        fresh[...] = rows
        est = vals[run].mean(axis=-1)
        stop = (n >= cap) | (np.abs(est - prev[run]) <= rel_tol * np.maximum(np.abs(est), 1.0))
        result[run] = np.where(stop, est, np.nan)
        if stop.all():
            return result if new.ndim > 1 else float(result[0])
        prev[run] = est
        n *= 2
        theta = _circle_midpoints(n)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Newton on P_m from Tricomi's estimates of its roots, with P_m and P_m'
    from the three-term recurrence: O(m) memory, where numpy's leggauss
    takes the eigenvalues of a dense m x m matrix.
    """
    x = np.cos(math.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(m), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (p0 - x * p1) / (1.0 - x * x)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights
