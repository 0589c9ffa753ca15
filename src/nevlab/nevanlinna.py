"""Value-distribution numerics for entire curves.

Curves are tuples of the expression trees of `expr` (rational constants, z,
+, *, -, integer powers, exp).  There is one evaluator: every tree is
compiled into a Program (`program`, which also composes the targets with a
curve), a flat list of numpy operations with common subtrees shared across
the trees compiled together (a curve's components, a target and its
derivative), and eval_on runs it on a point set.  The circle rules live in
`quadrature`.  The
characteristic function is a circle average of log of the max-norm.  That
integrand has a kink wherever the largest component changes:
characteristic_T locates the kinks from one grid of samples and integrates
each arc between them by Gauss-Legendre, and leaves a circle with no kink,
or one whose kinks it cannot resolve, to the trapezoid rule, whose first
level is that grid.  Zeros of composed targets are located by
rectangle subdivision driven by argument-principle winding numbers, one
generation of boxes at a time, until a box isolates one cluster of zeros.
Newton with the box's winding as multiplicity then polishes the cluster
from the centroid of its zeros, which the first moment of the box's
winding integral gives from the same samples, and the winding of a box of
width tol around the point it keeps certifies it; a box that does not
certify is split further.  The start decides only how soon a box
certifies, never what is reported.
The quads of every box of a generation get their windings from one batched
call, and the first box that no jitter offset splits stops the search.
Every sample-doubling loop (circle quadrature, the disk winding, the box
windings) nests its levels: halving the step is exact, so a level keeps the
previous level's values and evaluates only the new midpoints, and its
results are those of a full re-evaluation, bit for bit.
The zero finder evaluates g'/g at the new points of every edge still open
at a sample level in one call, at most 16385 points per evaluation.  Counting
functions discharge the log-weighted integral exactly over the located
zeros; Jensen's formula ties the zero finder to the quadrature as a
standing cross-check.  One function, sweep_data, locates each target's
zeros once and tabulates T_f and N_f for the sweep and the defects.

The circle computations of a sweep take its whole radius grid at once.
characteristic_T and jensen_check accept a sequence of radii, and each of
their steps (a kink grid, an Illinois step, a Gauss-Legendre level, a
trapezoid level) is one evaluation for every radius still open; a single
radius is a one-element grid.  circle_quadrature takes one row per radius.
Each radius keeps its own samples and stopping rules, so its value is that
of a one-radius call.  No evaluation of a curve or its targets exceeds
_BATCH_POINTS (2,048) points: T_f takes the radii in groups whose grids fit,
and every larger point set is evaluated in slices (_moduli).  The sweep
compiles its composed targets into one Program that serves the z = 0
check, the identically-zero probes, Jensen (quadratures of targets x radii
rows, at most _JENSEN_ROWS rows each) and the admissibility floor
(_log_ratios per circle).

Floating point only lives here; every input the exact modules care about
stays exact upstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .algebra import InhomogeneousInput, MultiPoly
from .expr import (
    DegenerateCurve,
    Expr,
    IdenticallyZero,
    OverflowGuard,
    WindingAmbiguous,
    ZeroAtOrigin,
    ZeroCharacteristic,
)
from .program import Program, compose_form
from .quadrature import (  # cli reads nev.QUADRATURE_CAP
    QUADRATURE_CAP,
    TWO_PI,
    _circle_midpoints,
    _gauss_legendre,
    _next_level,
    circle_quadrature,
)

ZERO_PROBE_TOL = 1e-12  # identically zero: |Q(f)| <= this * ||f||^d at every probe
# Points per batched evaluation of a curve or its targets: the admissibility
# floor's samples on one circle.  T_f takes the radii of a grid in groups
# whose kink grids fit in it.
_BATCH_POINTS = 2048
# Target x radius rows per Jensen quadrature: a grid's radii go in groups of
# at most this many rows (one radius at least), so the samples a quadrature
# holds are bounded by the group, not by the grid.
_JENSEN_ROWS = 32
JENSEN_GATE = 1e-5  # a Jensen residual at or above this is reported as a warning


# ---------------------------------------------------------------------------
# Compiled evaluation.
# ---------------------------------------------------------------------------

def eval_on(prog: Program, z):
    """Values of the compiled trees on an array of points: a tuple with one
    array per tree, constant trees broadcast to the shape of z.  A tree
    that depends on z already has its shape and is returned as it is."""
    z = np.asarray(z, dtype=complex)
    return tuple(v if type(v) is np.ndarray and v.shape == z.shape
                 else np.broadcast_to(np.asarray(v), z.shape) for v in prog.eval(z))


def _moduli(prog: Program, z) -> np.ndarray:
    """The moduli of the compiled trees' values at the points z, of any
    shape, as one float array of shape (trees,) + z.shape, from eval_on
    calls of at most _BATCH_POINTS points each.  Every operation is
    elementwise, so the values are those of one call on all the points; no
    complex array larger than one call's outputs is held."""
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.empty((len(prog.outputs), flat.size))
    for s in range(0, flat.size, _BATCH_POINTS):
        for row, v in zip(out, eval_on(prog, flat[s:s + _BATCH_POINTS])):
            np.abs(v, out=row[s:s + _BATCH_POINTS])
    return out.reshape((len(prog.outputs),) + z.shape)


@dataclass
class EntireCurve:
    """M+1 entire components, compiled into one Program; not all
    identically zero (DegenerateCurve when all vanish at five probe points)."""

    components: tuple[Expr, ...]

    def __post_init__(self):
        self.components = tuple(self.components)
        if not self.components:
            raise ValueError("a curve needs at least one component")
        self.program = Program(self.components)
        probes = np.array([0.31 + 0.17j, -0.83 + 0.55j, 1.29 - 0.71j,
                           -1.51 - 1.13j, 2.03 + 0.37j])
        mags = self.moduli(probes)
        if float(mags.max()) == 0.0:
            raise DegenerateCurve("all curve components vanish at the probe points")

    @property
    def nvars(self) -> int:
        return len(self.components)

    def moduli(self, z) -> np.ndarray:
        """|f_i| at the points z, one row per component (_moduli)."""
        return _moduli(self.program, z)

    def log_max_norm(self, z) -> np.ndarray:
        mags = self.moduli(z)
        return np.log(np.max(mags, axis=0))


# ---------------------------------------------------------------------------
# T_f on a radius grid.
# ---------------------------------------------------------------------------

_ARC_START = 8        # Gauss-Legendre nodes per arc at the first level
_ARC_CAP = 2048       # nodes per arc at the last level
_ARC_REL_TOL = 1e-13  # an arc converges when a doubling changes it by at most this
_KINK_NOISE = 1e-13   # |h| at or below this * max(1, |log|f_i||) is a root
_KINK_WIDTH = 1e-10   # a bracket this narrow is a root
_KINK_STEPS = 64      # root-finder iterations before falling back


def _radius_list(r) -> np.ndarray:
    """One radius or a sequence of them, as a 1-D float array."""
    return np.atleast_1d(np.asarray(r, dtype=float))


def characteristic_T(curve: EntireCurve, r, samples: int = 512):
    """T_f(r): circle average of log max_i |f_i| at radius r (> 1).

    r is one radius, for which a float is returned, or a sequence of radii,
    for which the list of their T_f is returned: one call covers a radius
    grid, and a single radius is a one-element grid.  The radii are taken
    in groups of _BATCH_POINTS // samples (at least one), so no evaluation
    exceeds _BATCH_POINTS points, and within a group every step below is
    one evaluation for all of its radii.  Each radius keeps its own samples
    and stopping rules, so its value does not depend on the others.

    The integrand has a kink wherever the largest component changes, and
    there the trapezoid rule converges only like h^2.  So the components are
    evaluated once on a grid of `samples` angles.  Where the largest one
    changes between neighbouring samples, _kink_angles finds the crossing,
    and _arc_integrals integrates each arc between consecutive crossings by
    Gauss-Legendre.  A grid with no change, a root finder that fails, or an
    arc that reaches its node cap leaves that radius's circle to the
    trapezoid with sample doubling (circle_quadrature), one call for every
    such radius of the grid.  The grid is its first level, so a curve with
    one largest component gets the trapezoid's value bit for bit.  A pair
    of crossings between two samples changes nothing on the grid.  When the
    nodes of the arc holding them see it, that arc does not converge and
    the trapezoid takes the circle; a bump narrower than the spacing of the
    first levels' nodes can pass unseen, as it passes the trapezoid's.  An
    arc stops at a relative change of 1e-13, where the trapezoid stops at
    1e-8.  Non-finite grid samples raise OverflowGuard.
    """
    radii = _radius_list(r)
    if np.any(radii <= 1):
        raise ValueError("characteristic is defined for r > 1")
    theta = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    circle = np.exp(1j * theta)
    values, grids = [], []  # nan for a radius left to the trapezoid, and its grid row
    group = max(1, _BATCH_POINTS // samples)
    for s in range(0, len(radii), group):
        rs = radii[s:s + group]
        mags = curve.moduli(rs[:, None] * circle)
        grid = np.log(np.max(mags, axis=0))
        if not np.all(np.isfinite(grid)):
            raise OverflowGuard("non-finite integrand sample on the circle")
        totals = _arc_integrals(curve, rs, *_kink_angles(curve, rs, theta, mags))
        values.extend(totals / TWO_PI)
        grids.extend(grid[np.isnan(totals)])
        del mags, grid  # freed before the next group is evaluated
    values = np.array(values)
    trapezoid = np.isnan(values)
    if grids:
        rows = radii[trapezoid]
        first = [np.array(grids)]

        def fn(angles):
            if first:
                return first.pop()
            return curve.log_max_norm(rows[:, None] * np.exp(1j * angles))

        values[trapezoid] = circle_quadrature(fn, start=samples)
    return float(values[0]) if np.ndim(r) == 0 else values.tolist()


def _kink_angles(curve: EntireCurve, rs, theta, mags):
    """The grid intervals [theta_m, theta_m+1] (cyclically) across which the
    argmax of radius rs[k]'s moduli mags[:, k] changes from i to j, as
    (row, roots, failed): the radius k of each interval, the angle where
    the largest component changes in it, and, per radius, whether it has
    no such interval or its root finder failed.

    The root is that of h = log|f_j| - log|f_i|, which is <= 0 at theta_m
    and >= 0 at theta_m+1.  Every bracket of every radius takes an Illinois
    step (regula falsi that halves the h of an end kept twice) per
    iteration, all of them in one evaluation.  A root is an end or a step
    where |h| lies at the noise floor _KINK_NOISE * max(1, |log|f_i||), or
    the midpoint of a bracket narrowed to _KINK_WIDTH.  A bracket with both
    ends at the noise floor (components of equal modulus, ordered by
    rounding) takes its left end: the jump in slope there is at the noise
    floor too.  The finder fails for a radius on a non-finite h, an end that
    is not at the noise floor and has the wrong sign, or after _KINK_STEPS
    iterations, in any of its brackets; its other brackets stop there, and
    no other radius's brackets change.
    """
    top = mags.argmax(axis=0)
    row, left = np.nonzero(top != np.roll(top, -1, axis=1))
    right = (left + 1) % len(theta)
    i, j = top[row, left], top[row, right]
    a = theta[left]
    b = np.where(right == 0, TWO_PI, theta[right])

    def crossing(m, k, cols):
        """h and log|f_i| of the brackets k at the samples m[:, cols]."""
        with np.errstate(divide="ignore"):
            li = np.log(m[i[k], cols])
            return np.log(m[j[k], cols]) - li, li

    def at_floor(h, li):
        return np.abs(h) <= _KINK_NOISE * np.maximum(1.0, np.abs(li))

    flat = mags.reshape(len(mags), -1)
    every = slice(None)
    (ha, li_a), (hb, li_b) = (crossing(flat, every, row * len(theta) + ends)
                              for ends in (left, right))
    root_a, root_b = at_floor(ha, li_a), at_floor(hb, li_b)
    roots = np.where(root_a, a, b)
    run = ~(root_a | root_b)
    failed = np.ones(len(rs), dtype=bool)
    failed[row] = False
    failed[row[~(np.isfinite(ha) & np.isfinite(hb)) | (run & ((ha >= 0) | (hb <= 0)))]] = True
    run = np.flatnonzero(run & ~failed[row])
    kept = np.zeros(len(row), dtype=np.int8)  # the end moved last: -1 a, +1 b
    for _ in range(_KINK_STEPS):
        if not run.size:
            break
        # ha < 0 < hb, so the secant point lies strictly inside [a, b]
        x = a[run] - ha[run] * (b[run] - a[run]) / (hb[run] - ha[run])
        x = np.where((a[run] < x) & (x < b[run]), x, 0.5 * (a[run] + b[run]))
        h, li = crossing(curve.moduli(rs[row[run]] * np.exp(1j * x)), run,
                         np.arange(len(run)))
        failed[row[run[~np.isfinite(h)]]] = True
        done = at_floor(h, li)
        roots[run[done]] = x[done]
        below = h < 0  # the root lies in [x, b]: x replaces a
        for moved, end, h_end, h_other, side in ((below & ~done, a, ha, hb, -1),
                                                  (~below & ~done, b, hb, ha, 1)):
            sel = run[moved]
            end[sel], h_end[sel] = x[moved], h[moved]
            h_other[sel[kept[sel] == side]] *= 0.5  # this end moved twice running
            kept[sel] = side
        run = run[~done]
        narrow = b[run] - a[run] <= _KINK_WIDTH
        roots[run[narrow]] = 0.5 * (a[run[narrow]] + b[run[narrow]])
        run = run[~narrow & ~failed[row[run]]]
    failed[row[run]] = True
    return row, roots, failed


def _arc_integrals(curve: EntireCurve, rs, row, roots, failed) -> np.ndarray:
    """For each radius rs[k] not `failed`, the integral of
    log max_i |f_i(r e^{i theta})| over the circle, summed arc by arc over
    the arcs between its sorted, distinct kink angles roots[row == k]; nan
    for a failed radius, or one with an arc that reaches _ARC_CAP nodes or
    meets a non-finite sample.

    Gauss-Legendre with _ARC_START nodes, doubled until a doubling changes
    the arc's value by at most _ARC_REL_TOL * max(1, |value|).  Every arc
    of every radius still open at a level is evaluated in one call; an arc
    that stops, or whose radius fails, is dropped from the next.
    """
    failed = failed.copy()
    totals = np.full(len(rs), np.nan)
    owner, lo, hi = [], [], []
    for k in np.flatnonzero(~failed):
        kinks = np.unique(roots[row == k])
        owner += [k] * len(kinks)
        lo.append(kinks)
        hi.append(np.append(kinks[1:], kinks[0] + TWO_PI))
    if not owner:
        return totals
    owner, lo, hi = np.array(owner), np.concatenate(lo), np.concatenate(hi)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    values, prev = np.empty(len(lo)), np.empty(len(lo))
    run = np.arange(len(lo))
    m = _ARC_START
    while m <= _ARC_CAP and run.size:
        nodes, weights = _gauss_legendre(m)
        angles = mid[run, None] + half[run, None] * nodes
        vals = curve.log_max_norm(rs[owner[run], None] * np.exp(1j * angles))
        failed[owner[run[~np.isfinite(vals).all(axis=1)]]] = True
        live = ~failed[owner[run]]
        run, vals = run[live], vals[live]
        est = half[run] * (vals @ weights)
        if m > _ARC_START:
            done = np.abs(est - prev[run]) <= _ARC_REL_TOL * np.maximum(1.0, np.abs(est))
            values[run[done]] = est[done]
            run, est = run[~done], est[~done]
        prev[run] = est
        m *= 2
    failed[owner[run]] = True
    for k in np.flatnonzero(~failed):
        totals[k] = values[owner == k].sum()
    return totals


# ---------------------------------------------------------------------------
# Argument-principle zero location.
# ---------------------------------------------------------------------------

@dataclass
class ZeroList:
    zeros: list[tuple[complex, int]]
    radius: float

    def total(self) -> int:
        return sum(m for _, m in self.zeros)


_SPLIT_JITTER = (0.0, 0.0371, -0.0523, 0.1117, -0.1463, 0.1871, -0.2293)
_TOP_GROW = (1.0, 1.017, 1.041, 1.073, 1.113)
_MAX_BOXES = 400_000  # boxes one locate_zeros call may examine


_LOOP_CAP = 16384  # samples per edge at the last loop-winding level


@functools.lru_cache(maxsize=None)
def _edge_level(n: int, first: bool) -> np.ndarray:
    """The edge parameters t of the n-step level, read-only and built once
    per n: all n + 1 at the first level, else the midpoints the n/2-step
    level lacks, contiguous, as in _circle_midpoints."""
    t = np.linspace(0.0, 1.0, n + 1)
    if not first:
        t = t[1::2].copy()
    t.flags.writeable = False
    return t


@functools.lru_cache(maxsize=None)
def _moment_weights(n: int) -> np.ndarray:
    """The t of the n-step level with the last halved, read-only: n times
    the trapezoid weights of the first moment's t-weighted edge sum."""
    tw = np.linspace(0.0, 1.0, n + 1)
    tw[-1] = 0.5
    tw.flags.writeable = False
    return tw


def _edge_values(prog: Program, a, d, t, out, rows: int):
    """Write g'/g times d at the points a + d * t into out, one row per
    segment (a and d are column vectors of segment starts and directions),
    `rows` segments per program evaluation."""
    for s in range(0, len(a), rows):
        gz, dz = eval_on(prog, a[s:s + rows] + d[s:s + rows] * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[s:s + rows] = dz / gz * d[s:s + rows]


def _loop_windings(prog: Program, loops, *, start: int = 32, cap: int = _LOOP_CAP,
                   snap: float = 0.25):
    """(windings, centroids): the winding number of g along each closed
    polyline, or None when ambiguous, and the mean of the zeros it encloses.

    One array holds the values on every edge of every loop still open, one
    row per edge.  A level evaluates only the new midpoints of those edges,
    in row chunks of at most cap + 1 points, and interleaves them with the
    previous level's values; the rows of the loops that close are dropped.
    Each loop keeps its own edge points, per-edge sums, summation order and
    stopping rule, so its result is the one a loop-by-loop evaluation with
    full re-evaluation at every level gives.

    The first moment (1/2 pi i) times the integral of z g'/g dz along a
    loop is the sum of the zeros it encloses (Delves and Lyness), and the
    winding integral is their count, so their ratio is the mean of the
    enclosed zeros.  Both are summed by the same trapezoid over the same
    samples, at the level where the winding closes, and the centroid is the
    ratio of the two sums, not the moment over the rounded winding.  A
    zero's own quadrature error is then common to both sums and cancels: a
    loop around the only zero of (z - a)^m gives a to rounding, and a
    cluster's errors cancel up to the spread of its zeros.  What is left
    comes from the zeros outside the loop and the rest of g'/g, and grows
    as they near an edge.  At a level where some loop closes with a nonzero
    winding, one t-weighted sum per edge, taken in place, is all it adds: no
    evaluation and no array the size of the level.  Every other centroid is
    None.
    """
    edge_counts = [len(c) for c in loops]
    ends = np.array([e for c in loops for e in zip(c, c[1:] + c[:1])]).reshape(-1, 2)
    a = ends[:, :1]
    d = ends[:, 1:] - a
    windings: list[int | None] = [None] * len(loops)
    means: list[complex | None] = [None] * len(loops)
    prev: list[complex | None] = [None] * len(loops)
    open_loops = list(range(len(loops)))
    n = start
    t = _edge_level(n, True)
    f = None
    while n <= cap and open_loops:
        f, fresh = _next_level(f, (len(a), len(t)), complex)
        _edge_values(prog, a, d, t, fresh, (cap + 1) // (n + 1))
        # uniform trapezoid on [0, 1], one row per edge
        level_sums = (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1])) / n
        sums = level_sums.tolist()
        finite = np.isfinite(f).all(axis=1).tolist()
        keep = []
        still_open = []
        closed = []  # (loop, rows, winding integral) of each nonzero winding
        row = 0
        for i in open_loops:
            loop_rows = range(row, row + edge_counts[i])
            row += edge_counts[i]
            if not all(finite[j] for j in loop_rows):
                keep.extend(loop_rows)
                still_open.append(i)
                continue
            total = 0j
            for j in loop_rows:
                total += sums[j]
            w = total / (2j * math.pi)
            nearest = round(w.real)
            if abs(w - nearest) < snap and prev[i] is not None and abs(w - prev[i]) < 0.1:
                windings[i] = int(nearest)
                if nearest:
                    closed.append((i, loop_rows, total))
            else:
                prev[i] = w
                keep.extend(loop_rows)
                still_open.append(i)
        if closed:
            # the trapezoid of z g'/g dz on an edge z = a + d t: a times the
            # edge's sum plus d times its sum weighted by t, whose trapezoid
            # weights t/n are 0 at t = 0 and 1/2n at t = 1
            firsts = (a[:, 0] * level_sums
                      + d[:, 0] * np.einsum("ij,j->i", f, _moment_weights(n)) / n).tolist()
            for i, loop_rows, total in closed:
                means[i] = sum((firsts[j] for j in loop_rows), 0j) / total
        if still_open and len(keep) < row:
            keep = np.array(keep)
            f, a, d = f[keep], a[keep], d[keep]
        open_loops = still_open
        n *= 2
        t = _edge_level(n, False)
    return windings, means


def _circle_winding(prog: Program, r: float, *, cap: int = 65536,
                    snap: float = 0.25) -> int | None:
    chunk = _LOOP_CAP + 1  # no evaluation larger than one edge at the loop cap
    n = 256
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    f = None
    prev = None
    while n <= cap:
        z = r * np.exp(1j * theta)
        f, fresh = _next_level(f, z.shape, complex)
        for s in range(0, len(z), chunk):
            gz, dz = eval_on(prog, z[s:s + chunk])
            with np.errstate(divide="ignore", invalid="ignore"):
                fresh[s:s + chunk] = dz / gz * (1j * z[s:s + chunk])
        if np.all(np.isfinite(f)):
            w = complex(f.mean()) / (2j * math.pi) * TWO_PI
            nearest = round(w.real)
            if abs(w - nearest) < snap and prev is not None and abs(w - prev) < 0.1:
                return int(nearest)
            prev = w
        n *= 2
        theta = _circle_midpoints(n)
    return None


@dataclass
class _Box:
    x0: float
    x1: float
    y0: float
    y1: float
    w: int
    centroid: complex | None = None  # mean of the zeros inside, from the first moment

    @property
    def width(self) -> float:
        return max(self.x1 - self.x0, self.y1 - self.y0)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    @property
    def start(self) -> complex:
        """Where Newton starts: the centroid when it lies strictly inside the
        box, else the centre.  A centroid that is not finite never does, as
        every comparison with nan is false."""
        c = self.centroid
        if c is not None and self.x0 < c.real < self.x1 and self.y0 < c.imag < self.y1:
            return c
        return self.center

    def corners(self):
        return [complex(self.x0, self.y0), complex(self.x1, self.y0),
                complex(self.x1, self.y1), complex(self.x0, self.y1)]


def locate_zeros(g: Expr, r: float, tol: float = 1e-9) -> ZeroList:
    """All zeros of g in the open disk |z| < r, with multiplicities.

    The disk's winding number fixes the total count; the bounding box is then
    subdivided one generation at a time, keeping boxes of nonzero winding,
    until each box isolates one cluster.  Every box carries the centroid of
    its zeros, read off the first moment of the winding integral that gave
    its winding (_loop_windings).  Before a generation is split, every open
    box of winding 1 to _POLISH_MAX_W is polished (_polish_boxes): Newton
    from that centroid, or from the box centre when the centroid is not
    finite or not strictly inside the box, certified by the winding of a box
    of width tol around the point it keeps.  A certified box becomes a leaf
    at that point, with the box's winding as multiplicity, and is not split
    again.  Every other box is split, and the windings of all their quads
    come from one _loop_windings call per jitter offset; a box split down to
    width tol is a leaf at its centre.  Split lines are jittered and re-tried whenever a
    boundary integral refuses to snap to an integer, which signals a zero on
    or near an edge.  A zero within 10 tol of the circle itself raises
    WindingAmbiguous: perturb r and re-run.

    tol is the merge radius of a cluster: the zeros of a leaf lie in a box
    of width tol around the reported position and count as one zero of the
    leaf's multiplicity.  Where a box falls back to splitting, tol is also
    the width at which splitting stops.  A polished simple zero is located
    to about machine precision.  Near a multiplicity-m zero |g| ~ |z - z0|^m, so no
    location beats the cancellation floor of double evaluation, roughly
    (1e-16 * scale)^(1/m).  Newton settles within that floor; when the floor
    lies above about tol/4 it does not settle, the box is split down to
    width tol, and if the floor lies above tol the windings of the last
    boxes drown in rounding noise: the subdivision raises WindingAmbiguous
    or splits the cluster into leaves within tol of each other (max norm),
    which raise it too.  1e-6 is safe for m <= 2 at moderate scales;
    reserve tighter tolerances for simple zeros.

    A box that no jitter offset splits raises WindingAmbiguous at once, in
    the generation where it happens, naming the first such box of the
    generation; a zero near the circle is named in the order the zeros were
    found.  At most _MAX_BOXES boxes are examined, a whole generation at a
    time.
    """
    prog = Program([g, g.diff()])
    disk_total = _circle_winding(prog, r)
    if disk_total is None:
        raise WindingAmbiguous(
            f"winding integral over |z| = {r} did not converge; perturb r")
    top = None
    for grow in _TOP_GROW:
        half = r * 1.02 * grow + 16 * tol
        cx, cy = 0.0037 * r, 0.0051 * r
        box = _Box(cx - half, cx + half, cy - half, cy + half, 0)
        [w], [box.centroid] = _loop_windings(prog, [box.corners()])
        if w is not None:
            box.w = w
            top = box
            break
    if top is None:
        raise WindingAmbiguous("no valid bounding box found; perturb r")

    leaves: list[tuple[complex, int]] = []  # (zero, multiplicity)
    frontier = [top]
    processed = 0
    while frontier:
        open_boxes = []
        for box in frontier:
            processed += 1
            if processed > _MAX_BOXES:
                raise WindingAmbiguous("subdivision budget exhausted")
            if box.w == 0:
                continue
            if box.width <= tol:
                leaves.append((box.center, box.w))
            else:
                open_boxes.append(box)
        polished = _polish_boxes(prog, open_boxes, tol)
        to_split = []
        for box, z in zip(open_boxes, polished):
            if z is None:
                to_split.append(box)
            else:
                leaves.append((z, box.w))
        children = _split_boxes(prog, to_split)
        if None in children:
            failed = to_split[children.index(None)]
            raise WindingAmbiguous(
                f"could not split box around {failed.center} (width {failed.width:.3g})")
        frontier = [q for quads in children for q in reversed(quads) if q.w != 0]

    if len(leaves) > 1:  # a cluster tol cannot resolve comes back as close leaves
        pts = np.array([z for z, _ in leaves])
        gap = np.maximum(abs(pts.real[:, None] - pts.real), abs(pts.imag[:, None] - pts.imag))
        np.fill_diagonal(gap, np.inf)
        i, j = divmod(int(gap.argmin()), len(pts))
        if gap[i, j] <= tol:
            raise WindingAmbiguous(f"zeros at {pts[i]} and {pts[j]} lie within tol = {tol:g} "
                                   "of each other: an unresolved cluster; loosen tol")
    kept = []
    for z, m in leaves:
        if abs(abs(z) - r) <= 10 * tol:
            raise WindingAmbiguous(
                f"zero at {z} lies within tolerance of the circle |z| = {r}; perturb r")
        if abs(z) < r:
            kept.append((z, m))
    kept.sort(key=lambda zm: (abs(zm[0]), zm[0].real, zm[0].imag))
    total = sum(m for _, m in kept)
    if total != disk_total:
        raise WindingAmbiguous(
            f"box subdivision found {total} zeros but the disk winding is {disk_total}")
    return ZeroList(zeros=kept, radius=r)


_POLISH_MAX_W = 4  # boxes of winding 1 to this are polished before they are split
_NEWTON_CAP = 16   # Newton steps per polishing attempt


def _polish_boxes(prog: Program, boxes: list[_Box], tol: float) -> list[complex | None]:
    """The certified zero of each box, or None for a box that must be split.

    A box of winding w, 1 <= w <= _POLISH_MAX_W, runs Newton for a zero of
    multiplicity w, z <- z - w g/g', with one eval_on of every running
    candidate per step.  It starts at box.start: the mean of its zeros from
    the first moment, or the centre when that is not finite or not strictly
    inside the box.  A candidate runs while its steps shrink: it stops at a
    step that is not finite, leaves the box or is no shorter than the step
    before (that step is not taken), or after _NEWTON_CAP steps.  A step of
    at most tol/4 that is more than half the step before is taken and is the
    last: Newton on a zero of multiplicity w shrinks its steps far faster,
    so such steps wander in rounding noise.  A candidate has settled when
    the last step it took is at most tol/4; otherwise it is dropped.  A
    settled candidate keeps z*, the point of smallest |g| among those it
    evaluated: near a multiple zero the last steps wander in rounding noise,
    and the smallest |g| lies nearer the zero than the last step does.  z*
    is certified by the box of width tol centred on it, which must lie
    inside the box: all these squares go into one _loop_windings call, and
    a square that winds w times holds every zero of the box (the box winds
    w times too, and zeros count positively).
    So a certified cluster fits a box of width tol, like a leaf of the
    subdivision, and its zeros count as one of multiplicity w.  The start
    and the choice of z* only decide which boxes certify in this generation;
    what a certified box reports rests on its square alone.
    """
    found: list[complex | None] = [None] * len(boxes)
    tried = [i for i, box in enumerate(boxes) if 1 <= box.w <= _POLISH_MAX_W]
    if not tried:
        return found
    # the running candidates' state, cut down as they stop; a candidate's
    # last step and best point go to last_of and best_of when it stops
    z = np.array([boxes[i].start for i in tried])
    w, x0, x1, y0, y1 = (np.array([getattr(boxes[i], k) for i in tried], dtype=float)
                         for k in ("w", "x0", "x1", "y0", "y1"))
    last, best, best_g = np.full(len(tried), np.inf), z.copy(), np.full(len(tried), np.inf)
    last_of, best_of = last.copy(), z.copy()
    running = np.arange(len(tried))
    for _ in range(_NEWTON_CAP):
        if not running.size:
            break
        gz, dz = eval_on(prog, z)
        mag = np.abs(gz)
        lower = mag < best_g
        best[lower], best_g[lower] = z[lower], mag[lower]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = w * gz / dz
            size = np.abs(step)
            nxt = z - step
        moves = (np.isfinite(nxt) & (size < last)
                 & (x0 < nxt.real) & (nxt.real < x1) & (y0 < nxt.imag) & (nxt.imag < y1))
        settles = moves & (size <= tol / 4) & (2 * size > last)
        z[moves], last[moves] = nxt[moves], size[moves]
        keep = moves & ~settles
        if not keep.all():
            last_of[running[~keep]], best_of[running[~keep]] = last[~keep], best[~keep]
            running, z, last, best, best_g, w, x0, x1, y0, y1 = (
                v[keep] for v in (running, z, last, best, best_g, w, x0, x1, y0, y1))
    last_of[running], best_of[running] = last, best
    settled = np.flatnonzero(last_of <= tol / 4).tolist()

    squares, owners = [], []
    half = 0.5 * tol
    for k in settled:
        box, zk = boxes[tried[k]], complex(best_of[k])
        if min(zk.real - box.x0, box.x1 - zk.real, zk.imag - box.y0, box.y1 - zk.imag) > half:
            squares.append(_Box(zk.real - half, zk.real + half,
                                zk.imag - half, zk.imag + half, 0).corners())
            owners.append(k)
    ws = _loop_windings(prog, squares)[0] if squares else []
    for k, wk in zip(owners, ws):
        if wk == boxes[tried[k]].w:
            found[tried[k]] = complex(best_of[k])
    return found


def _split_boxes(prog: Program, boxes: list[_Box]) -> list[list[_Box] | None]:
    """The four quads of each box, with windings summing to the box's, or
    None for a box that no jitter offset splits.

    The offsets are tried in the same order for every box, both axes varied
    together before the next x offset.  At each offset one _loop_windings
    call takes the quads of every box not split yet.
    """
    quads_of: list[list[_Box] | None] = [None] * len(boxes)
    pending = list(range(len(boxes)))
    for jx in _SPLIT_JITTER:
        for jy in _SPLIT_JITTER:
            if not pending:
                return quads_of
            tried = []
            for i in pending:
                box = boxes[i]
                mx = box.x0 + (box.x1 - box.x0) * (0.5 + jx)
                my = box.y0 + (box.y1 - box.y0) * (0.5 + jy)
                tried.append([
                    _Box(box.x0, mx, box.y0, my, 0),
                    _Box(mx, box.x1, box.y0, my, 0),
                    _Box(box.x0, mx, my, box.y1, 0),
                    _Box(mx, box.x1, my, box.y1, 0),
                ])
            ws, means = _loop_windings(prog, [q.corners() for quads in tried for q in quads])
            still_pending = []
            for k, (i, quads) in enumerate(zip(pending, tried)):
                quad_ws = ws[4 * k:4 * k + 4]
                if None not in quad_ws and sum(quad_ws) == boxes[i].w:
                    for q, w, mean in zip(quads, quad_ws, means[4 * k:4 * k + 4]):
                        q.w, q.centroid = w, mean
                    quads_of[i] = quads
                else:
                    still_pending.append(i)
            pending = still_pending
    return quads_of


# ---------------------------------------------------------------------------
# Counting function, Jensen cross-check, defects.
# ---------------------------------------------------------------------------

def counting_N(zeros: ZeroList, r: float) -> float:
    """N(r): sum of m_k log(r / max(|z_k|, 1)) over zeros inside |z| < r.

    This discharges the integral-from-1 definition of the counting function
    exactly for the listed zeros.
    """
    acc = 0.0
    for z, m in zeros.zeros:
        az = abs(z)
        if az < r:
            acc += m * math.log(r / max(az, 1.0))
    return acc


def jensen_check(prog: Program, r, zero_lists: list[ZeroList]) -> float:
    """The largest |circle average of log|g_j| - log|g_j(0)| - sum m_k
    log(r/|z_k|)| over the trees g_j of prog and the radii r (one or a
    sequence).

    zero_lists[j] are the zeros of g_j located on a disk a little wider
    than the largest |z| < r.  The circle average is computed with them
    divided out, one zero at a time (their own circle averages are known
    exactly), which keeps the quadrature smooth even when a zero sits close
    to the circle; a missing or misplaced zero still shows up in the
    residual.  Every (target, radius) pair is a row of a circle_quadrature,
    stopping on its own, in evaluations of at most _BATCH_POINTS points.
    The radii go in groups of _JENSEN_ROWS // targets (at least one), one
    quadrature each, so the samples held stay bounded on any grid, and each
    residual is that of a one-target, one-radius call, bit for bit.
    """
    radii = _radius_list(r)
    g0s = [abs(complex(v)) for v in eval_on(prog, 0j)]
    if 0.0 in g0s:
        raise ZeroAtOrigin("g(0) = 0: Jensen's formula does not apply")

    def integrand(rs):
        def fn(theta):
            z = rs[:, None] * np.exp(1j * theta)
            vals = _moduli(prog, z)
            np.log(vals, out=vals)
            for row, zeros in zip(vals, zero_lists):
                for zk, mk in zeros.zeros:
                    row -= mk * np.log(np.abs(z - zk))
            return vals.reshape(-1, len(theta))
        return fn

    group = max(1, _JENSEN_ROWS // len(g0s))
    smooth_means = np.hstack([
        circle_quadrature(integrand(radii[s:s + group]), start=512).reshape(len(g0s), -1)
        for s in range(0, len(radii), group)])
    worst = 0.0
    for g0, zeros, means in zip(g0s, zero_lists, smooth_means.tolist()):
        for rk, smooth_mean in zip(radii.tolist(), means):
            add_back = float(sum(m * math.log(max(rk, abs(z))) for z, m in zeros.zeros))
            jensen_sum = sum(m * math.log(rk / abs(z)) for z, m in zeros.zeros if abs(z) < rk)
            worst = max(worst, abs(smooth_mean + add_back - math.log(g0) - jensen_sum))
    return worst


def defect_estimate(radii, Tf, Nf_j, d: int) -> tuple[float, list[tuple[float, float]]]:
    """Defect estimate of one degree-d target: min of 1 - N(r)/(d T(r)) over
    the top quartile of the grid.

    Returns (estimate, trace) where trace lists (r, 1 - N/(dT)) for the whole
    grid.
    """
    trace = [(r, 1.0 - n / (d * t)) for r, t, n in zip(radii, Tf, Nf_j)]
    quartile = trace[3 * len(trace) // 4:] or trace
    return min(v for _, v in quartile), trace


# ---------------------------------------------------------------------------
# The main-inequality sweep.
# ---------------------------------------------------------------------------

def _log_ratios(curve: EntireCurve, prog: Program, degrees, z) -> np.ndarray:
    """log|g_j| - d_j log||f|| at the points z, one row per tree g_j of
    prog, a Program of targets Q_j(f) of degrees d_j on the curve."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_norm = curve.log_max_norm(z)
        ratios = _moduli(prog, z)
        np.log(ratios, out=ratios)
        for row, d in zip(ratios, degrees):
            row -= d * log_norm
    return ratios


def assert_not_identically_zero(curve: EntireCurve, prog: Program, degrees, r: float):
    """Raise IdenticallyZero when some target g_j, a tree of prog of degree
    d_j, has |g_j| <= ZERO_PROBE_TOL * ||f||^d_j at every probe point, 16 on
    each of the circles of radius 1.5, r/2 and r: one evaluation of the 48
    points for every target."""
    theta = np.linspace(0.0, TWO_PI, 17)[:-1]
    z = np.array([1.5, 0.5 * r, r])[:, None] * np.exp(1j * theta)
    ratios = _log_ratios(curve, prog, degrees, z)
    if not np.all(np.any(ratios > math.log(ZERO_PROBE_TOL), axis=(1, 2))):
        raise IdenticallyZero("the composed target vanishes at all probe points")


@dataclass
class SweepData:
    """T_f, zeros and N_f of one curve against its targets on one radius grid."""

    radii: list[float]
    degrees: list[int]
    zero_lists: list[ZeroList]
    Tf: list[float]
    Nf: list[list[float]]        # Nf[j][i]: target j at radius i


def sweep_data(curve: EntireCurve, Qs: list[MultiPoly], r_grid, *,
               zero_tol: float = 1e-6) -> SweepData:
    """Compose each target, locate its zeros once, and tabulate T_f and N_f.

    Raises InhomogeneousInput for a target of degree < 1, IdenticallyZero
    when some |Q_j(f)| <= ZERO_PROBE_TOL * ||f||^d_j at every probe point, and
    ZeroCharacteristic when T_f = 0 at a radius of the grid.
    """
    radii, degrees, composed, _ = _composed_targets(curve, Qs, r_grid)
    return _tabulate(curve, radii, degrees, composed, zero_tol)


def _composed_targets(curve: EntireCurve, Qs: list[MultiPoly], r_grid):
    """The sorted radii, the degree and composition Q_j(f) of each target,
    and one Program of the targets, with sweep_data's checks."""
    radii = sorted(float(r) for r in r_grid)
    if not radii:
        raise ValueError("empty radius grid")
    degrees = []
    for Q in Qs:
        d = Q.degree
        if d is None or d < 1:
            raise InhomogeneousInput(f"target {Q} is not homogeneous of degree >= 1")
        degrees.append(d)
    composed = [compose_form(Q, curve) for Q in Qs]
    prog = Program(composed)
    assert_not_identically_zero(curve, prog, degrees, radii[-1])
    return radii, degrees, composed, prog


def _tabulate(curve: EntireCurve, radii: list[float], degrees: list[int],
              composed: list[Expr], zero_tol: float) -> SweepData:
    locate_r = radii[-1] * (1 + 1e-3) + 0.25
    zero_lists = [locate_zeros(gq, locate_r, tol=zero_tol) for gq in composed]

    Tf = characteristic_T(curve, radii)
    if 0.0 in Tf:
        raise ZeroCharacteristic(
            f"T_f = 0 at r = {radii[Tf.index(0.0)]}; the defects divide by T_f")
    Nf = [[counting_N(zl, r) for r in radii] for zl in zero_lists]
    return SweepData(radii=radii, degrees=degrees, zero_lists=zero_lists, Tf=Tf, Nf=Nf)


@dataclass
class FloorFit:
    """Instance-fitted logarithmic floor -(c1 + c2 log r) for the
    admissibility diagnostic.  c1 covers the smallest radius and c2 is the
    smallest slope making the bound hold across the grid, so `holds` is true
    by construction; the value of c2 is the information: a floor decaying
    linearly (a shared zero dragging the diagnostic like -T ~ -r) forces c2
    to grow like r / log r, while admissible instances keep it O(1)."""

    c1: float
    c2: float
    holds: bool


def fit_admissibility_floor(radii, values) -> FloorFit:
    radii = [float(r) for r in radii]
    c1 = max(0.0, -float(values[0]))
    c2 = 0.0
    for r, v in zip(radii, values):
        if r > 1.0:
            c2 = max(c2, (-float(v) - c1) / math.log(r))
    c2 = max(c2, 0.0)
    holds = all(-float(v) <= c1 + c2 * math.log(r) + 1e-9
                for r, v in zip(radii, values))
    return FloorFit(c1=c1, c2=c2, holds=holds)


@dataclass
class SweepReport(SweepData):
    margins: list[float]
    defects: list[float]
    defect_sum: float
    violations: list[float]
    floor_values: list[float]
    floor_fit: FloorFit
    fmt_constants: list[float]
    fmt_excess: list[float]      # max_r (N_j - d_j T - C_j), per target
    jensen_max: float
    epsilon: float
    q: int
    n: int
    zero_counts: list[int]
    warnings: list[str] = dataclass_field(default_factory=list)


def smt_margin(curve: EntireCurve, Qs: list[MultiPoly], n: int, epsilon: float,
               r_grid, *, zero_tol: float = 1e-6) -> SweepReport:
    """Sweep the growth inequality sum_j N_f(r,Q_j)/d_j >= (q-n-1-eps) T_f(r).

    Per radius: T_f, every N_f(r, Q_j) from one shared zero list per target,
    the margin, and the admissibility floor min_theta max_j log(|Q_j(f)|/||f||^d_j);
    plus defect estimates, their sum against n+1, and the first-main-theorem
    cap N_f <= d_j T_f + C_j (C_j fitted at the smallest radius).  Radii where
    the margin is negative are violations; a Jensen residual >= JENSEN_GATE warns.
    Jensen's formula needs Q_j(f)(0) != 0: a target that vanishes at z = 0
    raises ZeroAtOrigin, naming it, before any zero is located.

    The caller is responsible for having verified admissibility and curve
    membership.
    """
    radii, degrees, composed, prog = _composed_targets(curve, Qs, r_grid)
    for j, (Q, g0) in enumerate(zip(Qs, eval_on(prog, 0j))):
        if g0 == 0:
            raise ZeroAtOrigin(f"target {j} ({Q}) vanishes at z = 0 on the curve; "
                               "Jensen's formula needs a nonzero value there")
    data = _tabulate(curve, radii, degrees, composed, zero_tol)
    radii, degrees, Tf, Nf = data.radii, data.degrees, data.Tf, data.Nf
    q = len(Qs)
    warnings: list[str] = []

    factor = q - n - 1 - epsilon
    margins = []
    for i, r in enumerate(radii):
        margins.append(sum(Nf[j][i] / degrees[j] for j in range(q)) - factor * Tf[i])
    violations = [r for r, mgn in zip(radii, margins) if mgn < 0]

    jensen_max = jensen_check(prog, radii, data.zero_lists)
    if jensen_max >= JENSEN_GATE:
        warnings.append(f"Jensen residual {jensen_max:.3g} is at or above the gate "
                        f"{JENSEN_GATE:g}; a zero may lie on a grid circle")

    floor_values = _admissibility_floor(curve, prog, degrees, radii)
    floor_fit = fit_admissibility_floor(radii, floor_values)

    defects = [defect_estimate(radii, Tf, Nf[j], degrees[j])[0] for j in range(q)]
    defect_sum = sum(defects)

    fmt_constants = []
    fmt_excess = []
    for j in range(q):
        c = Nf[j][0] - degrees[j] * Tf[0]
        fmt_constants.append(c)
        fmt_excess.append(max(Nf[j][i] - degrees[j] * Tf[i] - c
                              for i in range(len(radii))))

    return SweepReport(
        **vars(data), margins=margins, defects=defects,
        defect_sum=defect_sum, violations=violations, floor_values=floor_values,
        floor_fit=floor_fit, fmt_constants=fmt_constants,
        fmt_excess=fmt_excess, jensen_max=jensen_max, epsilon=epsilon, q=q,
        n=n, zero_counts=[zl.total() for zl in data.zero_lists], warnings=warnings)


def _admissibility_floor(curve: EntireCurve, prog: Program, degrees: list[int],
                         radii) -> list[float]:
    """min over theta of max_j log(|Q_j(f)| / ||f||^d_j) on each circle of
    _BATCH_POINTS angles: _log_ratios of the one Program of the targets,
    one circle at a time."""
    circle = np.exp(1j * np.linspace(0.0, TWO_PI, _BATCH_POINTS, endpoint=False))
    return [float(_log_ratios(curve, prog, degrees, r * circle).max(axis=0).min())
            for r in radii]


def curve_residual(generators: list[MultiPoly], curve: EntireCurve,
                   radii=(1.5, 5.0, 10.0)) -> float:
    """max over 64 angles of each circle of |P_i(f)| / ||f||^deg P_i for the
    variety generators, taken in log space, so that no power of ||f||
    overflows.  Every generator and every circle is one Program and one
    batch of evaluations; smt probes the circles of its own radius grid."""
    kept = [P for P in generators if P.degree is not None]
    if not kept:
        return 0.0
    prog = Program([compose_form(P, curve) for P in kept])
    theta = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    z = _radius_list(radii)[:, None] * np.exp(1j * theta)
    return float(np.exp(np.max(_log_ratios(curve, prog, [P.degree for P in kept], z))))


# ---------------------------------------------------------------------------
# Optional growth diagnostics for the quotient-basis curve.
# ---------------------------------------------------------------------------

@dataclass
class BasisGrowthDiagnostic:
    N: int
    radii: list[float]
    T_f: list[float]
    T_F: list[float]
    slack: float
    bound_holds: bool
    cartan_sums: list[float]


def basis_growth_diagnostic(basis_forms: list[MultiPoly], curve: EntireCurve,
                            N: int, radii, slack: float = 0.75) -> BasisGrowthDiagnostic:
    """Characteristic of the basis-image curve F against N * T_f + slack * T_f + O(1).

    F's components are the degree-N basis forms evaluated on the curve; the
    Cartan-style circle sums sum_l log(||F|| / |F_l|) are recorded per radius
    but deliberately not asserted.
    """
    composed = [compose_form(phi, curve) for phi in basis_forms]
    F = EntireCurve(components=tuple(composed))
    radii = sorted(float(r) for r in radii)
    T_f = characteristic_T(curve, radii)
    T_F = characteristic_T(F, radii)
    bound = all(tF <= N * tf + slack * max(tf, 1.0) for tf, tF in zip(T_f, T_F))
    rows = np.array(radii)

    def fn(theta):
        mags = F.moduli(rows[:, None] * np.exp(1j * theta))
        log_norm = np.log(np.max(mags, axis=0))
        return (log_norm[None] - np.log(mags)).sum(axis=0)

    cartan = circle_quadrature(fn, start=512, cap=8192).tolist()
    return BasisGrowthDiagnostic(N=N, radii=radii, T_f=T_f, T_F=T_F,
                                 slack=slack, bound_holds=bound,
                                 cartan_sums=cartan)
