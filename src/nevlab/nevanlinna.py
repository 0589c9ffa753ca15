"""Value-distribution numerics for entire curves.

Curves are tuples of expression trees in z (rational constants, z, +, *, -,
integer powers, exp) with symbolic derivatives.  There is one evaluator:
every tree is compiled into a Program, a flat list of numpy operations with
common subtrees shared across the trees compiled together (a curve's
components, a target and its derivative), and eval_on runs it on a point
set.  The characteristic function is a circle average of log of the
max-norm; zeros of composed targets are located by recursive rectangle
subdivision driven by argument-principle winding numbers.  The zero finder
evaluates g'/g on every edge still open at a sample level in one call, at
most 16385 points per evaluation.  Counting functions discharge the
log-weighted integral exactly over the located zeros; Jensen's formula ties
the zero finder to the quadrature as a standing cross-check.  One builder,
sweep_data, locates each target's zeros once and tabulates T_f and N_f for
the sweep and the defects.

Floating point only lives here; every input the exact modules care about
stays exact upstream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .algebra import RATIONAL_FUNCTION, InhomogeneousInput, MultiPoly, RationalFunction

TWO_PI = 2.0 * math.pi
EXP_REAL_CAP = 700.0  # exp argument guard: keeps magnitudes below ~1e304
ZERO_PROBE_TOL = 1e-12  # identically zero: |Q(f)| <= this * ||f||^d at every probe


class OverflowGuard(ArithmeticError):
    """An evaluation left the safe floating range (radius too large)."""


class WindingAmbiguous(RuntimeError):
    """A boundary integral refused to snap to an integer (zero on or near an edge)."""


class ZeroAtOrigin(ValueError):
    """Jensen's formula needs g(0) != 0."""


class IdenticallyZero(ValueError):
    """The composed target vanishes identically on the curve."""


class NonPolynomialCoefficient(ValueError):
    """A numeric target has a coefficient that is not a polynomial in z."""


# ---------------------------------------------------------------------------
# Expression trees.
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()

    def diff(self) -> "Expr":  # pragma: no cover - interface
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = Fraction(value) if not isinstance(value, Fraction) else value

    def diff(self):
        return Const(0)

    def __str__(self):
        return str(self.value)


class Z(Expr):
    __slots__ = ()

    def diff(self):
        return Const(1)

    def __str__(self):
        return "z"


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return add(self.a.diff(), self.b.diff())

    def __str__(self):
        rhs = str(self.b)
        if rhs.startswith("-"):
            return f"{self.a} - {rhs[1:]}"
        return f"{self.a} + {rhs}"


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return add(mul(self.a.diff(), self.b), mul(self.a, self.b.diff()))

    def __str__(self):
        return f"{_paren(self.a)}*{_paren(self.b)}"


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def diff(self):
        return neg(self.a.diff())

    def __str__(self):
        return f"-{_paren(self.a)}"


class Pow(Expr):
    __slots__ = ("a", "k")

    def __init__(self, a, k: int):
        if k < 0:
            raise ValueError("Pow exponent must be a nonnegative integer")
        self.a, self.k = a, k

    def diff(self):
        if self.k == 0:
            return Const(0)
        return mul(mul(Const(self.k), pow_(self.a, self.k - 1)), self.a.diff())

    def __str__(self):
        return f"{_paren(self.a)}^{self.k}"


class Exp(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def diff(self):
        return mul(self.a.diff(), Exp(self.a))

    def __str__(self):
        return f"exp({self.a})"


def _guarded_exp(w):
    mx = np.max(np.real(w)) if np.ndim(w) else float(np.real(w))
    if mx > EXP_REAL_CAP:
        raise OverflowGuard(
            f"exp argument real part {mx:.1f} exceeds the guard {EXP_REAL_CAP}")
    return np.exp(w)


def _paren(e: Expr) -> str:
    s = str(e)
    if isinstance(e, (Add,)) or (isinstance(e, Neg)) or (" " in s and not s.startswith("exp(")):
        return f"({s})"
    return s


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def pow_(a: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1)
    if k == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value ** k)
    return Pow(a, k)


_OPERATORS = {Add: operator.add, Mul: operator.mul, Neg: operator.neg,
              Pow: operator.pow, Exp: _guarded_exp}


class Program:
    """Expression trees compiled into one flat list of numpy operations.

    Structurally equal subtrees are hash-consed across all the trees, so a
    shared exp(z) is computed once per point set.  Constants are converted to
    complex once.  The ops run in the trees' post-order, each applying its
    node's operator (operator.add/mul/neg/pow or _guarded_exp), so the first
    exp argument past the guard, in that order, raises the OverflowGuard.  A
    register is released after its last use.
    """

    def __init__(self, exprs):
        self._init: list = [None]  # register values before a run; register 0 holds z
        self._keys: dict = {}      # structural key -> register
        self._ops: list = []       # (operator, destination, source registers)
        seen: dict[int, int] = {}
        self.outputs = tuple(self._emit(e, seen) for e in exprs)
        last_use = {s: i for i, (_, _, srcs) in enumerate(self._ops) for s in srcs}
        self._ops = [(fn, dst, srcs, tuple(s for s in set(srcs)
                                           if last_use[s] == i and s not in self.outputs))
                     for i, (fn, dst, srcs) in enumerate(self._ops)]

    def _register(self, key, value=None) -> int:
        reg = self._keys.get(key)
        if reg is None:
            reg = self._keys[key] = len(self._init)
            self._init.append(value)
        return reg

    def _emit(self, e: Expr, seen: dict[int, int]) -> int:
        reg = seen.get(id(e))
        if reg is not None:
            return reg
        if isinstance(e, Const):
            reg = self._register(("const", e.value), complex(e.value))
        elif isinstance(e, Z):
            reg = 0
        else:
            srcs = [self._emit(e.a, seen)]
            if isinstance(e, (Add, Mul)):
                srcs.append(self._emit(e.b, seen))
            elif isinstance(e, Pow):
                srcs.append(self._register(("int", e.k), e.k))
            srcs = tuple(srcs)
            key = (type(e), srcs)
            if key not in self._keys:
                self._ops.append((_OPERATORS[type(e)], self._register(key), srcs))
            reg = self._keys[key]
        seen[id(e)] = reg
        return reg

    def eval(self, z) -> list:
        """Values of the compiled trees at z, constants left unbroadcast."""
        regs = list(self._init)
        regs[0] = z
        for fn, dst, srcs, dead in self._ops:
            regs[dst] = fn(*[regs[s] for s in srcs])
            for s in dead:
                regs[s] = None
        return [regs[o] for o in self.outputs]


def eval_on(prog: Program, z):
    """Values of the compiled trees on an array of points: a tuple with one
    array per tree, constant trees broadcast to the shape of z."""
    z = np.asarray(z, dtype=complex)
    return tuple(np.broadcast_to(np.asarray(v), z.shape) for v in prog.eval(z))


@dataclass
class EntireCurve:
    """M+1 entire components, compiled into one Program; not all
    identically zero."""

    components: tuple[Expr, ...]

    def __post_init__(self):
        self.components = tuple(self.components)
        if not self.components:
            raise ValueError("a curve needs at least one component")
        self.program = Program(self.components)
        probes = np.array([0.31 + 0.17j, -0.83 + 0.55j, 1.29 - 0.71j,
                           -1.51 - 1.13j, 2.03 + 0.37j])
        mags = np.abs(self.eval_components(probes))
        if float(mags.max()) == 0.0:
            raise ValueError("all curve components vanish at the probe points")

    @property
    def nvars(self) -> int:
        return len(self.components)

    def eval_components(self, z) -> np.ndarray:
        return np.stack(eval_on(self.program, z))

    def log_max_norm(self, z) -> np.ndarray:
        mags = np.abs(self.eval_components(z))
        return np.log(np.max(mags, axis=0))


def rf_to_expr(coeff: RationalFunction) -> Expr:
    """Polynomial-in-z coefficient as an expression tree (Horner form)."""
    if len(coeff.den) != 1 or coeff.den[0] != 1:
        raise NonPolynomialCoefficient(
            f"numeric targets need polynomial coefficients, got {coeff}")
    coeffs = coeff.num
    if not coeffs:
        return Const(0)
    acc: Expr = Const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = add(Const(c), mul(Z(), acc))
    return acc


def compose_form(Q: MultiPoly, curve: EntireCurve) -> Expr:
    """Q(f_0,...,f_M) as an expression tree; coefficients must be polynomial in z."""
    if Q.nvars != curve.nvars:
        raise ValueError("variable count of the form does not match the curve")
    total: Expr = Const(0)
    for exp, c in Q.items():
        if Q.field == RATIONAL_FUNCTION:
            term: Expr = rf_to_expr(c)
        else:
            term = Const(c)
        for i, k in enumerate(exp):
            if k:
                term = mul(term, pow_(curve.components[i], k))
        total = add(total, term)
    return total


# ---------------------------------------------------------------------------
# Circle quadrature.
# ---------------------------------------------------------------------------

def circle_quadrature(fn, start: int = 512, cap: int = 65536,
                      rel_tol: float = 1e-8) -> float:
    """Mean of fn over the circle parameter via trapezoid with sample doubling.

    On the periodic domain the uniform trapezoid rule is the plain mean;
    doubling stops at relative change below rel_tol (floored at 1 to keep the
    test meaningful near zero) or at the sample cap.
    """
    n = start
    prev = None
    while True:
        theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        vals = np.asarray(fn(theta), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise OverflowGuard("non-finite integrand sample on the circle")
        est = float(vals.mean())
        if prev is not None and abs(est - prev) <= rel_tol * max(abs(est), 1.0):
            return est
        if n >= cap:
            return est
        prev = est
        n *= 2


def characteristic_T(curve: EntireCurve, r: float, samples: int = 512) -> float:
    """T_f(r): circle average of log max_i |f_i| at radius r (> 1)."""
    if r <= 1:
        raise ValueError("characteristic is defined for r > 1")

    def fn(theta):
        z = r * np.exp(1j * theta)
        return curve.log_max_norm(z)

    return circle_quadrature(fn, start=samples)


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


_LOOP_CAP = 16384  # samples per edge at the last loop-winding level


def _edge_integrals(prog: Program, a, b, n: int, rows: int) -> list[complex]:
    """Trapezoid integrals of g'/g along the segments a[i] -> b[i], n
    intervals each, nan where a sample is not finite; `rows` segments per
    program evaluation."""
    t = np.linspace(0.0, 1.0, n + 1)
    out = []
    for s in range(0, len(a), rows):
        d = (b[s:s + rows] - a[s:s + rows])[:, None]
        z = a[s:s + rows, None] + d * t
        gz, dz = eval_on(prog, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = dz / gz * d
        # uniform trapezoid on [0, 1], one row per segment
        sums = (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1])) / n
        finite = np.isfinite(f).all(axis=1)
        out.extend(complex(v) if ok else complex(np.nan) for v, ok in zip(sums, finite))
    return out


def _loop_windings(prog: Program, loops, *, start: int = 32, cap: int = _LOOP_CAP,
                   snap: float = 0.25) -> list[int | None]:
    """Winding number of g along each closed polyline, or None when ambiguous.

    At each sample level the edges of every loop still open are evaluated
    together, in row chunks of at most cap + 1 points.  Each loop keeps its
    own edge points, per-edge sums, summation order and stopping rule, so
    its result is the one a loop-by-loop evaluation gives.
    """
    edges = [list(zip(c, c[1:] + c[:1])) for c in loops]
    windings: list[int | None] = [None] * len(loops)
    prev: list[complex | None] = [None] * len(loops)
    open_loops = list(range(len(loops)))
    n = start
    while n <= cap and open_loops:
        a, b = np.array([e for i in open_loops for e in edges[i]]).T
        segs = iter(_edge_integrals(prog, a, b, n, (cap + 1) // (n + 1)))
        still_open = []
        for i in open_loops:
            loop_segs = [next(segs) for _ in edges[i]]
            if any(seg != seg for seg in loop_segs):  # nan: a sample was not finite
                still_open.append(i)
                continue
            total = 0j
            for seg in loop_segs:
                total += seg
            w = total / (2j * math.pi)
            nearest = round(w.real)
            if abs(w - nearest) < snap and prev[i] is not None and abs(w - prev[i]) < 0.1:
                windings[i] = int(nearest)
            else:
                prev[i] = w
                still_open.append(i)
        open_loops = still_open
        n *= 2
    return windings


def _circle_winding(prog: Program, r: float, *, cap: int = 65536,
                    snap: float = 0.25) -> int | None:
    chunk = _LOOP_CAP + 1  # no evaluation larger than one edge at the loop cap
    n = 256
    prev = None
    while n <= cap:
        theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        z = r * np.exp(1j * theta)
        f = np.empty_like(z)
        for s in range(0, n, chunk):
            gz, dz = eval_on(prog, z[s:s + chunk])
            with np.errstate(divide="ignore", invalid="ignore"):
                f[s:s + chunk] = dz / gz * (1j * z[s:s + chunk])
        if np.all(np.isfinite(f)):
            w = complex(f.mean()) / (2j * math.pi) * TWO_PI
            nearest = round(w.real)
            if abs(w - nearest) < snap and prev is not None and abs(w - prev) < 0.1:
                return int(nearest)
            prev = w
        n *= 2
    return None


@dataclass
class _Box:
    x0: float
    x1: float
    y0: float
    y1: float
    w: int

    @property
    def width(self) -> float:
        return max(self.x1 - self.x0, self.y1 - self.y0)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def corners(self):
        return [complex(self.x0, self.y0), complex(self.x1, self.y0),
                complex(self.x1, self.y1), complex(self.x0, self.y1)]


def locate_zeros(g: Expr, r: float, tol: float = 1e-9, *,
                 max_boxes: int = 400_000) -> ZeroList:
    """All zeros of g in the open disk |z| < r, with multiplicities.

    The disk's winding number fixes the total count; the bounding box is then
    subdivided recursively, keeping boxes of nonzero winding, down to width
    tol (multiplicity = winding of the final box).  Split lines are jittered
    and re-tried whenever a boundary integral refuses to snap to an integer,
    which signals a zero on or near an edge.  A zero within tol of the circle
    itself raises WindingAmbiguous: perturb r and re-run.

    tol cannot beat the cancellation floor of double evaluation: near a
    multiplicity-m zero, |g| ~ |z - z0|^m, so widths below roughly
    (1e-16 * scale)^(1/m) drown in rounding noise and the subdivision reports
    WindingAmbiguous.  1e-6 is safe for m <= 2 at moderate scales; reserve
    tighter tolerances for simple zeros.
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
        [w] = _loop_windings(prog, [box.corners()])
        if w is not None:
            box.w = w
            top = box
            break
    if top is None:
        raise WindingAmbiguous("no valid bounding box found; perturb r")

    zeros: list[tuple[complex, int]] = []
    stack = [top]
    processed = 0
    while stack:
        box = stack.pop()
        processed += 1
        if processed > max_boxes:
            raise WindingAmbiguous("subdivision budget exhausted")
        if box.w == 0:
            continue
        if box.width <= tol:
            zeros.append((box.center, box.w))
            continue
        children = _split_box(prog, box)
        stack.extend(c for c in children if c.w != 0)

    kept = []
    for z, m in zeros:
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


def _split_box(prog: Program, box: _Box) -> list[_Box]:
    wx = box.x1 - box.x0
    wy = box.y1 - box.y0
    for jx in _SPLIT_JITTER:
        for jy in _SPLIT_JITTER:
            mx = box.x0 + wx * (0.5 + jx)
            my = box.y0 + wy * (0.5 + jy)
            quads = [
                _Box(box.x0, mx, box.y0, my, 0),
                _Box(mx, box.x1, box.y0, my, 0),
                _Box(box.x0, mx, my, box.y1, 0),
                _Box(mx, box.x1, my, box.y1, 0),
            ]
            ws = _loop_windings(prog, [q.corners() for q in quads])
            if None not in ws and sum(ws) == box.w:
                for q, w in zip(quads, ws):
                    q.w = w
                return quads
        # vary both axes together before moving to the next x offset
    raise WindingAmbiguous(
        f"could not split box around {box.center} (width {box.width:.3g})")


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


def jensen_check(g: Expr, r: float, zeros: ZeroList | None = None,
                 tol: float = 1e-9) -> float:
    """|circle average of log|g| - log|g(0)| - sum m_k log(r/|z_k|)|.

    The circle average is computed with the located zeros divided out (their
    own circle averages are known exactly), which keeps the quadrature smooth
    even when a zero sits close to the circle; a missing or misplaced zero
    still shows up in the residual.
    """
    prog = Program([g])
    g0 = complex(eval_on(prog, 0j)[0])
    if abs(g0) == 0.0:
        raise ZeroAtOrigin("g(0) = 0: Jensen's formula does not apply")
    if zeros is None:
        zeros = locate_zeros(g, r * (1 + 1e-3) + 1e-6, tol=tol)
    zs = np.array([z for z, _ in zeros.zeros], dtype=complex)
    ms = np.array([m for _, m in zeros.zeros], dtype=float)

    def fn(theta):
        z = r * np.exp(1j * theta)
        vals = np.log(np.abs(eval_on(prog, z)[0]))
        if len(zs):
            vals = vals - (ms[None, :] * np.log(np.abs(z[:, None] - zs[None, :]))).sum(axis=1)
        return vals

    smooth_mean = circle_quadrature(fn, start=512)
    add_back = float(sum(m * math.log(max(r, abs(z))) for z, m in zeros.zeros))
    integral = smooth_mean + add_back
    jensen_sum = sum(m * math.log(r / abs(z)) for z, m in zeros.zeros if abs(z) < r)
    return abs(integral - math.log(abs(g0)) - jensen_sum)


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

def _assert_not_identically_zero(curve, gq: Expr, d: int, r: float):
    prog = Program([gq])
    theta = np.linspace(0.0, TWO_PI, 17)[:-1]
    for rr in (1.5, 0.5 * r, r):
        z = rr * np.exp(1j * theta)
        vals = np.abs(eval_on(prog, z)[0])
        norm = np.exp(d * curve.log_max_norm(z))
        if np.any(vals > ZERO_PROBE_TOL * norm):
            return
    raise IdenticallyZero("the composed target vanishes at all probe points")


@dataclass
class SweepData:
    """T_f, zeros and N_f of one curve against its targets on one radius grid."""

    radii: list[float]
    degrees: list[int]
    composed: list[Expr]
    zero_lists: list[ZeroList]
    Tf: list[float]
    Nf: list[list[float]]        # Nf[j][i]: target j at radius i


def sweep_data(curve: EntireCurve, Qs: list[MultiPoly], r_grid, *,
               zero_tol: float = 1e-6) -> SweepData:
    """Compose each target, locate its zeros once, and tabulate T_f and N_f.

    Raises InhomogeneousInput for a target of degree < 1 and IdenticallyZero
    when some |Q_j(f)| <= ZERO_PROBE_TOL * ||f||^d_j at every probe point.
    """
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
    for gq, d in zip(composed, degrees):
        _assert_not_identically_zero(curve, gq, d, radii[-1])

    locate_r = radii[-1] * (1 + 1e-3) + 0.25
    zero_lists = [locate_zeros(gq, locate_r, tol=zero_tol) for gq in composed]

    Tf = [characteristic_T(curve, r) for r in radii]
    Nf = [[counting_N(zl, r) for r in radii] for zl in zero_lists]
    return SweepData(radii=radii, degrees=degrees, composed=composed,
                     zero_lists=zero_lists, Tf=Tf, Nf=Nf)


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
               r_grid, *, zero_tol: float = 1e-6,
               admissibility_checked: bool = False) -> SweepReport:
    """Sweep the growth inequality sum_j N_f(r,Q_j)/d_j >= (q-n-1-eps) T_f(r).

    Per radius: T_f, every N_f(r, Q_j) from one shared zero list per target,
    the margin, and the admissibility floor min_theta max_j log(|Q_j(f)|/||f||^d_j);
    plus defect estimates, their sum against n+1, and the first-main-theorem
    cap N_f <= d_j T_f + C_j (C_j fitted at the smallest radius).  Radii where
    the margin is negative are listed as violations.

    The caller is responsible for having verified admissibility and curve
    membership (set admissibility_checked accordingly; it is only echoed into
    the warnings when False).
    """
    data = sweep_data(curve, Qs, r_grid, zero_tol=zero_tol)
    radii, degrees, Tf, Nf = data.radii, data.degrees, data.Tf, data.Nf
    q = len(Qs)
    warnings: list[str] = []
    if not admissibility_checked:
        warnings.append("admissibility was not verified by the caller")

    factor = q - n - 1 - epsilon
    margins = []
    for i, r in enumerate(radii):
        margins.append(sum(Nf[j][i] / degrees[j] for j in range(q)) - factor * Tf[i])
    violations = [r for r, mgn in zip(radii, margins) if mgn < 0]

    jensen_max = 0.0
    for gq, zl in zip(data.composed, data.zero_lists):
        for r in radii:
            jensen_max = max(jensen_max, jensen_check(gq, r, zeros=zl))

    floor_values = [_admissibility_floor(curve, data.composed, degrees, r) for r in radii]
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


def _admissibility_floor(curve: EntireCurve, composed: list[Expr],
                         degrees: list[int], r: float, samples: int = 2048) -> float:
    theta = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    z = r * np.exp(1j * theta)
    log_norm = curve.log_max_norm(z)
    best = None
    for gz, d in zip(eval_on(Program(composed), z), degrees):
        vals = np.log(np.abs(gz)) - d * log_norm
        best = vals if best is None else np.maximum(best, vals)
    return float(np.min(best))


def curve_residual(generators: list[MultiPoly], curve: EntireCurve,
                   radii=(1.5, 5.0, 10.0), samples: int = 64) -> float:
    """max over sample circles of |P_i(f)| / ||f||^deg P_i for the variety generators."""
    worst = 0.0
    theta = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    for P in generators:
        d = P.degree
        if d is None:
            continue
        prog = Program([compose_form(P, curve)])
        for r in radii:
            z = r * np.exp(1j * theta)
            vals = np.abs(eval_on(prog, z)[0])
            norm = np.exp(d * curve.log_max_norm(z))
            worst = max(worst, float(np.max(vals / norm)))
    return worst


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
    T_f = [characteristic_T(curve, r) for r in radii]
    T_F = [characteristic_T(F, r) for r in radii]
    bound = all(tF <= N * tf + slack * max(tf, 1.0) for tf, tF in zip(T_f, T_F))
    cartan = []
    for r in radii:
        def fn(theta, _r=r):
            z = _r * np.exp(1j * theta)
            mags = np.abs(F.eval_components(z))
            log_norm = np.log(np.max(mags, axis=0))
            return (log_norm[None, :] - np.log(mags)).sum(axis=0)

        cartan.append(circle_quadrature(fn, start=512, cap=8192))
    return BasisGrowthDiagnostic(N=N, radii=radii, T_f=T_f, T_F=T_F,
                                 slack=slack, bound_holds=bound,
                                 cartan_sums=cartan)
