"""Shared constructors for the test suite, a reference Q elimination, a
reference Q(z), a reference filtration in full monomial coordinates and
reference sample-doubling integrals."""

import math
from fractions import Fraction

import numpy as np

from nevlab.algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    MultiPoly,
    PoleAtPoint,
    RationalFunction,
    ZeroDenominator,
    coefficient_field,
    field_coerce,
    field_one,
    field_zero,
    monomial_basis,
    monomial_count,
)
from nevlab.filtration import tuple_sets
from nevlab.gradedgeom import HomogeneousIdeal, macaulay_rows
from nevlab.linear import ExactMatrix, GradedSubspace, preimage_of_subspace
from nevlab import nevanlinna
from nevlab.nevanlinna import TWO_PI, OverflowGuard


def xvar(i, nvars=3, field=RATIONAL):
    return MultiPoly.variable(nvars, i, field)


def conic_ideal():
    """<x0*x2 - x1^2> in P^2."""
    x0, x1, x2 = (xvar(i) for i in range(3))
    return HomogeneousIdeal(3, [x0 * x2 - x1 * x1])


def p1_ideal():
    """The zero ideal in two variables (V = P^1)."""
    return HomogeneousIdeal(2, [])


def twisted_cubic_ideal():
    """<x0x2 - x1^2, x1x3 - x2^2, x0x3 - x1x2> in P^3."""
    x0, x1, x2, x3 = (MultiPoly.variable(4, i) for i in range(4))
    return HomogeneousIdeal(4, [x0 * x2 - x1 * x1,
                                x1 * x3 - x2 * x2,
                                x0 * x3 - x1 * x2])


def plane_ideal():
    """The zero ideal in three variables (V = P^2)."""
    return HomogeneousIdeal(3, [])


def quadric_ideal():
    """<x0*x3 - x1*x2> in P^3: the quadric surface, n = 2 and deg V = 2."""
    x0, x1, x2, x3 = (MultiPoly.variable(4, i) for i in range(4))
    return HomogeneousIdeal(4, [x0 * x3 - x1 * x2])


def matvec(m, v):
    """The product m*v, summed entry by entry."""
    assert len(v) == m.cols
    zero = field_zero(m.field)
    return [sum((a * b for a, b in zip(row, v) if a and b), zero)
            for row in m.entries]


def full_subspace(n, field):
    """The whole space of length-n vectors over `field`."""
    rows = [[field_one(field) if j == i else field_zero(field) for j in range(n)]
            for i in range(n)]
    return GradedSubspace(ExactMatrix(n, n, field, rows, _raw=True), tuple(range(n)))


def piece_over_qz(J, k):
    """J's degree-k piece by generic elimination over Q(z) of its lifted
    Macaulay rows, independent of the Q reduction J caches."""
    gens = [g.over(RATIONAL_FUNCTION) for g in J.generators]
    rows, _ = macaulay_rows(gens, k, J.nvars, RATIONAL_FUNCTION)
    return GradedSubspace.from_rows(rows, cols=monomial_count(J.M, k),
                                    field=RATIONAL_FUNCTION)


# ---------------------------------------------------------------------------
# Reference filtration: every cell in the full C(N+M, M) monomial columns,
# with the ideal's piece J_N lifted entry by entry into the targets' field,
# as `filtration.build_table` computed it before it moved to quotient
# coordinates.
# ---------------------------------------------------------------------------

def _lift(piece, field):
    """The Q subspace `piece` with its entries coerced into `field`; an RREF
    over Q is already an RREF over Q(z)."""
    entries = [[field_coerce(field, v) for v in row] for row in piece.basis.entries]
    basis = ExactMatrix(piece.basis.rows, piece.basis.cols, field, entries, _raw=True)
    return GradedSubspace(basis, piece.pivot_cols)


def reference_quotient_rows(J, k, rows):
    """Each degree-k row's remainder against J_k over all monomial columns,
    kept on the standard columns: the class modulo J that
    `HomogeneousIdeal.multiples` computed before it read normal forms."""
    piece = J.graded_piece(k)
    pivots = set(piece.pivot_cols)
    std = [j for j in range(monomial_count(J.M, k)) if j not in pivots]
    return [[rem[j] for j in std]
            for rem in (piece.reduce_vector(row)[0] for row in rows)]


def reference_build_table(J, Qs, N):
    """{I: (m, reps)} for every cell of the degree-N filtration of (J, Qs).

    U starts as J_N and grows by all the Q^I-multiples of each cell, in
    descending lex order; L_N^I is the preimage of U in the full monomial
    coordinates of its source degree, and the reps are its non-pivot
    monomials.
    """
    field = coefficient_field(Qs)
    Qs = [q.over(field) for q in Qs]
    d = Qs[0].degree
    nvars = J.nvars
    tau, _ = tuple_sets(N, d, len(Qs))
    U = _lift(J.graded_piece(N), field)
    cells = {}
    for I in reversed(tau):
        QI = MultiPoly.constant(nvars, 1, field)
        for q, e in zip(Qs, I):
            QI = QI * q ** e
        rows, _ = macaulay_rows([QI], N, nvars, field)
        src_degree = N - d * sum(I)
        L = preimage_of_subspace(rows, U)
        src_basis = monomial_basis(nvars - 1, src_degree)
        pivots = set(L.pivot_cols)
        reps = [MultiPoly.monomial(nvars, mono, 1, field)
                for j, mono in enumerate(src_basis) if j not in pivots]
        cells[I] = (len(src_basis) - L.dim, reps)
        U = U.extended_with(rows)
    return cells


def rand_fraction(rng, bound=9):
    den = rng.randint(1, bound)
    return Fraction(rng.randint(-bound, bound), den)


def rand_rational_function(rng, deg=2, bound=5):
    num = [rand_fraction(rng, bound) for _ in range(rng.randint(1, deg + 1))]
    den = [rand_fraction(rng, bound) for _ in range(rng.randint(1, deg + 1))]
    if not any(den):
        den = [Fraction(1)]
    return RationalFunction(num, den)


def rand_poly(rng, nvars, degree, field=RATIONAL, terms=3, bound=5):
    """Random homogeneous polynomial of the given degree."""
    from nevlab.algebra import monomial_basis

    basis = monomial_basis(nvars - 1, degree)
    out = MultiPoly.zero(nvars, field)
    for _ in range(terms):
        exp = basis[rng.randrange(len(basis))]
        if field == RATIONAL:
            coeff = rand_fraction(rng, bound)
        else:
            coeff = rand_rational_function(rng, 1, bound)
        out = out + MultiPoly.monomial(nvars, exp, coeff, field)
    return out


# ---------------------------------------------------------------------------
# Reference elimination: Gauss-Jordan on Fractions, the Q path `_rref_rows`
# took before it moved to integer rows.
# ---------------------------------------------------------------------------

def reference_rref_rows(grid, cols, pivot_limit=None):
    """In-place reduced row echelon form of a grid of Fractions; returns
    (rank, pivot_cols), with pivots chosen exactly as `linear._rref_rows`
    chooses them."""
    one = Fraction(1)
    rows = len(grid)
    pivot_cols = []
    r = 0
    for c in range(cols if pivot_limit is None else pivot_limit):
        pivot = None
        for i in range(r, rows):
            if grid[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            grid[r], grid[pivot] = grid[pivot], grid[r]
        prow = grid[r]
        pv = prow[c]
        if pv != one:
            inv = one / pv
            for j in range(c, cols):
                if prow[j]:
                    prow[j] = prow[j] * inv
        support = [j for j in range(c, cols) if prow[j]]
        for i in range(rows):
            if i == r:
                continue
            row = grid[i]
            f = row[c]
            if f:
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return r, pivot_cols


# ---------------------------------------------------------------------------
# Reference Q(z): Euclid's algorithm on Fraction coefficients, the arithmetic
# RationalFunction had before it moved to integer polynomials.  Polynomials
# are tuples of Fractions, low degree first, with no trailing zeros.
# ---------------------------------------------------------------------------

def _ztrim(c):
    c = [Fraction(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ztrim(out)


def _zmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ztrim(out)


def _zdivmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(_ztrim(a)) >= len(b):
        a = list(_ztrim(a))
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, y in enumerate(b):
            a[shift + i] -= factor * y
    return _ztrim(q), _ztrim(a)


def zgcd_monic(a, b):
    """Monic gcd over Q of two polynomials given as coefficient sequences."""
    a, b = _ztrim(a), _ztrim(b)
    while b:
        a, b = b, _zdivmod(a, b)[1]
    return tuple(x / a[-1] for x in a) if a else ()


def _zeval(a, t):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _zstr(a):
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            zk = "z" if k == 1 else f"z^{k}"
            term = zk if c == 1 else f"-{zk}" if c == -1 else f"{c}*{zk}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


class ReferenceRF:
    """num/den reduced over Q, den monic, zero as 0/1."""

    def __init__(self, num, den=(1,)):
        num, den = _ztrim(num), _ztrim(den)
        if not den:
            raise ZeroDenominator("rational function with zero denominator")
        if not num:
            num, den = (), (Fraction(1),)
        g = zgcd_monic(num, den)
        num, den = _zdivmod(num, g)[0], _zdivmod(den, g)[0]
        self.num = tuple(x / den[-1] for x in num)
        self.den = tuple(x / den[-1] for x in den)

    def __add__(self, o):
        return ReferenceRF(_zadd(_zmul(self.num, o.den), _zmul(o.num, self.den)),
                           _zmul(self.den, o.den))

    def __neg__(self):
        return ReferenceRF(tuple(-x for x in self.num), self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return ReferenceRF(_zmul(self.num, o.num), _zmul(self.den, o.den))

    def __truediv__(self, o):
        if not o.num:
            raise ZeroDenominator("division by zero in Q(z)")
        return ReferenceRF(_zmul(self.num, o.den), _zmul(self.den, o.num))

    def __pow__(self, k):
        acc = ReferenceRF((1,))
        for _ in range(abs(k)):
            acc = acc * self
        return ReferenceRF((1,)) / acc if k < 0 else acc

    def evaluate(self, a):
        a = Fraction(a)
        dv = _zeval(self.den, a)
        if dv == 0:
            raise PoleAtPoint(f"pole at z={a}")
        return _zeval(self.num, a) / dv

    def __str__(self):
        if self.den == (Fraction(1),):
            return _zstr(self.num)
        return f"({_zstr(self.num)})/({_zstr(self.den)})"


# ---------------------------------------------------------------------------
# Reference sample doubling: every level re-evaluates all of its points, as
# circle_quadrature, _circle_winding and _loop_windings did before they kept
# the previous level's values.  They look eval_on up on the nevanlinna
# module at call time, so a test can watch both implementations.
# ---------------------------------------------------------------------------

def reference_circle_quadrature(fn, start=512, cap=65536, rel_tol=1e-8):
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


def reference_circle_winding(prog, r, *, cap=65536, snap=0.25):
    chunk = nevanlinna._LOOP_CAP + 1
    n = 256
    prev = None
    while n <= cap:
        theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        z = r * np.exp(1j * theta)
        f = np.empty_like(z)
        for s in range(0, n, chunk):
            gz, dz = nevanlinna.eval_on(prog, z[s:s + chunk])
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


def _reference_edge_integrals(prog, a, b, n, rows):
    t = np.linspace(0.0, 1.0, n + 1)
    out = []
    for s in range(0, len(a), rows):
        d = (b[s:s + rows] - a[s:s + rows])[:, None]
        z = a[s:s + rows, None] + d * t
        gz, dz = nevanlinna.eval_on(prog, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = dz / gz * d
        sums = (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1])) / n
        finite = np.isfinite(f).all(axis=1)
        out.extend(complex(v) if ok else complex(np.nan) for v, ok in zip(sums, finite))
    return out


def reference_loop_windings(prog, loops, *, start=32, cap=nevanlinna._LOOP_CAP,
                            snap=0.25):
    edges = [list(zip(c, c[1:] + c[:1])) for c in loops]
    windings = [None] * len(loops)
    prev = [None] * len(loops)
    open_loops = list(range(len(loops)))
    n = start
    while n <= cap and open_loops:
        a, b = np.array([e for i in open_loops for e in edges[i]]).T
        segs = iter(_reference_edge_integrals(prog, a, b, n, (cap + 1) // (n + 1)))
        still_open = []
        for i in open_loops:
            loop_segs = [next(segs) for _ in edges[i]]
            if any(seg != seg for seg in loop_segs):
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
