"""Shared constructors for the test suite, coefficient vectors and the
reduction of a vector against a subspace, the specialization of Q(z)
subspaces, a reference Gauss-Jordan elimination over Q and Q(z) with the
subspaces, kernels and solves built on it, a reference Q(z), a reference
filtration and stabilization scan, reference normal forms and a reference
certificate in full monomial coordinates, reference sample-doubling
integrals, a fine-grid T_f and a reference depth-first zero finder."""

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
    _gcd,
    _imul,
    _iquo,
    coefficient_field,
    field_coerce,
    field_coerce_row,
    field_one,
    field_zero,
    monomial_basis,
    monomial_count,
)
from nevlab import filtration as filt
from nevlab.filtration import tuple_norm, tuple_sets
from nevlab.gradedgeom import (
    HomogeneousIdeal,
    NotStabilized,
    NullstellensatzCertificate,
    constant_tail,
    hilbert_function,
    macaulay_rows,
)
from nevlab.linear import DimensionMismatch, ExactMatrix, GradedSubspace
from nevlab import nevanlinna
from nevlab.nevanlinna import TWO_PI, OverflowGuard, WindingAmbiguous, ZeroList


# A polynomial with double zeros at 1 +- 0.4i and simple ones at
# 1.1 +- 0.4i, 0.4 +- i, -0.4 +- 0.1i and 1.8 +- 1.8i.  Times e^z, the
# cancellation floor of each double zero lies above tol = 1e-6
UNRESOLVED_CLUSTER = (RationalFunction((162, -90, 25)) * RationalFunction((29, -50, 25)) ** 2
                      * RationalFunction((29, -20, 25)) * RationalFunction((137, -220, 100))
                      * RationalFunction((17, 80, 100))) / 3906250000


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
    """J's degree-k piece by the reference elimination over Q(z) of its
    lifted Macaulay rows, independent of the Q reduction J caches."""
    gens = [g.over(RATIONAL_FUNCTION) for g in J.generators]
    rows, _ = macaulay_rows(gens, k, J.nvars, RATIONAL_FUNCTION)
    return reference_subspace(rows, monomial_count(J.M, k), RATIONAL_FUNCTION)


# ---------------------------------------------------------------------------
# Test-side views of polynomials and subspaces: coefficient vectors, and the
# reduction of a vector against a subspace's RREF basis.
# ---------------------------------------------------------------------------

def coefficient_vector(p, basis):
    """The coefficients of the polynomial p on the monomials `basis`."""
    zero = field_zero(p.field)
    return [p.terms.get(exp, zero) for exp in basis]


def reduce_vector(W, v):
    """v reduced against the RREF basis of the `GradedSubspace` W:
    (remainder, coordinates), the coordinates being v's entries at W's
    pivots as the reduction meets them."""
    if len(v) != W.basis.cols:
        raise DimensionMismatch("vector length does not match ambient dimension")
    rem = list(v)
    coords = []
    for pc, row in zip(W.pivot_cols, W.basis.entries):
        f = rem[pc]
        coords.append(f)
        if f:
            for j in range(pc, len(rem)):
                if row[j]:
                    rem[j] = rem[j] - f * row[j]
    return rem, coords


def contains(W, v):
    """Whether v lies in the `GradedSubspace` W."""
    return not any(reduce_vector(W, v)[0])


# ---------------------------------------------------------------------------
# Specializing a Q(z) subspace at a point, which the tests use to check that
# moving subspaces keep their dimension at generic z.
# ---------------------------------------------------------------------------

def clear_denominators(row):
    """Primitive integer polynomial representative of a Q(z)-row (same span line).

    Multiplies by the lcm of the denominators in Z[z] and divides out the gcd
    of the numerators, so the returned z-polynomial entries share no common
    root: the row evaluates to a nonzero vector at every point, which is what
    specializing a moving subspace needs.
    """
    lcm = (1,)
    for v in row:
        lcm = _imul(lcm, _iquo(v.zd, _gcd(lcm, v.zd)))
    nums = [_imul(v.zn, _iquo(lcm, v.zd)) for v in row]
    common = ()
    for nu in nums:
        if nu:
            common = _gcd(common, nu) if common else nu
            if common in ((1,), (-1,)):
                return nums
    return [_iquo(nu, common) for nu in nums] if common else nums


def zpoly_eval(coeffs, a):
    """Evaluate a z-polynomial given by low-to-high coefficients at a."""
    return _zeval(tuple(coeffs), Fraction(a))


def specialize_space(W, a):
    """Evaluate a Q(z)-subspace at z = a and re-echelonize over Q; a subspace
    over Q is returned unchanged.

    Each echelon row is first replaced by its primitive polynomial
    representative (denominators cleared, common z-factor divided out), so the
    value space matches the moving-subspace definition even where the
    normalized basis itself has a pole or a vanishing pivot; for all but a
    discrete set of a the dimension is preserved (rank drops are the
    detectable bad set).
    """
    if W.field == RATIONAL:
        return W
    a = Fraction(a)
    rows = []
    for row in W.basis.entries:
        primitive = clear_denominators(row)
        values = [zpoly_eval(p, a) for p in primitive]
        if row and any(c for c in row) and not any(values):
            raise PoleAtPoint(
                f"primitive row vanished entirely at z={a}; "
                "the subspace cannot be specialized there")
        rows.append(values)
    return GradedSubspace.from_rows(rows, cols=W.basis.cols, field=RATIONAL)


# ---------------------------------------------------------------------------
# Reference preimage and extension: each result re-reduced from scratch by
# the reference elimination, as `linear` computed them before the preimage
# was read off the kernel of the reversed columns and subspaces grew by their
# new rows' remainders.
# ---------------------------------------------------------------------------

def reference_preimage_of_subspace(images, U):
    """{g : sum_j g_j * images[j] in U}: the RREF of the kernel of the matrix
    whose columns are the images reduced against U."""
    rems = [reduce_vector(U, v)[0] for v in images]
    rows = [list(row) for row in zip(*rems) if any(row)]
    return reference_subspace(reference_kernel(rows, len(images), U.field),
                              len(images), U.field)


def reference_extended_with(U, rows):
    """The span of U's basis and `rows`, by one RREF of the stacked rows."""
    if not rows:
        return U
    return reference_subspace(U.basis.entries + list(rows), U.basis.cols, U.field)


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
            for rem in (reduce_vector(piece, row)[0] for row in rows)]


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
        L = reference_preimage_of_subspace(rows, U)
        src_basis = monomial_basis(nvars - 1, src_degree)
        pivots = set(L.pivot_cols)
        reps = [MultiPoly.monomial(nvars, mono, 1, field)
                for j, mono in enumerate(src_basis) if j not in pivots]
        cells[I] = (len(src_basis) - L.dim, reps)
        U = reference_extended_with(U, rows)
    return cells


# ---------------------------------------------------------------------------
# Reference stabilization scan: the quotient dimensions over the targets'
# field and every m from `cell_codimensions`, as `stabilization_scan` read
# them where its certificate did not hold, before it certified each degree
# on its own.
# ---------------------------------------------------------------------------

def reference_scan_cells(box, d, n0, window):
    """For each degree N = d*|I| + k with I in `box` and n0 <= k < n0 + window,
    the cells of tau_N from its top down to the lex-smallest such I, in
    descending lex order: one echelon pass per degree.  Walking the box in
    descending lex order, the last I to claim N wins."""
    lowest = {d * tuple_norm(I) + k: I for I in sorted(box, reverse=True)
              for k in range(n0, n0 + window)}
    cells = {}
    for N, I in lowest.items():
        tau, _ = tuple_sets(N, d, len(I))
        cells[N] = tau[tau.index(I):][::-1]
    return cells


def reference_stabilization_scan(J, Qs, k_max, window):
    """The scan with the quotient dimensions over the targets' field and every
    m it reads from `cell_codimensions`, with no certificate."""
    Qs, d = filt._over_common_field(Qs)
    values = [hilbert_function(J, k, Qs) for k in range(k_max + 1)]
    n0 = constant_tail(values, window)
    if n0 is None:
        raise NotStabilized(
            f"quotient dimensions {values} show no constant tail of length {window}")
    c = values[n0]

    box = filt._scan_box(len(Qs), d, n0)
    cells = reference_scan_cells(box, d, n0, window)
    # The powers Q^E are built once for all the passes.
    powers = filt._power_products(Qs, {E for above in cells.values() for E in above})
    ms = {N: filt.cell_codimensions(J, powers, N, above) for N, above in cells.items()}
    m_stable = {}
    for I in box:
        seq = [ms[d * tuple_norm(I) + k][I] for k in range(n0, n0 + window)]
        if not all(v == seq[0] for v in seq):
            raise NotStabilized(f"m_N^{I} did not settle over window {window}: {seq}")
        m_stable[I] = seq[0]
    c_prime = max(m_stable.values())
    m_min = min(m_stable.values())
    I0 = min((I for I in box if m_stable[I] == m_min),
             key=lambda I: (max(I) if I else 0, I))
    kappa = max(I0) if I0 else 0
    return filt.StabilizationScan(n0=n0, c=c, c_prime=c_prime, m_min=m_min, I0=I0,
                                  kappa=kappa, m_stable=m_stable,
                                  quotient_values=values)


# ---------------------------------------------------------------------------
# Reference certificate: the Macaulay system of the ideal's generators and
# the targets, solved in the full C(s+M, M) monomial coordinates at every s,
# as `nullstellensatz_certificate` solved it at the s its membership test
# passed before it moved to quotient coordinates.
# ---------------------------------------------------------------------------

def reference_nullstellensatz_certificate(J, Qs, s_max):
    """The certificate at the smallest s <= s_max where every x_i^s is a
    combination of the full Macaulay rows of (J, Qs) in degree s, or None."""
    field = coefficient_field(Qs)
    Qs = [q.over(field) for q in Qs if not q.is_zero]
    nvars = J.nvars
    gens = [g.over(field) for g in J.generators] + Qs
    for s in range(1, s_max + 1):
        basis = monomial_basis(nvars - 1, s)
        powers = [MultiPoly.monomial(nvars, [s if j == i else 0 for j in range(nvars)],
                                     1, field) for i in range(nvars)]
        rows, labels = macaulay_rows(gens, s, nvars, field)
        A = ExactMatrix.from_rows(rows, len(basis), field)
        sols = reference_solve_row_combinations(
            A, [coefficient_vector(p, basis) for p in powers])
        if any(sol is None for sol in sols):
            continue
        cofactors = []
        for sol in sols:
            per_gen = [MultiPoly.zero(nvars, field) for _ in gens]
            for coeff, (gi, m) in zip(sol, labels):
                if coeff:
                    per_gen[gi] = per_gen[gi] + MultiPoly.monomial(nvars, m, coeff, field)
            cofactors.append(per_gen)
        return NullstellensatzCertificate(s=s, cofactors=cofactors, generators=gens)
    return None


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
# Reference elimination: Gauss-Jordan on the field elements, over Q on
# Fractions, as `linear` eliminated before every elimination became an
# `Echelon`.  The subspaces, kernels and solutions built on it run none of
# `linear`'s elimination.
# ---------------------------------------------------------------------------

def reference_one(field):
    """The one that `reference_rref_rows` divides by: Fraction(1) over Q, so
    that Q entries stay exact."""
    return Fraction(1) if field == RATIONAL else field_one(field)


def reference_rref_rows(grid, cols, one, pivot_limit=None):
    """In-place reduced row echelon form of a grid of field elements, with
    `one` the field's one; returns (rank, pivot_cols).  Pivots are taken in
    column order, each from the first row at or below the rank with a
    nonzero entry there, and the pivot rows are normalized.  When
    pivot_limit is given, pivots are only sought in columns below it and
    the remaining columns ride along as right-hand sides."""
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


def reference_subspace(rows, cols, field):
    """The `GradedSubspace` spanned by `rows`, from their reference RREF."""
    grid = [field_coerce_row(field, row) for row in rows]
    rank, pivots = reference_rref_rows(grid, cols, reference_one(field))
    return GradedSubspace(ExactMatrix(rank, cols, field, grid[:rank], _raw=True),
                          tuple(pivots))


def reference_kernel(rows, cols, field):
    """Basis of {v : row . v = 0 for every row}: the free-variable
    completions of the reference RREF, by increasing free column."""
    grid = [field_coerce_row(field, row) for row in rows]
    one = reference_one(field)
    _, pivots = reference_rref_rows(grid, cols, one)
    zero = field_zero(field)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [zero] * cols
        v[free] = one
        for row, pc in zip(grid, pivots):
            if row[free]:
                v[pc] = -row[free]
        basis.append(v)
    return basis


def reference_solve_row_combinations(A, targets):
    """For each target v, x with x . A = v, or None: Gauss-Jordan on
    [A^T | targets] with pivots only in the A^T block.  A target is None
    when a row past the rank keeps a nonzero entry in its column; otherwise
    x holds its column's entries at the pivots and zeros elsewhere."""
    grid = [field_coerce_row(A.field, [row[i] for row in A.entries] + [v[i] for v in targets])
            for i in range(A.cols)]
    rank, pivots = reference_rref_rows(grid, A.rows + len(targets),
                                       reference_one(A.field), pivot_limit=A.rows)
    zero = field_zero(A.field)
    results = []
    for col in range(A.rows, A.rows + len(targets)):
        if any(row[col] for row in grid[rank:]):
            results.append(None)
            continue
        x = [zero] * A.rows
        for row, pc in zip(grid, pivots):
            x[pc] = row[col]
        results.append(x)
    return results


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

    def integer_form(self):
        """(zn, zd) of the same quotient in Z[z]: num and den times the lcm of
        their coefficient denominators, divided by the gcd of all the
        resulting integers.  Coprime over Q and of content 1, so coprime in
        Z[z], with a positive leading denominator coefficient."""
        m = math.lcm(*(c.denominator for c in self.num + self.den))
        num = [int(c * m) for c in self.num]
        den = [int(c * m) for c in self.den]
        g = math.gcd(*num, *den)
        return tuple(x // g for x in num), tuple(x // g for x in den)

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


def reference_characteristic_T(curve, r, samples=2 ** 20, chunk=2 ** 16):
    """T_f(r) by the plain trapezoid rule on `samples` angles, evaluated
    `chunk` at a time.  At a kink its error is O(h^2): with 2^20 samples,
    about 3e-12 times the jump in slope of log max_i |f_i| there."""
    theta = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    total = 0.0
    for s in range(0, samples, chunk):
        total += float(curve.log_max_norm(r * np.exp(1j * theta[s:s + chunk])).sum())
    return total / samples


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


# ---------------------------------------------------------------------------
# Reference zero finder: the depth-first subdivision that locate_zeros ran
# before it split each generation in one batch.  A stack pops one box at a
# time and splits it with its own _loop_windings call per jitter offset.
# ---------------------------------------------------------------------------

def _reference_split_box(prog, box):
    wx = box.x1 - box.x0
    wy = box.y1 - box.y0
    for jx in nevanlinna._SPLIT_JITTER:
        for jy in nevanlinna._SPLIT_JITTER:
            mx = box.x0 + wx * (0.5 + jx)
            my = box.y0 + wy * (0.5 + jy)
            quads = [
                nevanlinna._Box(box.x0, mx, box.y0, my, 0),
                nevanlinna._Box(mx, box.x1, box.y0, my, 0),
                nevanlinna._Box(box.x0, mx, my, box.y1, 0),
                nevanlinna._Box(mx, box.x1, my, box.y1, 0),
            ]
            ws = nevanlinna._loop_windings(prog, [q.corners() for q in quads])
            if None not in ws and sum(ws) == box.w:
                for q, w in zip(quads, ws):
                    q.w = w
                return quads
    raise WindingAmbiguous(
        f"could not split box around {box.center} (width {box.width:.3g})")


def reference_locate_zeros(g, r, tol=1e-9, *, max_boxes=400_000):
    prog = nevanlinna.Program([g, g.diff()])
    disk_total = nevanlinna._circle_winding(prog, r)
    if disk_total is None:
        raise WindingAmbiguous(
            f"winding integral over |z| = {r} did not converge; perturb r")
    top = None
    for grow in nevanlinna._TOP_GROW:
        half = r * 1.02 * grow + 16 * tol
        cx, cy = 0.0037 * r, 0.0051 * r
        box = nevanlinna._Box(cx - half, cx + half, cy - half, cy + half, 0)
        [w] = nevanlinna._loop_windings(prog, [box.corners()])
        if w is not None:
            box.w = w
            top = box
            break
    if top is None:
        raise WindingAmbiguous("no valid bounding box found; perturb r")

    zeros = []
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
        children = _reference_split_box(prog, box)
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


# ---------------------------------------------------------------------------
# Reference normal forms: J's full Macaulay piece row-reduced in every degree,
# as `HomogeneousIdeal.normal_forms` built its table before it read it from
# the reduced lex Gröbner basis.
# ---------------------------------------------------------------------------

def reference_normal_forms(J, k):
    """(standard monomials, classes) in the format of `normal_forms`, from the
    RREF of J_k in full monomial coordinates: the standard monomials are the
    non-pivot columns, a standard monomial is its own class, and a pivot
    monomial's class is minus the rest of its RREF row."""
    piece = J.graded_piece(k)
    basis = monomial_basis(J.M, k)
    pivots = set(piece.pivot_cols)
    std = [j for j in range(len(basis)) if j not in pivots]
    classes = {basis[j]: ((i, 1),) for i, j in enumerate(std)}
    for pc, row in zip(piece.pivot_cols, piece.basis.entries):
        classes[basis[pc]] = tuple((i, -row[j]) for i, j in enumerate(std) if row[j])
    return [basis[j] for j in std], classes
