"""The coset filtration behind the dimension counts.

For an admissible family Q_1..Q_n of common degree d and a degree budget N,
each exponent tuple I = (i_1..i_n) with d*|I| <= N gets the subspace L_N^I of
cofactors g (of degree N - d*|I|) for which Q^I * g can be rewritten, modulo
the variety's ideal, as a combination of Q^E-multiples with E lexicographically
larger.  The codimensions m_N^I tile the quotient ring: the products
Q^I * (coset representative) over all cells form a basis of degree-N forms
modulo the ideal, their count is the Hilbert value H_V(N), the interior cells
all share the value deg V * d^n, and the per-slot weighted sums S_s feed the
growth-exponent bookkeeping of the product decomposition.

Every matrix lives in the quotient R_N/J_N, on the H_V(N) standard monomials
(`HomogeneousIdeal.multiples`), and the ideal stays over Q.  The one
elimination, `filtration_space`, computes a degree in one pass from the top
of tau_N down to a given tuple, and the span U of the multiples from the
cells above grows in one `linear.Echelon` per pass.  It gives each cell its
preimage L of U and coset representatives, which the basis and the product
decomposition need, and inserts the reps' rows into U.

The codimensions m alone, which the stabilization scan and the `filtration`
report need, are read on most targets off the Hilbert function
h(s) = dim (R/(J, Q_1..Q_n))_s with no elimination over Q(z).  For every E
in tau_N, m_N^E <= h(N - d*|E|): g -> Q^E * g maps R_s onto the cell's
quotient, and its kernel holds J_s and, for s >= d, every Q_t * R_{s-d},
whose images are the cell E + e_t above E.  The cells tile the quotient, so
their m sum to H_V(N).  Hence when sum_E u(N - d*|E|) = H_V(N) for some
u >= h, every m_N^E is u(N - d*|E|).  Over Q(z), u is h at one point z = a:
specializing cannot raise a rank.  The identity holds at every N exactly
when Q_1..Q_n is a regular sequence on R/J (Stanley, Adv. Math. 28 (1978),
sect. 3); on other targets it may hold at some degrees and fail at others.
So it is checked one degree at a time (`_tiles`), and each degree N is
certified or eliminated on its own.  Where it holds, the m of tau_N are
u(N - d*|E|).  Where it fails, they come from one `filtration_space` pass:
`build_table` runs it over all of tau_N, and the scan from the top of tau_N
down to the lowest tuple it reads at N.  A certified table holds m alone;
its L and reps come from one `filtration_space` pass when one of them is
first read, which checks the m it finds against the certified ones.

Everything here is exact; scans that detect stabilization onsets report
NotStabilized instead of guessing when a window never settles.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .algebra import MultiPoly, PoleAtPoint, coefficient_field
from .gradedgeom import HomogeneousIdeal, NotStabilized, constant_tail, hilbert_function
from .linear import Echelon, GradedSubspace, preimage_of_subspace


class BasisDefect(RuntimeError):
    """The assembled products failed to span the quotient: an implementation bug."""


class DegreeMismatch(ValueError):
    """Hypersurfaces do not share the common degree required by the filtration."""


# ---------------------------------------------------------------------------
# Index bookkeeping.
# ---------------------------------------------------------------------------

def tuple_norm(I: tuple[int, ...]) -> int:
    return sum(I)


def tuple_sets(N: int, d: int, n: int, n0: int = 0,
               kappa: int = 0) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """(tau_N, tau_N^0): exponent tuples with d*|I| <= N, in ascending lex order.

    tau_N^0 keeps the I with N - d*|I| >= n0 and every slot >= kappa; its
    count formula binom(N/d + n, n) for tau_N assumes d | N.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    budget = N // d
    tau = [I for I in itertools.product(range(budget + 1), repeat=n)
           if tuple_norm(I) <= budget]
    tau0 = {I for I in tau
            if N - d * tuple_norm(I) >= n0 and all(i >= kappa for i in I)}
    return tau, tau0


# ---------------------------------------------------------------------------
# Cells and tables.
# ---------------------------------------------------------------------------

class FiltrationCell:
    """The cell L_N^I: its codimension m, the subspace L on the standard
    monomials of degree N - d*|I|, and its coset representatives.

    A cell of a certified table (`build_table`) holds m alone.  The first
    read of L or reps, on any of its cells, runs `eliminate`: one
    `filtration_space` pass that fills L and reps on every cell of the table.
    Comparing two cells reads both; their repr shows L and reps as None
    until they are read.
    """

    __slots__ = ("I", "N", "m", "_L", "_reps", "_eliminate")

    def __init__(self, I: tuple[int, ...], N: int, m: int, L: GradedSubspace | None = None,
                 reps: list[MultiPoly] | None = None, eliminate=None):
        self.I, self.N, self.m = I, N, m
        self._L, self._reps, self._eliminate = L, reps, eliminate

    @property
    def L(self) -> GradedSubspace:
        if self._L is None:
            self._eliminate()
        return self._L

    @property
    def reps(self) -> list[MultiPoly]:
        if self._reps is None:
            self._eliminate()
        return self._reps

    def _fields(self):
        return self.I, self.N, self.L, self.m, self.reps

    def __eq__(self, other):
        if not isinstance(other, FiltrationCell):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return (f"FiltrationCell(I={self.I!r}, N={self.N!r}, L={self._L!r}, m={self.m!r}, "
                f"reps={self._reps!r})")


@dataclass
class FiltrationTable:
    N: int
    d: int
    n: int
    nvars: int
    ideal: HomogeneousIdeal
    Qs: list[MultiPoly]
    cells: dict[tuple[int, ...], FiltrationCell]
    tau: list[tuple[int, ...]]
    tau0: set[tuple[int, ...]]
    hilbert_value: int

    def total_m(self) -> int:
        return sum(cell.m for cell in self.cells.values())


def _over_common_field(Qs):
    """(Qs over their coefficient field, their common degree d)."""
    field = coefficient_field(Qs)
    Qs = [q.over(field) for q in Qs]
    degs = {q.degree for q in Qs}
    if len(degs) != 1 or None in degs:
        raise DegreeMismatch("the Q_j must be homogeneous of one common degree")
    return Qs, degs.pop()


def _power_products(Qs, tau):
    """Q^I = prod Q_s^{i_s} for every I in tau."""
    one = MultiPoly.constant(Qs[0].nvars, 1, Qs[0].field)
    return {I: functools.reduce(operator.mul, [q ** e for q, e in zip(Qs, I) if e] or [one])
            for I in tau}


def filtration_space(J: HomogeneousIdeal, Qs, N: int,
                     I: tuple[int, ...]) -> dict[tuple[int, ...], FiltrationCell]:
    """The cells L_N^E for every E in tau_N from the top down to I, in
    descending lex order, with their codimensions and coset representatives.

    L_N^E is the preimage, under multiplication by Q^E, of the span of the
    ideal's degree-N piece together with all Q^F-multiples for F in tau_N
    lexicographically above E.  In quotient coordinates U, the span of those
    multiples modulo J_N, starts empty.  A cell maps only the standard
    monomials of degree s = N - d*|E| (Q^E * J_s lies in J_N); cell.L is the
    preimage of U on them, and the reps are those that are not pivots of
    cell.L.  These are the m and reps of full monomial coordinates: L_N^E
    contains J_s, and an RREF remainder keeps its leading column when that
    column is not a pivot, so pivots(L_N^E) = pivots(J_s) disjoint union
    pivots(cell.L).

    U is an `Echelon`, and grows by each cell's rep rows, the images of its
    reps.  Working down from the top index, an image that is not a rep's
    lies in U plus the span of the images after it, so the rep rows span the
    same space modulo U as all of the cell's rows: m rows in place of
    H_V(s).  They are also independent modulo U, so each must be new to the
    echelon; one that is not raises BasisDefect.
    """
    Qs, d = _over_common_field(Qs)
    tau, _ = tuple_sets(N, d, len(Qs))
    if I not in tau:  # a wrong length, or N - d*|I| < 0
        raise DegreeMismatch(f"I={I} is not in tau_N for {len(Qs)} targets, N={N}, d={d}")
    above = tau[tau.index(I):]
    powers = _power_products(Qs, above)
    field = Qs[0].field
    U = Echelon(field, hilbert_function(J, N))
    cells = {}
    for E in reversed(above):
        std = J.normal_forms(N - d * tuple_norm(E))[0]
        rows = J.multiples(N, [powers[E]])
        L = preimage_of_subspace(rows, U)
        m = len(std) - L.dim
        pivots = set(L.pivot_cols)
        free = [j for j in range(len(std)) if j not in pivots]
        if len(free) != m:
            raise BasisDefect(f"cell {E}: {len(free)} coset representatives for m = {m}")
        if not all(U.insert(rows[j]) for j in free):
            raise BasisDefect(f"cell {E}: the rep rows are dependent modulo U")
        reps = [MultiPoly.monomial(J.nvars, std[j], 1, field) for j in free]
        cells[E] = FiltrationCell(I=E, N=N, L=L, m=m, reps=reps)
    return cells


def build_table(J: HomogeneousIdeal, Qs, N: int, *, n0: int = 0,
                kappa: int = 0) -> FiltrationTable:
    """All cells of the degree-N filtration.

    The table is first certified by the lemma of the module docstring at N
    itself.  u(s) is the Hilbert function of (J, Q_1..Q_n) in degree s, at
    the scan's point z = a over Q(z) (`_specialized`), for every
    s = N - d*i.  Where H_V(N) = sum_i binom(i + n - 1, n - 1) * u(N - d*i),
    each cell's m is u(N - d*|E|), read with no elimination, and its L and
    reps are lazy: the first read of either runs one `filtration_space`
    pass for the whole table, which raises BasisDefect where an eliminated
    m differs from the certified one.  Where the identity fails at N, all
    cells come from that pass at once.
    """
    Qs, d = _over_common_field(Qs)
    n = len(Qs)
    tau, tau0 = tuple_sets(N, d, n, n0, kappa)
    forms = _specialized(Qs)
    u = {s: hilbert_function(J, s, forms) for s in range(N % d, N + 1, d)}
    if N < 0 or not _tiles(J, u, n, d, N):  # N < 0: filtration_space rejects it
        cells = filtration_space(J, Qs, N, (0,) * n)
    else:
        def eliminate():
            for E, cell in filtration_space(J, Qs, N, (0,) * n).items():
                if cell.m != cells[E].m:
                    raise BasisDefect(f"cell {E}: elimination gives m = {cell.m}, "
                                      f"the table holds {cells[E].m}")
                cells[E]._L, cells[E]._reps = cell.L, cell.reps

        cells = {E: FiltrationCell(I=E, N=N, m=u[N - d * tuple_norm(E)], eliminate=eliminate)
                 for E in reversed(tau)}
    return FiltrationTable(
        N=N, d=d, n=n, nvars=J.nvars, ideal=J, Qs=Qs, cells=cells,
        tau=tau, tau0=tau0, hilbert_value=hilbert_function(J, N))


def _tiles(J: HomogeneousIdeal, u, n: int, d: int, N: int) -> bool:
    """Whether H_V(N) = sum_i binom(i + n - 1, n - 1) * u[N - d*i]: the
    bounds u(N - d*|E|) of the cells of tau_N sum to H_V(N)."""
    return hilbert_function(J, N) == sum(math.comb(i + n - 1, n - 1) * u[N - d * i]
                                         for i in range(N // d + 1))


def filtration_basis(table: FiltrationTable) -> list[MultiPoly]:
    """The products Q^I * rep over all cells, verified to tile the quotient.

    Raises BasisDefect unless the products' quotient rows have full rank and
    their count equals the Hilbert value H_V(N); both are guaranteed
    mathematically, so a failure flags an implementation bug.
    """
    powers = _power_products(table.Qs, table.tau)
    products = [powers[I] * rep for I in table.tau for rep in table.cells[I].reps]
    total = table.total_m()
    if total != table.hilbert_value:
        raise BasisDefect(
            f"sum of m_N^I = {total} differs from H_V(N) = {table.hilbert_value}")
    rank = table.hilbert_value - hilbert_function(table.ideal, table.N, products)
    if rank != total:
        raise BasisDefect(
            f"products are dependent modulo the ideal: rank {rank} of {total}")
    return products


# ---------------------------------------------------------------------------
# Stabilization scans (constants that the theory only promises to exist).
# ---------------------------------------------------------------------------

@dataclass
class StabilizationScan:
    n0: int
    c: int
    c_prime: int
    m_min: int
    I0: tuple[int, ...]
    kappa: int
    m_stable: dict[tuple[int, ...], int]
    quotient_values: list[int]


def stabilization_scan(J: HomogeneousIdeal, Qs, k_max: int,
                       window: int = 3) -> StabilizationScan:
    """Detect the quotient plateau c with onset n0, the per-I stable values m^I
    over a bounded search box, their minimum, and the kappa threshold taken
    from the minimizer's largest slot.

    Each degree is certified or eliminated on its own, by the lemma of the
    module docstring.  u is the Hilbert function of (J, Q_1..Q_n) over Q, and
    over Q(z) that of the Q_j specialized at the first a in 0, 1, -1, 2, -2,
    ... at which no coefficient has a pole and no Q_j vanishes
    (`_specialized`), so u >= h.  It is computed once, up to k_max or the
    largest degree the scan reads, if larger.  Where the identity
    H_V(N) = sum_i binom(i + n - 1, n - 1) * u(N - d*i) holds at N, every
    m_N^E is u(N - d*|E|), whatever a was; the cell E = 0 gives h(N) = u(N).
    So the quotient dimension h(k) is u(k) where the identity holds at k, and
    the Hilbert function of (J, Q) over the targets' field elsewhere; n0 and
    c come from these.  Each degree N that the box reads takes its m off u
    where the identity holds at N, and elsewhere from one `filtration_space`
    pass, from the top of tau_N down to the lowest box tuple read there.  On
    a regular sequence on R/J the identity holds at every N, the scan
    eliminates nothing and every stable m^I is c; on other targets only the
    degrees where it fails are eliminated.

    Raises NotStabilized when either the quotient dimensions or some cell
    sequence fail to settle within the scan bounds.
    """
    Qs, d = _over_common_field(Qs)
    n = len(Qs)
    forms = _specialized(Qs)
    u = [hilbert_function(J, k, forms) for k in range(k_max + 1)]
    tiles = [_tiles(J, u, n, d, k) for k in range(k_max + 1)]
    values = [u[k] if tiles[k] else hilbert_function(J, k, Qs) for k in range(k_max + 1)]
    n0 = constant_tail(values, window)
    if n0 is None:
        raise NotStabilized(
            f"quotient dimensions {values} show no constant tail of length {window}")

    box = _scan_box(n, d, n0)
    # The lowest box tuple read at each degree N = d*|I| + k: walking the box
    # in descending lex order, the last I to claim N wins.
    lowest = {d * tuple_norm(I) + k: I for I in sorted(box, reverse=True)
              for k in range(n0, n0 + window)}
    top = max(lowest)
    u += [hilbert_function(J, k, forms) for k in range(len(u), top + 1)]
    tiles += [_tiles(J, u, n, d, N) for N in range(len(tiles), top + 1)]
    cells = {N: filtration_space(J, Qs, N, I) for N, I in lowest.items() if not tiles[N]}

    m_stable: dict[tuple[int, ...], int] = {}
    for I in box:
        shift = d * tuple_norm(I)
        seq = [cells[shift + k][I].m if shift + k in cells else u[k]
               for k in range(n0, n0 + window)]
        if not all(v == seq[0] for v in seq):
            raise NotStabilized(f"m_N^{I} did not settle over window {window}: {seq}")
        m_stable[I] = seq[0]
    m_min = min(m_stable.values())
    I0 = min((I for I in box if m_stable[I] == m_min),
             key=lambda I: (max(I) if I else 0, I))
    return StabilizationScan(n0=n0, c=values[n0], c_prime=max(m_stable.values()),
                             m_min=m_min, I0=I0, kappa=max(I0) if I0 else 0,
                             m_stable=m_stable, quotient_values=values)


def _specialized(Qs) -> list[MultiPoly]:
    """The Q_j at the first z = a in 0, 1, -1, 2, -2, ... where no coefficient
    has a pole and no Q_j vanishes; forms over Q are returned as they are.
    The Q_j are nonzero, so only finitely many a are skipped."""
    for k in itertools.count():
        a = (k + 1) // 2 * (1 if k % 2 else -1)
        try:
            forms = [q.specialize(a) for q in Qs]
        except PoleAtPoint:
            continue
        if not any(q.is_zero for q in forms):
            return forms


def _scan_box(n: int, d: int, n0: int) -> list[tuple[int, ...]]:
    """The tuples I with |I| <= 2n + n0 // d whose stable m^I the scan reads,
    sorted by largest slot, then lex."""
    box_norm = 2 * n + n0 // d
    box = [I for I in itertools.product(range(box_norm + 1), repeat=n)
           if tuple_norm(I) <= box_norm]
    box.sort(key=lambda I: (max(I) if I else 0, I))
    return box


# ---------------------------------------------------------------------------
# Weighted sums and the product decomposition.
# ---------------------------------------------------------------------------

@dataclass
class WeightedSums:
    S: list[int]
    S0: list[int]
    symmetric: bool
    dominated: bool
    closed_form: bool
    norm_sum_tau0: int


def weighted_sums(table: FiltrationTable, deg_v: int) -> WeightedSums:
    """Exact S_s = sum m_N^I i_s over tau_N and its tau_N^0 restriction.

    Checks: the restricted sums agree across slots (tau_N^0 is symmetric),
    each S_s dominates its restriction, and the restricted sums equal
    deg V * d^n * (sum of |I| over tau_N^0) / n exactly.
    """
    n = table.n
    S = [0] * n
    S0 = [0] * n
    norm_sum = 0
    for I in table.tau:
        m = table.cells[I].m
        for s in range(n):
            S[s] += m * I[s]
        if I in table.tau0:
            norm_sum += tuple_norm(I)
            for s in range(n):
                S0[s] += m * I[s]
    symmetric = all(v == S0[0] for v in S0)
    dominated = all(S[s] >= S0[s] for s in range(n))
    expected = deg_v * table.d ** n * norm_sum
    closed_form = all(n * S0[s] == expected for s in range(n))
    return WeightedSums(S=S, S0=S0, symmetric=symmetric, dominated=dominated,
                        closed_form=closed_form, norm_sum_tau0=norm_sum)


@dataclass
class ProductDecomposition:
    N: int
    exponents: list[int]
    e: int
    p_factors: list[tuple[MultiPoly, int]]
    degree_p: int
    degree_identity: bool

    def leading_ratio(self, deg_v: int, d: int, n: int) -> float:
        """e divided by its leading-order prediction deg V * N^(n+1) / (d (n+1)!)."""
        predicted = deg_v * self.N ** (n + 1) / (d * math.factorial(n + 1))
        return self.e / predicted


def product_decomposition(table: FiltrationTable) -> ProductDecomposition:
    """Factor the product of all basis elements as (Q_1...Q_n)^e * P.

    With the basis elements taken as the cell products Q^I*rep, the product of
    all of them is (Q_1...Q_n)^e times the residual factor list P (the reps
    plus the leftover Q_s powers), where e = min_s E_s and
    E_s = sum_I m_N^I i_s.  The degree bookkeeping
    d*(E_1+...+E_n) + sum deg(rep) = N * H_V(N) is asserted exactly.
    """
    filtration_basis(table)  # raises BasisDefect on any rank defect
    n = table.n
    d = table.d
    E = [0] * n
    rep_degree_sum = 0
    p_factors: list[tuple[MultiPoly, int]] = []
    for I in table.tau:
        cell = table.cells[I]
        for s in range(n):
            E[s] += cell.m * I[s]
        for rep in cell.reps:
            rep_degree_sum += rep.degree if not rep.is_zero else 0
            p_factors.append((rep, 1))
    e = min(E)
    for s in range(n):
        if E[s] > e:
            p_factors.append((table.Qs[s], E[s] - e))
    degree_p = sum((p.degree or 0) * k for p, k in p_factors)
    lhs = d * sum(E) + rep_degree_sum
    rhs = table.N * table.hilbert_value
    identity = lhs == rhs and d * n * e + degree_p == rhs
    if not identity:
        raise BasisDefect(
            f"degree bookkeeping failed: d*sum(E) + sum deg(rep) = {lhs}, "
            f"N*H_V(N) = {rhs}")
    return ProductDecomposition(N=table.N, exponents=E, e=e,
                                p_factors=p_factors, degree_p=degree_p,
                                degree_identity=identity)


def table_rows(table: FiltrationTable) -> tuple[list[str], list[list]]:
    """Report header `I;normI;m;inTau0` and one row per cell, in ascending lex order."""
    return ["I", "normI", "m", "inTau0"], [
        ["(" + ",".join(map(str, I)) + ")", tuple_norm(I), table.cells[I].m,
         int(I in table.tau0)] for I in table.tau]


def export_table(table: FiltrationTable) -> str:
    """The `table_rows` report, `;`-separated, one line per row."""
    header, rows = table_rows(table)
    return "".join(";".join(map(str, row)) + "\n" for row in [header, *rows])
