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
(`HomogeneousIdeal.multiples`), and the ideal stays over Q; so do the
stabilization scan's quotient dimensions (`hilbert_function`).  One
generator, `_cells`, yields the cells for both `build_table` and
`filtration_space`.

Everything here is exact; scans that detect stabilization onsets report
NotStabilized instead of guessing when a window never settles.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .algebra import MultiPoly, coefficient_field
from .gradedgeom import HomogeneousIdeal, NotStabilized, constant_tail, hilbert_function
from .linear import GradedSubspace, preimage_of_subspace


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

@dataclass
class FiltrationCell:
    I: tuple[int, ...]
    N: int
    L: GradedSubspace  # on the standard monomials of degree N - d*|I|
    m: int
    reps: list[MultiPoly]


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


def _cells(J: HomogeneousIdeal, Qs, N: int, d: int):
    """The cells L_N^I in descending lex order of I, in quotient coordinates.

    U, the span of the higher Q^E-multiples modulo J_N, starts empty and grows
    by each cell's rows once the cell is yielded.  A cell maps only the
    standard monomials of degree s = N - d*|I| (Q^I * J_s lies in J_N);
    cell.L is the preimage of U on them, and the reps are those that are not
    pivots of cell.L.  These are the m and reps of full monomial coordinates:
    L_N^I contains J_s, and an RREF remainder keeps its leading column when
    that column is not a pivot, so pivots(L_N^I) = pivots(J_s) disjoint union
    pivots(cell.L).
    """
    nvars = J.nvars
    field = Qs[0].field
    tau, _ = tuple_sets(N, d, len(Qs))
    powers = _power_products(Qs, tau)
    U = GradedSubspace.from_rows([], cols=hilbert_function(J, N), field=field)
    for I in reversed(tau):
        std = J.normal_forms(N - d * tuple_norm(I))[0]
        rows = J.multiples(N, [powers[I]])
        L = preimage_of_subspace(rows, U)
        m = len(std) - L.dim
        pivots = set(L.pivot_cols)
        reps = [MultiPoly.monomial(nvars, mono, 1, field)
                for j, mono in enumerate(std) if j not in pivots]
        if len(reps) != m:
            raise BasisDefect(f"cell {I}: {len(reps)} coset representatives for m = {m}")
        yield FiltrationCell(I=I, N=N, L=L, m=m, reps=reps)
        U = U.extended_with(rows)


def filtration_space(J: HomogeneousIdeal, Qs, N: int,
                     I: tuple[int, ...]) -> FiltrationCell:
    """Single cell L_N^I with its codimension and coset representatives.

    L_N^I is the preimage, under multiplication by Q^I, of the span of the
    ideal's degree-N piece together with all Q^E-multiples for E in tau_N
    lexicographically above I; its cells come from `_cells`, down to I.
    """
    Qs, d = _over_common_field(Qs)
    if N - d * tuple_norm(I) < 0:
        raise DegreeMismatch(f"N - d*|I| < 0 for I={I}, N={N}, d={d}")
    for cell in _cells(J, Qs, N, d):
        if cell.I == I:
            return cell
    raise DegreeMismatch(f"I={I} is not an exponent tuple of {len(Qs)} targets")


def build_table(J: HomogeneousIdeal, Qs, N: int, *, n0: int = 0,
                kappa: int = 0) -> FiltrationTable:
    """All cells of the degree-N filtration, read off one pass of `_cells`."""
    Qs, d = _over_common_field(Qs)
    n = len(Qs)
    tau, tau0 = tuple_sets(N, d, n, n0, kappa)
    cells = {cell.I: cell for cell in _cells(J, Qs, N, d)}
    return FiltrationTable(
        N=N, d=d, n=n, nvars=J.nvars, ideal=J, Qs=Qs, cells=cells,
        tau=tau, tau0=tau0, hilbert_value=hilbert_function(J, N))


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

    Raises NotStabilized when either the quotient dimensions or some cell
    sequence fail to settle within the scan bounds.
    """
    Qs, d = _over_common_field(Qs)
    n = len(Qs)
    values = [hilbert_function(J, k, Qs) for k in range(k_max + 1)]
    n0 = constant_tail(values, window)
    if n0 is None:
        raise NotStabilized(
            f"quotient dimensions {values} show no constant tail of length {window}")
    c = values[n0]

    box_norm = 2 * n + n0 // d
    box = [I for I in itertools.product(range(box_norm + 1), repeat=n)
           if tuple_norm(I) <= box_norm]
    box.sort(key=lambda I: (max(I) if I else 0, I))
    m_stable: dict[tuple[int, ...], int] = {}
    c_prime = 0
    for I in box:
        seq = []
        for k in range(n0, n0 + window):
            N = d * tuple_norm(I) + k
            cell = filtration_space(J, Qs, N, I)
            seq.append(cell.m)
            c_prime = max(c_prime, cell.m)
        if not all(v == seq[0] for v in seq):
            raise NotStabilized(f"m_N^{I} did not settle over window {window}: {seq}")
        m_stable[I] = seq[0]
    m_min = min(m_stable.values())
    I0 = min((I for I in box if m_stable[I] == m_min),
             key=lambda I: (max(I) if I else 0, I))
    kappa = max(I0) if I0 else 0
    return StabilizationScan(n0=n0, c=c, c_prime=c_prime, m_min=m_min, I0=I0,
                             kappa=kappa, m_stable=m_stable,
                             quotient_values=values)


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


def export_table(table: FiltrationTable) -> str:
    """Report rows `I;normI;m;inTau0`, one per cell, in ascending lex order."""
    lines = ["I;normI;m;inTau0"]
    for I in table.tau:
        cell = table.cells[I]
        iname = "(" + ",".join(str(i) for i in I) + ")"
        lines.append(f"{iname};{tuple_norm(I)};{cell.m};{int(I in table.tau0)}")
    return "\n".join(lines) + "\n"
