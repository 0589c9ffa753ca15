"""Exact dense linear algebra over Q and Q(z).

There is one elimination, `Echelon`: a span grown one vector at a time and
held as rows in reduced echelon form.  `insert` says whether a vector was
new, `remainder` gives any vector's remainder against the span, and
`reduced` reads off the span's reduced row echelon form (RREF).  An RREF is
unique, so its pivots and entries do not depend on the order in which the
vectors came in, and echelon bases and coset representatives are
reproducible.  `row_reduce` (and with it `kernel` and
`GradedSubspace.from_rows`) and `solve_row_combinations` read their results
off one `Echelon`.

`solve_row_combinations` needs no pivot limit to keep the right-hand sides
apart.  It reduces [A^T | targets] in full.  A reduced row whose pivot lies
in the target block is zero on A^T: it is a relation that no combination of
A's rows meets, and it is nonzero only in the columns of the targets outside
the row space.  Clearing it from the other rows therefore changes no entry
that a solution is read from.

A fixed subspace, such as an ideal's graded piece or a preimage, is a
`GradedSubspace`: the rows of its RREF.  A preimage
{g : sum_j g_j * images[j] in U} of an `Echelon` U is read off one reduction:
the kernel of the matrix whose columns are the images' remainders against U.
With those columns taken in reverse order, the kernel basis read backwards is
already the preimage's RREF, so it is not reduced again.

Over Q an `Echelon` holds primitive integer rows with a positive pivot and
reduces them fraction-free (`_clear_integer`), so every entry stays an int;
only `reduced`, and `solve_row_combinations` on the entries it reads, divide
by a row's pivot, giving ints where the pivot divides an entry and Fractions
elsewhere, and only `remainder` takes Fractions on the way.  Over Q(z) it
runs on the field elements and keeps sparse rows sparse; integer
elimination over Z[z] was measured 6-14x slower on the same matrices,
because scaling whole rows destroys that sparsity and grows the z-degrees.

Every matrix is reduced over its own field tag and entries are never
inspected to pick a cheaper one.  The field is chosen once, by the callers,
from the targets (`algebra.coefficient_field`): Q when every target
coefficient is constant, Q(z) otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, itemgetter

from .algebra import (
    RATIONAL,
    field_coerce_row,
    field_one,
    field_zero,
)


class DimensionMismatch(ValueError):
    """Vector/matrix shapes do not line up."""


class ExactMatrix:
    """Dense matrix of field elements with a uniform field tag."""

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows: int, cols: int, field: str, entries=None, _raw=False):
        self.rows = rows
        self.cols = cols
        self.field = field
        if _raw:
            self.entries = entries
            return
        if entries is None:
            zero = field_zero(field)
            self.entries = [[zero] * cols for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise DimensionMismatch("entry grid does not match declared shape")
            self.entries = [field_coerce_row(field, row) for row in entries]

    @classmethod
    def from_rows(cls, rows, cols: int, field: str) -> "ExactMatrix":
        return cls(len(rows), cols, field, rows)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.field == other.field
                and self.entries == other.entries)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"


_denominator = attrgetter("denominator")


def _integer_row(row: list) -> list[int]:
    """The primitive integer row on the same line as a row of ints and Fractions."""
    if Fraction in set(map(type, row)):
        m = math.lcm(*map(_denominator, row))
        row = [v.numerator * (m // v.denominator) for v in row]
    g = math.gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _clear_integer(row: list[int], prow: list[int], c: int, support) -> list[int]:
    """The primitive integer row (p/g)*row - (f/g)*prow, with f = row[c] != 0,
    p = prow[c] > 0 and g = gcd(p, f): zero in column c, and a positive
    multiple of row - (f/p)*prow.  support lists prow's nonzero columns.

    Each step keeps a row a primitive integer multiple of the row that
    elimination over Q holds at the same step (Bareiss, Math. Comp. 22
    (1968), with content removal in place of Sylvester's identity), so the
    zero patterns, and with them the pivots, are those of elimination over Q.
    """
    p, f = prow[c], row[c]
    g = math.gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        row = [a * v for v in row]
    for j in support:
        row[j] -= b * prow[j]
    g = math.gcd(*row)
    return row if g < 2 else [v // g for v in row]


class Echelon:
    """A span of `cols`-vectors grown one vector at a time, held as rows in
    reduced echelon form: every elimination in nevlab.

    `insert` reduces a vector against the rows and, when a remainder is
    left, adds it as a row and clears its pivot column from the other rows.
    Each row is zero at every other row's pivot, so the order in which a
    vector meets the rows does not matter.  Over Q the rows are primitive
    integer rows with a positive pivot, reduced by the fraction-free step
    `_clear_integer`, so every entry stays an int; over Q(z) each pivot is 1.
    `reduced` divides each row by its pivot, which gives the RREF.
    """

    __slots__ = ("field", "cols", "rows")

    def __init__(self, field: str, cols: int):
        self.field = field
        self.cols = cols
        self.rows: list[list] = []  # [pivot column, row, its nonzero columns]

    def insert(self, v) -> bool:
        """Add v to the span; False, and no change, when it already lies in it."""
        integer = self.field == RATIONAL
        one = field_one(self.field)
        v = _integer_row(list(v)) if integer else list(v)
        for c, row, support in self.rows:
            f = v[c]
            if not f:
                continue
            if integer:
                v = _clear_integer(v, row, c, support)
            else:
                for j in support:
                    v[j] = v[j] - f * row[j]
        support = [j for j, x in enumerate(v) if x]
        if not support:
            return False
        c = support[0]
        if integer and v[c] < 0:
            v = [-x for x in v]
        elif not integer and v[c] != one:
            inv = one / v[c]
            for j in support:
                v[j] = v[j] * inv
        for entry in self.rows:
            row = entry[1]
            f = row[c]
            if not f:
                continue
            if integer:
                row = entry[1] = _clear_integer(row, v, c, support)
            else:
                for j in support:
                    row[j] = row[j] - f * v[j]
            entry[2] = [j for j in range(entry[0], len(row)) if row[j]]
        self.rows.append([c, v, support])
        return True

    def remainder(self, v) -> list:
        """v minus its component in the span, v - sum (v[c]/p) * row over the
        rows with pivot c and pivot entry p (1 over Q(z)): its remainder
        against the span's reduced echelon form.  Unlike `insert`, this never
        rescales v, so it is linear in v, as a preimage needs; over Q a
        multiplier v[c]/p is a Fraction only where p does not divide v[c].
        """
        rem = list(v)
        integer = self.field == RATIONAL
        for c, row, support in self.rows:
            f = v[c]  # every other row is zero at c, so rem[c] is still v[c]
            if not f:
                continue
            if integer:
                p = row[c]
                f = f // p if not f % p else Fraction(f, p)
            for j in support:
                rem[j] = rem[j] - f * row[j]
        return rem

    def reduced(self) -> tuple[list[int], list[list]]:
        """(pivot columns, rows) of the span's RREF: the rows in pivot order,
        each divided by its pivot entry.  Over Q an entry v of a row with
        pivot p becomes v // p where p divides v and Fraction(v, p)
        elsewhere; the RREF is unique, and so are these values and types.
        """
        rows = sorted(self.rows, key=itemgetter(0))
        out = []
        for c, row, _ in rows:
            p = row[c]
            if self.field != RATIONAL or p == 1:
                out.append(row[:])
            else:
                out.append([v // p if v % p == 0 else Fraction(v, p) for v in row])
        return [c for c, _, _ in rows], out


def row_reduce(m: ExactMatrix) -> tuple[int, ExactMatrix, list[int]]:
    """(rank, RREF, pivot columns) of m, the RREF padded with zero rows to
    m's shape: m's rows inserted into one `Echelon`, then `reduced`."""
    span = Echelon(m.field, m.cols)
    for row in m.entries:
        span.insert(row)
    pivots, rows = span.reduced()
    zero = field_zero(m.field)
    rows.extend([zero] * m.cols for _ in range(m.rows - len(rows)))
    return len(pivots), ExactMatrix(m.rows, m.cols, m.field, rows, _raw=True), pivots


def kernel(m: ExactMatrix) -> list[list]:
    """Basis of the null space {v : m v = 0}; count = cols - rank.

    Basis vectors are the standard free-variable completions of the reduced
    echelon form, listed in increasing free-column order.
    """
    rank, rref, pivots = row_reduce(m)
    zero = field_zero(m.field)
    one = field_one(m.field)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [zero] * m.cols
        v[free] = one
        for r, pc in enumerate(pivots):
            coeff = rref.entries[r][free]
            if coeff:
                v[pc] = -coeff
        basis.append(v)
    return basis


@dataclass(frozen=True)
class GradedSubspace:
    """A subspace of degree-k forms, as an echelonized basis.

    basis is in reduced row echelon form with columns indexed by
    monomial_basis(M, k), or by its standard monomials for a subspace of the
    quotient by an ideal; dim equals the number of basis rows.
    """

    basis: ExactMatrix
    pivot_cols: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def field(self) -> str:
        return self.basis.field

    @classmethod
    def from_rows(cls, rows, *, cols: int, field: str) -> "GradedSubspace":
        if not rows:
            return cls(ExactMatrix(0, cols, field, [], _raw=True), ())
        m = ExactMatrix.from_rows(rows, cols, field)
        rank, rref, pivots = row_reduce(m)
        trimmed = ExactMatrix(rank, cols, field, rref.entries[:rank], _raw=True)
        return cls(trimmed, tuple(pivots))


def preimage_of_subspace(images, U: Echelon) -> GradedSubspace:
    """The subspace {g : sum_j g_j * images[j] in U}, echelonized in source
    coordinates, where images[j] is the image of source basis vector j.

    The remainder against U (`Echelon.remainder`) is linear with kernel
    exactly U, so the combination lies in U exactly when the remainders of
    the images, weighted by g, sum to zero: the preimage is the kernel of the
    matrix whose columns are those remainders.  They are not rescaled, since
    scaling a column would scale the kernel's entry there.

    That matrix takes the remainders in reverse order.  Its kernel vector
    for a free column f has a 1 at f and nonzeros only at pivot columns left
    of f.  Reversed, and listed in reverse order, these vectors are in
    echelon form with their leading 1s at the reversed free columns, and each
    is zero at every other leading column.  That is the preimage's reduced
    echelon form, which is unique, so it is not reduced again.  Its pivots
    are the j at which image j is, modulo U, a combination of the images
    after it; the other j index a basis of the images modulo U.
    """
    if any(len(v) != U.cols for v in images):
        raise DimensionMismatch("map target does not match subspace ambient space")
    rems = [U.remainder(v) for v in reversed(images)]
    # Zero rows (U's pivot coordinates among them) constrain nothing.
    rows = [list(row) for row in zip(*rems) if any(row)]
    reduced = ExactMatrix(len(rows), len(images), U.field, rows, _raw=True)
    basis = [v[::-1] for v in reversed(kernel(reduced))]
    pivots = tuple(next(j for j, x in enumerate(v) if x) for v in basis)
    return GradedSubspace(ExactMatrix(len(basis), len(images), U.field, basis, _raw=True),
                          pivots)


def solve_row_combinations(A: ExactMatrix, targets: list[list]) -> list[list | None]:
    """For each target v, exact x with x . A = v, or None when v is outside the rowspace.

    One `Echelon` takes the rows of [A^T | targets], one per column of A.  A
    reduced row whose pivot lies in the target block is zero on A^T, so it
    is nonzero only in the columns of targets outside the row space: a
    target is None exactly when such a row is nonzero in its column.  The
    other targets are read from the rows whose pivot j is below A.rows: x_j
    is that row's entry in the target's column divided by its pivot entry,
    which is the RREF's entry there, and every other x_j is 0.  Only those
    entries are divided, not the whole RREF (`Echelon.reduced`), so over Q
    no Fraction is made for a column that no answer reads.
    """
    for v in targets:
        if len(v) != A.cols:
            raise DimensionMismatch("target length does not match matrix columns")
    span = Echelon(A.field, A.rows + len(targets))
    for i in range(A.cols):
        span.insert([row[i] for row in A.entries] + [v[i] for v in targets])
    integer = A.field == RATIONAL
    zero = field_zero(A.field)
    results: list[list | None] = []
    for col in range(A.rows, A.rows + len(targets)):
        x = [zero] * A.rows
        for c, row, _ in span.rows:
            v = row[col]
            if not v:
                continue
            if c >= A.rows:
                x = None
                break
            if integer:
                p = row[c]
                v = v // p if not v % p else Fraction(v, p)
            x[c] = v
        results.append(x)
    return results
