"""Exact dense linear algebra over Q and Q(z).

Row reduction, kernels, reduction of vectors against an echelon basis, and
preimages of subspaces under linear maps.  All arithmetic is exact; pivots are
fully normalized (reduced row echelon form) and chosen deterministically as
the first nonzero entry in column order, so echelon bases and coset
representatives are reproducible.

A preimage {g : sum_j g_j * images[j] in U} is read off one reduction: each
image is reduced against U's echelon basis, and the preimage is the kernel of
the matrix whose columns are the reduced images.

Over Q the reduction runs on integers: each row is replaced by its primitive
integer multiple and Gauss-Jordan proceeds fraction-free, dividing each pivot
row by its pivot only at the end, so the reduced rows hold ints where the
pivot divides an entry and Fractions elsewhere (see `_rref_integer`).  Over
Q(z) it runs on the field elements and keeps sparse rows sparse; integer
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
from operator import attrgetter

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


def _rref_rows(grid: list[list], cols: int, field: str, pivot_limit: int | None = None):
    """In-place reduced row echelon form on a list-of-lists grid over `field`.

    Returns (rank, pivot_cols).  Pivots are taken in column order, each from
    the first row at or below the rank with a nonzero entry there; the pivot
    rows come out normalized (pivot 1) and every other row is zero in the
    pivot columns.  When pivot_limit is given, pivots are only sought in
    columns below it and the remaining columns ride along as right-hand
    sides; otherwise the rows past the rank are zero.
    """
    if field == RATIONAL:
        return _rref_integer(grid, cols, pivot_limit)
    return _rref_sparse(grid, cols, field_one(field), pivot_limit)


_denominator = attrgetter("denominator")


def _integer_row(row: list) -> list[int]:
    """The primitive integer row on the same line as a row of ints and Fractions."""
    if Fraction in set(map(type, row)):
        m = math.lcm(*map(_denominator, row))
        row = [v.numerator * (m // v.denominator) for v in row]
    g = math.gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _rref_integer(grid: list[list], cols: int, pivot_limit: int | None):
    """`_rref_rows` over Q by integer-preserving Gauss-Jordan.

    Each row is first replaced by its primitive integer multiple.  Clearing
    column c against the pivot row (pivot p > 0) takes a row with entry f to
    (p/g)*row - (f/g)*pivot_row, g = gcd(p, f), and divides the result by its
    content, so every row stays a primitive integer multiple of the row that
    Gauss-Jordan over Q holds at the same step (Bareiss, Math. Comp. 22
    (1968), with content removal in place of Sylvester's identity).  The zero
    patterns agree, so the pivots, the row swaps and the rank do too; only at
    the end is each pivot row divided by its pivot, giving int entries where
    the pivot divides them and Fractions elsewhere.  With pivot_limit, the
    rows past the rank keep their primitive integer right-hand sides.
    """
    rows = len(grid)
    for i in range(rows):
        grid[i] = _integer_row(grid[i])
    pivot_cols: list[int] = []
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
        p = prow[c]
        if p < 0:
            prow = grid[r] = [-v for v in prow]
            p = -p
        support = [j for j in range(c, cols) if prow[j]]
        for i in range(rows):
            if i == r:
                continue
            row = grid[i]
            f = row[c]
            if f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    row = [a * v for v in row]
                for j in support:
                    row[j] -= b * prow[j]
                g = math.gcd(*row)
                grid[i] = row if g < 2 else [v // g for v in row]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for k, c in enumerate(pivot_cols):
        row = grid[k]
        p = row[c]
        if p != 1:
            grid[k] = [v // p if v % p == 0 else Fraction(v, p) for v in row]
    return r, pivot_cols


def _rref_sparse(grid: list[list], cols: int, one, pivot_limit: int | None):
    """`_rref_rows` over Q(z) by Gauss-Jordan on the field elements.

    Each pivot row is normalized as soon as it is found, and the elimination
    iterates only over its nonzero columns, which keeps sparse
    Macaulay-style systems fast.
    """
    rows = len(grid)
    pivot_cols: list[int] = []
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


def row_reduce(m: ExactMatrix) -> tuple[int, ExactMatrix, list[int]]:
    """Reduced row echelon form with rank and pivot columns; exact throughout."""
    grid = [row[:] for row in m.entries]
    rank, pivots = _rref_rows(grid, m.cols, m.field)
    return rank, ExactMatrix(m.rows, m.cols, m.field, grid, _raw=True), pivots


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

    def reduce_vector(self, v: list) -> tuple[list, list]:
        """Reduce v against the echelon basis; returns (remainder, coords)."""
        if len(v) != self.basis.cols:
            raise DimensionMismatch("vector length does not match ambient dimension")
        rem = list(v)
        coords = []
        for r, pc in enumerate(self.pivot_cols):
            f = rem[pc]
            coords.append(f)
            if f:
                row = self.basis.entries[r]
                for j in range(pc, len(rem)):
                    if row[j]:
                        rem[j] = rem[j] - f * row[j]
        return rem, coords

    def contains(self, v: list) -> bool:
        rem, _ = self.reduce_vector(v)
        return not any(rem)

    def extended_with(self, rows) -> "GradedSubspace":
        """Subspace spanned by this basis together with extra row vectors."""
        if not rows:
            return self
        stacked = self.basis.entries + list(rows)
        return GradedSubspace.from_rows(stacked, cols=self.basis.cols, field=self.field)


def preimage_of_subspace(images, U: GradedSubspace) -> GradedSubspace:
    """The subspace {g : sum_j g_j * images[j] in U}, echelonized in source
    coordinates, where images[j] is the image of source basis vector j.

    Reduction against U's echelon basis is linear with kernel exactly U, so
    the combination lies in U exactly when the reduced images, weighted by g,
    sum to zero: the preimage is the kernel of the matrix whose columns are
    the reduced images.
    """
    if any(len(v) != U.basis.cols for v in images):
        raise DimensionMismatch("map target does not match subspace ambient space")
    rems = [U.reduce_vector(v)[0] for v in images]
    # Zero rows (U's pivot coordinates among them) constrain nothing.
    rows = [list(row) for row in zip(*rems) if any(row)]
    reduced = ExactMatrix(len(rows), len(images), U.field, rows, _raw=True)
    return GradedSubspace.from_rows(kernel(reduced), cols=len(images), field=U.field)


def solve_row_combinations(A: ExactMatrix, targets: list[list]) -> list[list | None]:
    """For each target v, exact x with x . A = v, or None when v is outside the rowspace.

    All targets are solved against one elimination of A^T augmented with the
    target columns; pivots are restricted to the coefficient block so the
    right-hand sides never interfere with each other.
    """
    for v in targets:
        if len(v) != A.cols:
            raise DimensionMismatch("target length does not match matrix columns")
    # The augmented grid [A^T | targets]: one row per column of A.
    grid = [[row[i] for row in A.entries] + [v[i] for v in targets]
            for i in range(A.cols)]
    rank, pivots = _rref_rows(grid, A.rows + len(targets), A.field,
                              pivot_limit=A.rows)
    zero = field_zero(A.field)
    results: list[list | None] = []
    for k in range(len(targets)):
        col = A.rows + k
        # Rows past the rank have a zero coefficient block; any leftover RHS
        # entry there means this target is outside the rowspace.
        if any(grid[r][col] for r in range(rank, A.cols)):
            results.append(None)
            continue
        x = [zero] * A.rows
        for r, pc in enumerate(pivots):
            x[pc] = grid[r][col]
        results.append(x)
    return results
