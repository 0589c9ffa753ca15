import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevlab.algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    FieldMismatch,
    MultiPoly,
    RationalFunction,
    field_zero,
    monomial_basis,
)
from nevlab.linear import (
    DimensionMismatch,
    Echelon,
    ExactMatrix,
    GradedSubspace,
    kernel,
    preimage_of_subspace,
    row_reduce,
    solve_row_combinations,
)

from helpers import (
    coefficient_vector,
    conic_ideal,
    contains,
    full_subspace,
    matvec,
    rand_fraction,
    rand_rational_function,
    reduce_vector,
    reference_extended_with,
    reference_kernel,
    reference_one,
    reference_preimage_of_subspace,
    reference_rref_rows,
    reference_solve_row_combinations,
    reference_subspace,
)


def _mat(rows, field=RATIONAL):
    return ExactMatrix.from_rows(rows, len(rows[0]), field)


def _columns(rows):
    """The columns of a grid given by its rows."""
    return [list(col) for col in zip(*rows)]


def _poly_row(p, k):
    basis = monomial_basis(p.nvars - 1, k)
    return coefficient_vector(p, basis)


class TestRowReduce:
    def test_identity(self):
        rank, rref, pivots = row_reduce(_mat([[1, 0], [0, 1]]))
        assert rank == 2 and pivots == [0, 1]

    def test_dependent_rows(self):
        rank, _, _ = row_reduce(_mat([[1, 2], [2, 4]]))
        assert rank == 1

    def test_q_refuses_nonconstant_entry(self):
        with pytest.raises(FieldMismatch, match="nonconstant z"):
            ExactMatrix.from_rows([[RationalFunction.z()]], 1, RATIONAL)
        m = ExactMatrix.from_rows([[RationalFunction.from_fraction(Fraction(6, 3))]],
                                  1, RATIONAL)
        assert m.entries == [[2]] and type(m.entries[0][0]) is int

    def test_conic_macaulay_degree_three(self):
        # Multiples of x0x2 - x1^2 by the 3 linear monomials: rank 3 because
        # the three rows have the distinct leading monomials x0^2x2, x0x1x2,
        # x0x2^2 (hand check).
        J = conic_ideal()
        g = J.generators[0]
        x = [MultiPoly.variable(3, i) for i in range(3)]
        rows = [_poly_row(xi * g, 3) for xi in x]
        rank, _, _ = row_reduce(_mat(rows))
        assert rank == 3
        assert len(rows[0]) == 10

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(23)
        for _ in range(20):
            rows = [[rand_fraction(rng) for _ in range(rng.randint(1, 5))]]
            cols = len(rows[0])
            for _ in range(rng.randint(0, 4)):
                rows.append([rand_fraction(rng) for _ in range(cols)])
            assert row_reduce(_mat(rows))[0] == row_reduce(_mat(_columns(rows)))[0]

    def test_rational_function_demotion_matches_generic(self):
        # A constant-entry Q(z) matrix reduces to the lift of its Q reduction.
        rowsq = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        rowsz = [[RationalFunction.from_fraction(v) for v in row] for row in rowsq]
        rank_q, rref_q, piv_q = row_reduce(_mat(rowsq))
        rank_z, rref_z, piv_z = row_reduce(_mat(rowsz, RATIONAL_FUNCTION))
        assert rank_q == rank_z and piv_q == piv_z
        for i in range(2):
            for j in range(2):
                assert rref_z.entries[i][j].constant_value() == rref_q.entries[i][j]

    def test_moving_entries(self):
        z = RationalFunction.z()
        one = RationalFunction.from_fraction(1)
        m = _mat([[one, z], [z, z * z]], RATIONAL_FUNCTION)
        assert row_reduce(m)[0] == 1  # second row is z times the first


# Q entries as callers hand them over: ints, integral and non-integral
# Fractions, with zeros common enough to leave whole columns empty.
_Q_ENTRY = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.integers(-10 ** 12, 10 ** 12),
)


@st.composite
def _q_grids(draw):
    """(rows, cols, pivot_limit): a random Q grid with zero rows and rows that
    combine earlier ones inserted, and sometimes a right-hand-side block."""
    cols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_Q_ENTRY, min_size=cols, max_size=cols),
                         max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_Q_ENTRY), draw(_Q_ENTRY)
            extra = [s * x + t * y for x, y in zip(a, b)]
        else:
            extra = [0] * cols
        rows.insert(draw(st.integers(0, len(rows))), extra)
    pivot_limit = draw(st.one_of(st.none(), st.integers(0, cols)))
    return rows, cols, pivot_limit


def _assert_q_entries(grid):
    """Every entry is an int or a non-integral Fraction; never a float."""
    for row in grid:
        for v in row:
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


class TestIntegerElimination:
    """`row_reduce` and `solve_row_combinations` over Q against Gauss-Jordan
    on Fractions."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_q_grids())
    def test_matches_fraction_reference(self, case):
        rows, cols, pivot_limit = case
        want = [[Fraction(v) for v in row] for row in rows]
        rank, pivots = reference_rref_rows(want, cols, Fraction(1))
        got_rank, rref, got_pivots = row_reduce(ExactMatrix.from_rows(rows, cols, RATIONAL))
        assert (got_rank, got_pivots) == (rank, pivots)
        assert (rref.rows, rref.cols) == (len(rows), cols)
        assert rref.entries[:rank] == want[:rank]
        assert not any(v for row in rref.entries[rank:] for v in row)
        _assert_q_entries(rref.entries)
        if pivot_limit is None:
            return
        # The grid as [A^T | targets]: A^T is its first pivot_limit columns,
        # and each later column is a target.  A target is None exactly where
        # the reference, pivoting only in the A^T block, leaves a nonzero
        # right-hand side past its rank.
        columns = [[row[j] for row in rows] for j in range(cols)]
        A = ExactMatrix.from_rows(columns[:pivot_limit], len(rows), RATIONAL)
        targets = columns[pivot_limit:]
        sols = solve_row_combinations(A, targets)
        assert sols == reference_solve_row_combinations(A, targets)
        _assert_q_entries([x for x in sols if x is not None])

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_q_grids())
    def test_public_results_are_exact(self, case):
        rows, cols, _ = case
        if len(rows) < 2:
            return
        half = len(rows) // 2
        A, targets = _mat(rows[:half]), rows[half:]
        rank, rref, pivots = row_reduce(A)
        want = [[Fraction(v) for v in row] for row in rows[:half]]
        assert (rank, pivots) == reference_rref_rows(want, cols, Fraction(1))
        assert rref.entries == want
        null = kernel(_mat(rows))
        S = GradedSubspace.from_rows(rows, cols=cols, field=RATIONAL)
        sols = solve_row_combinations(A, targets)
        for grid in (rref.entries, null, S.basis.entries,
                     [x for x in sols if x is not None]):
            _assert_q_entries(grid)
        for v in null:
            assert not any(matvec(_mat(rows), v))
        for v, x in zip(targets, sols):
            if x is None:
                grown = [row[:] for row in want] + [[Fraction(c) for c in v]]
                assert reference_rref_rows(grown, cols, Fraction(1))[0] > rank
            else:
                assert [sum(xi * row[j] for xi, row in zip(x, A.entries))
                        for j in range(cols)] == v


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel(_mat([[1, 0], [0, 1]])) == []

    def test_zero_matrix(self):
        m = ExactMatrix(2, 3, RATIONAL)
        basis = kernel(m)
        assert len(basis) == 3

    def test_single_constraint(self):
        basis = kernel(_mat([[1, 1, 0]]))
        assert len(basis) == 2
        # (1, -1, 0) lies in the kernel span: reduce it against the basis.
        S = GradedSubspace.from_rows(basis, cols=3, field=RATIONAL)
        assert contains(S, [Fraction(1), Fraction(-1), Fraction(0)])

    def test_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(20):
            rows = [[rand_fraction(rng) for _ in range(rng.randint(1, 6))]]
            cols = len(rows[0])
            for _ in range(rng.randint(0, 5)):
                rows.append([rand_fraction(rng) for _ in range(cols)])
            m = _mat(rows)
            rank, _, _ = row_reduce(m)
            null = kernel(m)
            assert rank + len(null) == cols
            for v in null:
                assert not any(matvec(m, v))


class TestMembership:
    """`helpers.reduce_vector` and `helpers.contains`, on which the oracles
    rest."""

    def test_first_basis_row(self):
        S = GradedSubspace.from_rows([[1, 2, 0], [0, 0, 1]], cols=3, field=RATIONAL)
        rem, coords = reduce_vector(S, [Fraction(1), Fraction(2), Fraction(0)])
        assert not any(rem) and coords == [Fraction(1), Fraction(0)]

    def test_outside_witness(self):
        S = GradedSubspace.from_rows([[1, 0, 0]], cols=3, field=RATIONAL)
        rem, _ = reduce_vector(S, [Fraction(0), Fraction(1), Fraction(0)])
        assert any(rem)

    def test_conic_degree_two_combination(self):
        # x1^2 = (x0x2) - (x0x2 - x1^2): member of span{g, x0x2}.
        J = conic_ideal()
        g = J.generators[0]
        x0x2 = MultiPoly.variable(3, 0) * MultiPoly.variable(3, 2)
        rows = [_poly_row(g, 2), _poly_row(x0x2, 2)]
        S = GradedSubspace.from_rows(rows, cols=6, field=RATIONAL)
        x1sq = MultiPoly.variable(3, 1) ** 2
        assert contains(S, _poly_row(x1sq, 2))

    def test_certificate_reproduces_vector(self):
        rng = random.Random(9)
        rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(3)]
        S = GradedSubspace.from_rows(rows, cols=5, field=RATIONAL)
        # Build a random element of the span and recover it from the coords.
        cs = [rand_fraction(rng) for _ in range(S.dim)]
        v = [sum(c * S.basis.entries[i][j] for i, c in enumerate(cs))
             for j in range(5)]
        rem, coords = reduce_vector(S, v)
        assert not any(rem)
        rebuilt = [sum(c * S.basis.entries[i][j] for i, c in enumerate(coords))
                   for j in range(5)]
        assert rebuilt == v

    def test_dimension_mismatch(self):
        S = GradedSubspace.from_rows([[1, 0]], cols=2, field=RATIONAL)
        with pytest.raises(DimensionMismatch):
            reduce_vector(S, [Fraction(1)])


def _echelon(rows, cols, field=RATIONAL):
    """An `Echelon` of `cols`-vectors grown by `rows`."""
    U = Echelon(field, cols)
    for row in rows:
        U.insert(row)
    return U


def _mult_by_x0_images():
    """Multiplication by x0 from binary degree-2 forms into degree-3 forms:
    the image of each degree-2 monomial."""
    src = monomial_basis(1, 2)
    dst = monomial_basis(1, 3)
    return [[Fraction(int(f == (e[0] + 1, e[1]))) for f in dst] for e in src]


class TestPreimage:
    def test_identity_into_whole_space(self):
        U = _echelon(full_subspace(2, RATIONAL).basis.entries, 2)
        W = preimage_of_subspace([[1, 0], [0, 1]], U)
        assert W.dim == 2

    def test_identity_into_zero(self):
        U = Echelon(RATIONAL, 2)
        W = preimage_of_subspace([[1, 0], [0, 1]], U)
        assert W.dim == 0

    def test_multiplication_by_x0_preimage(self):
        # x0*(degree-2 binary forms) landing in span{x0^2 x1, x0 x1^2}:
        # exactly the multiples of x1, i.e. span{x0x1, x1^2} (hand check:
        # x0 * x0x1 = x0^2x1, x0 * x1^2 = x0x1^2, while x0 * x0^2 = x0^3
        # falls outside).
        dst = monomial_basis(1, 3)
        index = {e: i for i, e in enumerate(dst)}
        rows = []
        for mono in ((2, 1), (1, 2)):
            row = [Fraction(0)] * len(dst)
            row[index[mono]] = Fraction(1)
            rows.append(row)
        U = _echelon(rows, 4)
        W = preimage_of_subspace(_mult_by_x0_images(), U)
        assert W.dim == 2
        src = monomial_basis(1, 2)
        x0x1 = [Fraction(1) if e == (1, 1) else Fraction(0) for e in src]
        x1sq = [Fraction(1) if e == (0, 2) else Fraction(0) for e in src]
        x0sq = [Fraction(1) if e == (2, 0) else Fraction(0) for e in src]
        assert contains(W, x0x1)
        assert contains(W, x1sq)
        assert not contains(W, x0sq)

    @pytest.mark.parametrize("field", [RATIONAL, RATIONAL_FUNCTION])
    def test_preimage_characterization_randomized(self, field):
        # gamma in result <=> L gamma in U, on small random systems; and the
        # rank-nullity count dim W = src - dim((U + image L) / U), the number
        # of images that U accepts as new.
        rng = random.Random(31)

        def entry():
            if field == RATIONAL:
                return rand_fraction(rng, 3)
            return rand_rational_function(rng, 1, 3)

        for _ in range(15):
            src_dim = rng.randint(1, 5)
            dst_dim = rng.randint(1, 5)
            L = ExactMatrix(dst_dim, src_dim, field,
                            [[entry() for _ in range(src_dim)]
                             for _ in range(dst_dim)])
            u_rows = [[entry() for _ in range(dst_dim)]
                      for _ in range(rng.randint(0, dst_dim))]
            U = _echelon(u_rows, dst_dim, field)
            images = _columns(L.entries)
            W = preimage_of_subspace(images, U)
            # every basis vector of W maps into U
            for row in W.basis.entries:
                assert not any(U.remainder(matvec(L, row)))
            # random vectors agree with the membership characterization
            for _ in range(8):
                v = [entry() for _ in range(src_dim)]
                lhs = contains(W, v)
                rhs = not any(U.remainder(matvec(L, v)))
                assert lhs == rhs
            assert W.dim == src_dim - sum(map(U.insert, images))


# Q(z) entries (a + b*z)/(1 + c*z), zero common enough to leave whole
# columns empty.
_QZ_ENTRY = st.one_of(
    st.just(RationalFunction.zero()),
    st.builds(lambda a, b, c: RationalFunction([a, b], [1, c]),
              st.integers(-2, 2), st.integers(-1, 1), st.integers(-1, 1)),
)

_EDGE_CASES = ("random", "empty U", "full U", "images in U", "zero images",
               "no images", "duplicate images", "single source column")


@st.composite
def _subspace_and_images(draw, field, case):
    """(U, images): a subspace of `cols`-vectors and images of source basis
    vectors shaped by `case`.  The sizes (at most 5 columns, 5 images and 5
    rows of U) are bounded for time only."""
    entry = _Q_ENTRY if field == RATIONAL else _QZ_ENTRY
    zero = field_zero(field)
    cols = draw(st.integers(1, 5))
    vectors = st.lists(entry, min_size=cols, max_size=cols)
    if case == "empty U":
        U = reference_subspace([], cols, field)
    elif case == "full U":
        U = full_subspace(cols, field)
    else:
        U = reference_subspace(draw(st.lists(vectors, max_size=5)), cols, field)
    if case in ("no images", "single source column"):
        n = int(case == "single source column")
    else:
        n = draw(st.integers(1, 5))
    if case == "zero images":
        images = [[zero] * cols for _ in range(n)]
    elif case == "images in U":
        coeffs = draw(st.lists(st.lists(entry, min_size=U.dim, max_size=U.dim),
                               min_size=n, max_size=n))
        images = [[sum((c * row[j] for c, row in zip(cs, U.basis.entries)), zero)
                   for j in range(cols)] for cs in coeffs]
    elif case == "duplicate images":
        distinct = draw(st.lists(vectors, min_size=1, max_size=3))
        images = draw(st.permutations(
            distinct + draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=3))))
    else:
        images = draw(st.lists(vectors, min_size=n, max_size=n))
    return U, images


def _assert_same_subspace(got, want):
    assert got.basis.entries == want.basis.entries
    assert got.pivot_cols == want.pivot_cols
    assert (got.basis.rows, got.basis.cols, got.field) == (
        want.basis.rows, want.basis.cols, want.field)


class TestMatchesStackedReduction:
    """The preimage read off the reversed-column kernel, an `Echelon` grown
    row by row and its remainders equal the re-reductions from scratch in
    `tests/helpers.py`; reduced echelon form is unique, so the entries must
    agree exactly."""

    @pytest.mark.parametrize("case", _EDGE_CASES)
    @pytest.mark.parametrize("field", [RATIONAL, RATIONAL_FUNCTION])
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_preimage_and_extension(self, field, case, data):
        U, images = data.draw(_subspace_and_images(field, case))
        echelon = _echelon(U.basis.entries, U.basis.cols, field)
        _assert_same_subspace(preimage_of_subspace(images, echelon),
                              reference_preimage_of_subspace(images, U))
        for v in images:
            echelon.insert(v)
        pivots, rows = echelon.reduced()
        extended = reference_extended_with(U, images)
        assert tuple(pivots) == extended.pivot_cols
        assert rows == extended.basis.entries
        if field == RATIONAL:  # primitive integer rows, divided only by `reduced`
            assert all(type(v) is int for _, row, _ in echelon.rows for v in row)
            _assert_q_entries(rows)

    @pytest.mark.parametrize("case", _EDGE_CASES)
    @pytest.mark.parametrize("field", [RATIONAL, RATIONAL_FUNCTION])
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_echelon_remainder(self, field, case, data):
        # The remainder against an Echelon grown by the images' first half
        # and U's basis is the remainder against the RREF of those rows.
        U, images = data.draw(_subspace_and_images(field, case))
        rows = images[:len(images) // 2] + U.basis.entries
        cols = U.basis.cols
        echelon = _echelon(rows, cols, field)
        rref = reference_subspace(rows, cols, field)
        for v in images + U.basis.entries:
            assert echelon.remainder(v) == reduce_vector(rref, v)[0]


class TestSolveRowCombinations:
    def test_round_trip(self):
        rng = random.Random(17)
        rows = [[rand_fraction(rng) for _ in range(4)] for _ in range(3)]
        A = _mat(rows)
        cs = [rand_fraction(rng) for _ in range(3)]
        combo = [sum(cs[i] * rows[i][j] for i in range(3)) for j in range(4)]
        outside = [Fraction(1), Fraction(0), Fraction(0), Fraction(10 ** 6)]
        sols = solve_row_combinations(A, [combo, outside])
        x = sols[0]
        assert x is not None
        rebuilt = [sum(x[i] * rows[i][j] for i in range(3)) for j in range(4)]
        assert rebuilt == combo
        # the second target is (generically) outside the rowspace of 3 rows
        if sols[1] is not None:
            rebuilt2 = [sum(sols[1][i] * rows[i][j] for i in range(3))
                        for j in range(4)]
            assert rebuilt2 == outside


@st.composite
def _qz_systems(draw):
    """(A, targets): a Q(z) matrix of rank below its column count, sometimes
    with a dependent row inserted, and targets of both kinds in a random
    order: combinations of A's rows, and a unit vector at a non-pivot column
    of A's RREF plus such a combination, which lies outside the row space.
    The sizes (at most 5 columns and 5 targets) are bounded for time only."""
    cols = draw(st.integers(2, 5))
    vectors = st.lists(_QZ_ENTRY, min_size=cols, max_size=cols)
    rows = draw(st.lists(vectors, max_size=cols - 1))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(_QZ_ENTRY), draw(_QZ_ENTRY)
        rows.insert(draw(st.integers(0, len(rows))), [s * x + t * y for x, y in zip(a, b)])
    A = ExactMatrix.from_rows(rows, cols, RATIONAL_FUNCTION)
    zero, one = RationalFunction.zero(), reference_one(RATIONAL_FUNCTION)
    _, pivots = reference_rref_rows([row[:] for row in A.entries], cols, one)
    free = [j for j in range(cols) if j not in pivots]

    def combination():
        cs = draw(st.lists(_QZ_ENTRY, min_size=len(rows), max_size=len(rows)))
        return [sum((c * row[j] for c, row in zip(cs, A.entries)), zero)
                for j in range(cols)]

    inside = [combination() for _ in range(draw(st.integers(1, 3)))]
    outside = []
    for _ in range(draw(st.integers(1, 2))):
        v = combination()
        j = draw(st.sampled_from(free))
        v[j] = v[j] + one
        outside.append(v)
    return A, draw(st.permutations(inside + outside))


class TestRationalFunctionElimination:
    """`row_reduce`, `kernel` and `solve_row_combinations` over Q(z) against
    Gauss-Jordan on the field elements; each solve mixes targets inside and
    outside the row space."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_qz_systems())
    def test_matches_reference(self, system):
        A, targets = system
        want = [row[:] for row in A.entries]
        rank, pivots = reference_rref_rows(want, A.cols, reference_one(A.field))
        assert row_reduce(A) == (rank, ExactMatrix(A.rows, A.cols, A.field, want, _raw=True),
                                 pivots)
        assert kernel(A) == reference_kernel(A.entries, A.cols, A.field)
        sols = solve_row_combinations(A, targets)
        assert sols == reference_solve_row_combinations(A, targets)
        assert None in sols and any(x is not None for x in sols)
