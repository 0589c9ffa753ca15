import math
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
    monomial_basis,
)
from nevlab.linear import (
    DimensionMismatch,
    ExactMatrix,
    GradedSubspace,
    _rref_rows,
    kernel,
    preimage_of_subspace,
    row_reduce,
    solve_row_combinations,
)

from helpers import (
    conic_ideal,
    full_subspace,
    matvec,
    rand_fraction,
    rand_rational_function,
    reference_rref_rows,
)


def _mat(rows, field=RATIONAL):
    return ExactMatrix.from_rows(rows, len(rows[0]), field)


def _columns(rows):
    """The columns of a grid given by its rows."""
    return [list(col) for col in zip(*rows)]


def _poly_row(p, k):
    basis = monomial_basis(p.nvars - 1, k)
    return p.coefficient_vector(basis)


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
    """The Q path of `_rref_rows` against Gauss-Jordan on Fractions."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_q_grids())
    def test_matches_fraction_reference(self, case):
        rows, cols, pivot_limit = case
        want = [[Fraction(v) for v in row] for row in rows]
        got = [list(row) for row in rows]
        rank, pivots = reference_rref_rows(want, cols, pivot_limit)
        assert _rref_rows(got, cols, RATIONAL, pivot_limit) == (rank, pivots)
        assert got[:rank] == want[:rank]
        _assert_q_entries(got)
        # Past the rank: zero rows, or with a right-hand-side block the
        # primitive integer row on the same line as the reference's.
        for g, w in zip(got[rank:], want[rank:]):
            assert all(type(v) is int for v in g) and math.gcd(*g) <= 1
            assert [bool(v) for v in g] == [bool(v) for v in w]
            k = next((j for j, v in enumerate(g) if v), None)
            if k is not None:
                assert all(gj * w[k] == wj * g[k] for gj, wj in zip(g, w))

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
        assert (rank, pivots) == reference_rref_rows(want, cols)
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
                assert reference_rref_rows(grown, cols)[0] > rank
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
        assert S.contains([Fraction(1), Fraction(-1), Fraction(0)])

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
    def test_first_basis_row(self):
        S = GradedSubspace.from_rows([[1, 2, 0], [0, 0, 1]], cols=3, field=RATIONAL)
        rem, coords = S.reduce_vector([Fraction(1), Fraction(2), Fraction(0)])
        assert not any(rem) and coords == [Fraction(1), Fraction(0)]

    def test_outside_witness(self):
        S = GradedSubspace.from_rows([[1, 0, 0]], cols=3, field=RATIONAL)
        rem, _ = S.reduce_vector([Fraction(0), Fraction(1), Fraction(0)])
        assert any(rem)

    def test_conic_degree_two_combination(self):
        # x1^2 = (x0x2) - (x0x2 - x1^2): member of span{g, x0x2}.
        J = conic_ideal()
        g = J.generators[0]
        x0x2 = MultiPoly.variable(3, 0) * MultiPoly.variable(3, 2)
        rows = [_poly_row(g, 2), _poly_row(x0x2, 2)]
        S = GradedSubspace.from_rows(rows, cols=6, field=RATIONAL)
        x1sq = MultiPoly.variable(3, 1) ** 2
        assert S.contains(_poly_row(x1sq, 2))

    def test_certificate_reproduces_vector(self):
        rng = random.Random(9)
        rows = [[rand_fraction(rng) for _ in range(5)] for _ in range(3)]
        S = GradedSubspace.from_rows(rows, cols=5, field=RATIONAL)
        # Build a random element of the span and recover it from the coords.
        cs = [rand_fraction(rng) for _ in range(S.dim)]
        v = [sum(c * S.basis.entries[i][j] for i, c in enumerate(cs))
             for j in range(5)]
        rem, coords = S.reduce_vector(v)
        assert not any(rem)
        rebuilt = [sum(c * S.basis.entries[i][j] for i, c in enumerate(coords))
                   for j in range(5)]
        assert rebuilt == v

    def test_dimension_mismatch(self):
        S = GradedSubspace.from_rows([[1, 0]], cols=2, field=RATIONAL)
        with pytest.raises(DimensionMismatch):
            S.reduce_vector([Fraction(1)])


def _mult_by_x0_images():
    """Multiplication by x0 from binary degree-2 forms into degree-3 forms:
    the image of each degree-2 monomial."""
    src = monomial_basis(1, 2)
    dst = monomial_basis(1, 3)
    return [[Fraction(int(f == (e[0] + 1, e[1]))) for f in dst] for e in src]


class TestPreimage:
    def test_identity_into_whole_space(self):
        U = full_subspace(2, RATIONAL)
        W = preimage_of_subspace([[1, 0], [0, 1]], U)
        assert W.dim == 2

    def test_identity_into_zero(self):
        U = GradedSubspace.from_rows([], cols=2, field=RATIONAL)
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
        U = GradedSubspace.from_rows(rows, cols=4, field=RATIONAL)
        W = preimage_of_subspace(_mult_by_x0_images(), U)
        assert W.dim == 2
        src = monomial_basis(1, 2)
        x0x1 = [Fraction(1) if e == (1, 1) else Fraction(0) for e in src]
        x1sq = [Fraction(1) if e == (0, 2) else Fraction(0) for e in src]
        x0sq = [Fraction(1) if e == (2, 0) else Fraction(0) for e in src]
        assert W.contains(x0x1)
        assert W.contains(x1sq)
        assert not W.contains(x0sq)

    @pytest.mark.parametrize("field", [RATIONAL, RATIONAL_FUNCTION])
    def test_preimage_characterization_randomized(self, field):
        # gamma in result <=> L gamma in U, on small random systems; and the
        # rank-nullity count dim W = src - dim((U + image L) / U).
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
            U = GradedSubspace.from_rows(u_rows, cols=dst_dim, field=field)
            images = _columns(L.entries)
            W = preimage_of_subspace(images, U)
            # every basis vector of W maps into U
            for row in W.basis.entries:
                assert U.contains(matvec(L, row))
            assert W.dim == src_dim - (U.extended_with(images).dim
                                       - U.dim)
            # random vectors agree with the membership characterization
            for _ in range(8):
                v = [entry() for _ in range(src_dim)]
                lhs = W.contains(v)
                rhs = U.contains(matvec(L, v))
                assert lhs == rhs


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
