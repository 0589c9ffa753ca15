import math
import random
from fractions import Fraction

import pytest

from nevlab.algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    MultiPoly,
    RationalFunction,
    monomial_basis,
)
from nevlab.filtration import (
    BasisDefect,
    DegreeMismatch,
    build_table,
    export_table,
    filtration_basis,
    filtration_space,
    product_decomposition,
    stabilization_scan,
    tuple_norm,
    tuple_sets,
    weighted_sums,
)
from nevlab.gradedgeom import NotStabilized, hilbert_function, specialize_space
from nevlab.linear import ExactMatrix, row_reduce

from helpers import (
    conic_ideal,
    p1_ideal,
    piece_over_qz,
    rand_poly,
    reference_quotient_rows,
    xvar,
)


def _coeff_row(p, k, width_index):
    basis, index = width_index
    row = [RationalFunction.zero()] * len(basis)
    for exp, c in p.over(RATIONAL_FUNCTION).terms.items():
        row[index[exp]] = c
    return row


def _width_index(nvars, k):
    basis = monomial_basis(nvars - 1, k)
    return basis, {e: i for i, e in enumerate(basis)}


def oracle_m(J, Qs, N, I):
    """Independent codimension oracle: m_N^I = rank([U ; Q^I * monomials]) - dim U.

    Uses only Macaulay row construction and row_reduce, not the preimage or
    kernel machinery that filtration_space is built on.
    """
    Qs = [q.over(RATIONAL_FUNCTION) for q in Qs]
    d = Qs[0].degree
    n = len(Qs)
    nvars = J.nvars
    wi = _width_index(nvars, N)
    tau, _ = tuple_sets(N, d, n)
    rows = [row[:] for row in piece_over_qz(J, N).basis.entries]
    for E in tau:
        if E > I:
            QE = MultiPoly.constant(nvars, 1, RATIONAL_FUNCTION)
            for q, e in zip(Qs, E):
                QE = QE * q ** e
            for m in monomial_basis(nvars - 1, N - d * tuple_norm(E)):
                rows.append(_coeff_row(QE.shift(m), N, wi))
    dim_u = row_reduce(ExactMatrix.from_rows([r[:] for r in rows], len(wi[0]),
                                             RATIONAL_FUNCTION))[0] if rows else 0
    QI = MultiPoly.constant(nvars, 1, RATIONAL_FUNCTION)
    for q, e in zip(Qs, I):
        QI = QI * q ** e
    for m in monomial_basis(nvars - 1, N - d * tuple_norm(I)):
        rows.append(_coeff_row(QI.shift(m), N, wi))
    total = row_reduce(ExactMatrix.from_rows(rows, len(wi[0]),
                                             RATIONAL_FUNCTION))[0]
    return total - dim_u


class TestTupleSets:
    def test_line_degree_one(self):
        tau, _ = tuple_sets(3, 1, 1)
        assert tau == [(0,), (1,), (2,), (3,)]
        assert len(tau) == math.comb(3 + 1, 1)

    def test_degree_two(self):
        tau, tau0 = tuple_sets(4, 2, 1, n0=0, kappa=0)
        assert tau == [(0,), (1,), (2,)]
        assert tau0 == set(tau)

    def test_two_slots_count(self):
        tau, _ = tuple_sets(6, 1, 2)
        assert len(tau) == math.comb(8, 2) == 28

    def test_tau0_thresholds(self):
        tau, tau0 = tuple_sets(12, 2, 1, n0=2, kappa=1)
        assert tau0 == {(i,) for i in range(1, 6)}


class TestFiltrationSpace:
    def test_p1_every_cell_is_one(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        for N in range(1, 9):
            for i in range(N + 1):
                cell = filtration_space(J, [x0], N, (i,))
                assert cell.m == 1
                assert cell.m == oracle_m(J, [x0], N, (i,))

    def test_p1_top_cell(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        cell = filtration_space(J, [x0], 5, (5,))
        assert cell.L.dim == 0
        assert cell.m == 1  # the constants survive

    def test_conic_interior_cell(self):
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        cell = filtration_space(J, [q], 12, (3,))
        assert cell.m == 4
        assert oracle_m(J, [q], 12, (3,)) == 4

    def test_negative_budget_rejected(self):
        J = p1_ideal()
        with pytest.raises(DegreeMismatch):
            filtration_space(J, [xvar(0, 2)], 2, (5,))
        # an I without one slot per target lies in no tau_N
        with pytest.raises(DegreeMismatch):
            filtration_space(J, [xvar(0, 2)], 3, (1, 1))

    def test_reps_are_independent_mod_l(self):
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        cell = filtration_space(J, [q], 8, (1,))
        for rep in cell.reps:
            # cell.L lives in the standard coordinates of its source degree
            vec = J.multiples(8 - 2, [rep])[0]
            assert not cell.L.contains(vec)


class TestTables:
    def test_sum_rule_p1(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        for N in range(1, 11):
            table = build_table(J, [x0], N)
            assert table.total_m() == table.hilbert_value == N + 1

    def test_sum_rule_conic(self):
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        for N in (8, 12):
            table = build_table(J, [q], N)
            assert table.total_m() == table.hilbert_value == 2 * N + 1

    def test_moving_conic_target_interior_cells(self):
        # the genuinely moving degree-2 target x2(x2 - z^2 x0) on the conic:
        # interior cells still carry deg V * d^n = 4 and the sum rule holds
        J = conic_ideal()
        z = RationalFunction.z()
        u = [xvar(i, 3, RATIONAL_FUNCTION) for i in range(3)]
        Q = u[2] * u[2] - (u[0] * u[2]).scale(z * z)
        table = build_table(J, [Q], 8, n0=2)
        assert [table.cells[I].m for I in table.tau] == [4, 4, 4, 4, 1]
        assert table.total_m() == table.hilbert_value == 17

    def test_moving_target_table(self):
        # P^1 with the moving line x1 - z*x0: same cell sizes as a fixed line.
        J = p1_ideal()
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        table = build_table(J, [x1 - x0.scale(z)], 4)
        assert [table.cells[I].m for I in table.tau] == [1, 1, 1, 1, 1]
        assert table.total_m() == table.hilbert_value == 5

    def test_remark_ideal_multiples_inside_l(self):
        # Every element of (I(V), Q)_{N - d|I|} lies in L_N^I.
        J = conic_ideal()
        q = (xvar(0) * xvar(0)).over(RATIONAL_FUNCTION)
        table = build_table(J, [q], 8)
        for I in table.tau:
            cell = table.cells[I]
            k = 8 - 2 * tuple_norm(I)
            piece = J.graded_piece(k, extra=[q]) if k >= 2 else J.graded_piece(k)
            for row in reference_quotient_rows(J, k, piece.basis.entries):
                assert cell.L.contains(row)

    def test_remark_multiplying_stays_inside(self):
        # gamma in L_N^I and P homogeneous of degree k: gamma*P in L_{N+k}^I.
        rng = random.Random(13)
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        N, I = 6, (1,)
        cell = filtration_space(J, [q], N, I)
        # cell.L's columns are the standard monomials of degree N - 2
        std_src = J.normal_forms(N - 2)[0]
        for k in (1, 2, 3):
            target = filtration_space(J, [q], N + k, I)
            for _ in range(3):
                if cell.L.dim == 0:
                    break
                coords = [Fraction(rng.randint(-3, 3)) for _ in range(cell.L.dim)]
                gamma_vec = [sum(c * cell.L.basis.entries[i][j]
                                 for i, c in enumerate(coords))
                             for j in range(len(std_src))]
                gamma = MultiPoly(3, RATIONAL_FUNCTION,
                                  {std_src[j]: gamma_vec[j]
                                   for j in range(len(std_src))})
                P = rand_poly(rng, 3, k, RATIONAL, terms=2).over(RATIONAL_FUNCTION)
                prod = gamma * P
                vec = J.multiples(N + k - 2, [prod])[0]
                assert target.L.contains(vec)

    def test_inclusion_chain_componentwise(self):
        # For componentwise I <= I', L_N^I sits inside L_{N + d(|I'|-|I|)}^{I'}.
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        N = 8
        for I, Ip in (((1,), (2,)), ((0,), (1,)), ((2,), (4,))):
            low = filtration_space(J, [q], N, I)
            shift = 2 * (tuple_norm(Ip) - tuple_norm(I))
            high = filtration_space(J, [q], N + shift, Ip)
            for row in low.L.basis.entries:
                assert high.L.contains(list(row))

    def test_specialization_preserves_m(self):
        # The moving-line table over Q(z) matches the fixed table after
        # specializing the target at a good point.
        J = p1_ideal()
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        moving = build_table(J, [x1 - x0.scale(z)], 5)
        fixed = build_table(J, [x1 - x0.scale(7)], 5)
        for I in moving.tau:
            assert moving.cells[I].m == fixed.cells[I].m
            spec = specialize_space(moving.cells[I].L, 7)
            assert spec.dim == moving.cells[I].L.dim


class TestFieldPolicy:
    def test_mixed_constant_and_moving_targets_stay_over_qz(self):
        # P^2 with the fixed line x0 and the moving line x1 - z*x0: one
        # moving target puts the whole table over Q(z), and its cells match
        # the table of a generic specialization.
        from nevlab.gradedgeom import HomogeneousIdeal

        J = HomogeneousIdeal(3, [])
        z = RationalFunction.z()
        x0 = xvar(0, 3, RATIONAL_FUNCTION)
        x1 = xvar(1, 3, RATIONAL_FUNCTION)
        moving = build_table(J, [x0, x1 - x0.scale(z)], 3)
        assert all(q.field == RATIONAL_FUNCTION for q in moving.Qs)
        assert all(cell.L.field == RATIONAL_FUNCTION for cell in moving.cells.values())
        fixed = build_table(J, [xvar(0), xvar(1) - xvar(0).scale(7)], 3)
        assert {I: c.m for I, c in moving.cells.items()} == {
            I: c.m for I, c in fixed.cells.items()}
        assert moving.total_m() == moving.hilbert_value == 10

    def test_constant_targets_tagged_qz_run_over_q(self):
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        qz = q.over(RATIONAL_FUNCTION)
        table = build_table(J, [qz], 8)
        assert table.Qs == [q]
        assert all(cell.L.field == RATIONAL for cell in table.cells.values())
        assert {I: c.m for I, c in table.cells.items()} == {
            I: c.m for I, c in build_table(J, [q], 8).cells.items()}
        assert filtration_space(J, [qz], 8, (1,)).L.field == RATIONAL
        assert stabilization_scan(J, [qz], 8).c == 4


class TestBasis:
    def test_p1_basis_recovered(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        table = build_table(J, [x0], 3)
        products = filtration_basis(table)
        got = {str(p) for p in products}
        assert got == {"x1^3", "x0*x1^2", "x0^2*x1", "x0^3"}

    def test_conic_count(self):
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        table = build_table(J, [q], 4)
        products = filtration_basis(table)
        assert len(products) == hilbert_function(J, 4) == 9

    def test_tampered_table_raises(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        table = build_table(J, [x0], 3)
        table.cells[(0,)].m += 1  # break the count on purpose
        with pytest.raises(BasisDefect):
            filtration_basis(table)


class TestStabilization:
    def test_p1(self):
        scan = stabilization_scan(p1_ideal(), [xvar(0, 2)], 6)
        assert scan.c == 1 and scan.n0 == 0
        assert scan.m_min == 1 and scan.kappa == 0
        assert scan.c_prime >= 1

    def test_conic(self):
        scan = stabilization_scan(conic_ideal(), [xvar(0) * xvar(0)], 8)
        assert scan.c == 4  # deg V * d^n
        assert scan.n0 == 2
        assert scan.m_min == 4 and scan.kappa == 0

    def test_not_stabilized_growing_quotient(self):
        from nevlab.gradedgeom import HomogeneousIdeal

        with pytest.raises(NotStabilized):
            # One conic does not cut P^2 down to dimension zero: the quotient
            # dimensions 2k+1 keep growing, so no window ever settles.
            stabilization_scan(HomogeneousIdeal(3, []), [xvar(1) * xvar(1)], 8)

    def test_lemma_m_equals_degv_dn(self):
        # every cell of the scanned tau0 carries m = deg V * d^n
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        scan = stabilization_scan(J, [q], 8)
        for N in (12, 16):
            table = build_table(J, [q], N, n0=scan.n0, kappa=scan.kappa)
            for I in table.tau0:
                assert table.cells[I].m == 4
            for I in table.tau:
                assert table.cells[I].m <= scan.c_prime


class TestWeightedSums:
    def test_p1_closed_form(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        for N in range(1, 11):
            table = build_table(J, [x0], N)
            ws = weighted_sums(table, deg_v=1)
            assert ws.S[0] == N * (N + 1) // 2
            assert ws.dominated and ws.symmetric and ws.closed_form

    def test_conic_exact_values(self):
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        scan = stabilization_scan(J, [q], 8)
        table = build_table(J, [q], 12, n0=scan.n0, kappa=scan.kappa)
        ws = weighted_sums(table, deg_v=2)
        assert ws.S[0] == 66
        assert ws.S0[0] == 60
        assert ws.closed_form and ws.dominated and ws.symmetric
        # paper-style lower bound with the explicit boundary correction
        N, d, n = 12, 2, 1
        correction = (len(table.tau) - len(table.tau0)) * N // (n * d)
        assert ws.S0[0] >= 2 * d ** n * (math.comb(N // d + n, n + 1) - correction)

    def test_two_cell_degenerate(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        table = build_table(J, [x0], 1)
        assert table.tau == [(0,), (1,)]
        ws = weighted_sums(table, deg_v=1)
        assert ws.S[0] == table.cells[(1,)].m


class TestProductDecomposition:
    def test_p1_hand_computation(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        table = build_table(J, [x0], 3)
        pd = product_decomposition(table)
        assert pd.exponents == [6] and pd.e == 6
        assert pd.degree_p == 6
        assert 1 * pd.exponents[0] + pd.degree_p == 3 * table.hilbert_value
        # residual factors multiply to x1^6
        field = table.Qs[0].field
        prod = MultiPoly.constant(2, 1, field)
        for p, k in pd.p_factors:
            prod = prod * p ** k
        assert prod == (xvar(1, 2) ** 6).over(field)

    def test_conic_exponents_and_ratio(self):
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        expected_E = {8: 28, 12: 66, 16: 120}
        expected_ratio = {8: Fraction(7, 8), 12: Fraction(11, 12),
                          16: Fraction(15, 16)}
        for N in (8, 12, 16):
            table = build_table(J, [q], N, n0=2)
            pd = product_decomposition(table)
            assert pd.exponents == [expected_E[N]]
            ratio = pd.leading_ratio(2, 2, 1)
            assert abs(ratio - float(expected_ratio[N])) < 1e-12
            assert 0.5 <= ratio <= 1.2
            assert 2 * sum(pd.exponents) + sum(
                (rep.degree or 0) for I in table.tau
                for rep in table.cells[I].reps) == N * table.hilbert_value


class TestExport:
    def test_table_rows(self):
        J = p1_ideal()
        table = build_table(J, [xvar(0, 2)], 2, n0=0, kappa=0)
        text = export_table(table)
        lines = text.strip().splitlines()
        assert lines[0] == "I;normI;m;inTau0"
        assert lines[1] == "(0);0;1;1"
        assert lines[-1] == "(2);2;1;1"
