import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
from nevlab.gradedgeom import NotStabilized, hilbert_function
from nevlab import linear
from nevlab.cli import load_problem, normalize_degrees
from nevlab.linear import ExactMatrix, row_reduce

from helpers import (
    conic_ideal,
    contains,
    p1_ideal,
    piece_over_qz,
    rand_poly,
    reference_quotient_rows,
    specialize_space,
    xvar,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# The quadric surface with three moving hyperplanes of CI's "Scale smoke".
QUADRIC_MOVING = """\
[variety]
M = 3
n = 2
x0*x3 - x1*x2

[hypersurfaces]
degree 1: x0 - {z}*x1
degree 1: x3 + {1 + z}*x2
degree 1: x1 + x2

[curve]
1
exp(z)
exp(2*z)
exp(3*z)

[options]
kmax = 8
window = 3
"""


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
                cell = filtration_space(J, [x0], N, (i,))[(i,)]
                assert cell.m == 1
                assert cell.m == oracle_m(J, [x0], N, (i,))

    def test_p1_top_cell(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        cell = filtration_space(J, [x0], 5, (5,))[(5,)]
        assert cell.L.dim == 0
        assert cell.m == 1  # the constants survive

    def test_conic_interior_cell(self):
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        cell = filtration_space(J, [q], 12, (3,))[(3,)]
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
        cell = filtration_space(J, [q], 8, (1,))[(1,)]
        for rep in cell.reps:
            # cell.L lives in the standard coordinates of its source degree
            vec = J.multiples(8 - 2, [rep])[0]
            assert not contains(cell.L, vec)

    def test_cells_eliminate_within_the_quotient(self, monkeypatch):
        # With J's normal forms warm, no span or matrix that build_table
        # eliminates outgrows the H_V(24) = 49 quotient coordinates: each
        # cell reduces its images against U once, and U grows by the cell's
        # rep rows only, never by a re-reduction of its whole basis.  Every
        # elimination is an Echelon: its width and the number of vectors
        # inserted into it are recorded.  The table is certified, so its
        # cells are eliminated when their reps are read.
        spec = load_problem(str(PROBLEMS / "conic_exact.prob"))
        J, N = spec.ideal, 24
        _, Qs = normalize_degrees(spec.hypersurfaces)
        for k in range(N + 1):
            J.normal_forms(k)
        spans, inserted = [], Counter()
        init, insert = linear.Echelon.__init__, linear.Echelon.insert

        def recorded_init(self, field, cols):
            init(self, field, cols)
            spans.append(self)

        def counted_insert(self, v):
            inserted[id(self)] += 1
            return insert(self, v)

        monkeypatch.setattr(linear.Echelon, "__init__", recorded_init)
        monkeypatch.setattr(linear.Echelon, "insert", counted_insert)
        table = build_table(J, Qs[:spec.n], N)
        assert sum(len(cell.reps) for cell in table.cells.values()) == 49
        assert hilbert_function(J, N) == 49
        assert spans and inserted
        assert max(U.cols for U in spans) <= 49 and max(inserted.values()) <= 49

    def test_one_elimination_per_cell(self, monkeypatch):
        # With J's normal forms warm, the 7 cells of conic_exact at N = 12
        # make one row reduction each, their preimage's kernel, and U grows
        # in an Echelon: no subspace is built from rows.  Growing U by
        # re-reduced subspaces took 13 reductions and 7 subspaces.
        spec = load_problem(str(PROBLEMS / "conic_exact.prob"))
        J, N = spec.ideal, 12
        _, Qs = normalize_degrees(spec.hypersurfaces)
        for k in range(N + 1):
            J.normal_forms(k)
        calls = {"row_reduce": 0, "from_rows": 0}
        row_reduce_ = linear.row_reduce
        from_rows = linear.GradedSubspace.from_rows.__func__

        def counted_row_reduce(m):
            calls["row_reduce"] += 1
            return row_reduce_(m)

        def counted_from_rows(cls, *args, **kwargs):
            calls["from_rows"] += 1
            return from_rows(cls, *args, **kwargs)

        monkeypatch.setattr(linear, "row_reduce", counted_row_reduce)
        monkeypatch.setattr(linear.GradedSubspace, "from_rows", classmethod(counted_from_rows))
        cells = filtration_space(J, Qs[:spec.n], N, (0,))
        assert len(cells) == 7
        assert calls == {"row_reduce": 7, "from_rows": 0}


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
                assert contains(cell.L, row)

    def test_remark_multiplying_stays_inside(self):
        # gamma in L_N^I and P homogeneous of degree k: gamma*P in L_{N+k}^I.
        rng = random.Random(13)
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        N, I = 6, (1,)
        cell = filtration_space(J, [q], N, I)[I]
        # cell.L's columns are the standard monomials of degree N - 2
        std_src = J.normal_forms(N - 2)[0]
        for k in (1, 2, 3):
            target = filtration_space(J, [q], N + k, I)[I]
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
                assert contains(target.L, vec)

    def test_inclusion_chain_componentwise(self):
        # For componentwise I <= I', L_N^I sits inside L_{N + d(|I'|-|I|)}^{I'}.
        J = conic_ideal()
        q = xvar(0) * xvar(0)
        N = 8
        for I, Ip in (((1,), (2,)), ((0,), (1,)), ((2,), (4,))):
            low = filtration_space(J, [q], N, I)[I]
            shift = 2 * (tuple_norm(Ip) - tuple_norm(I))
            high = filtration_space(J, [q], N + shift, Ip)[Ip]
            for row in low.L.basis.entries:
                assert contains(high.L, list(row))

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

    def test_table_falls_back_where_the_identity_fails(self, monkeypatch):
        # The late embedded point of TestStabilization: u at z = 0 is
        # 1, 2, 2, ... while h drops to 1 at degree 6, so the identity holds
        # at N <= 5 and fails at N = 6.  There the table is eliminated when
        # it is built, and either way it is the full-coordinate reference's.
        import nevlab.filtration as filt
        from nevlab.cli import parse_polynomial
        from nevlab.gradedgeom import HomogeneousIdeal
        from helpers import reference_build_table

        J = HomogeneousIdeal(3, [parse_polynomial("x0^2", 3), parse_polynomial("x0*x1^5", 3)])
        Qs = [parse_polynomial("x1 + {z}*x2", 3)]
        passes = []
        original = filt.filtration_space

        def recorded(J, Qs, N, I):
            passes.append(N)
            return original(J, Qs, N, I)

        monkeypatch.setattr(filt, "filtration_space", recorded)
        tables = {}
        for N in (6, 5):
            tables[N] = build_table(J, Qs, N)
            assert passes == [6]
        for N, table in tables.items():
            assert {I: (c.m, c.reps) for I, c in table.cells.items()} == \
                reference_build_table(J, Qs, N)
        assert passes == [6, 5]
        assert [tables[6].cells[(i,)].m for i in range(7)] == [1, 2, 2, 2, 2, 2, 1]

    def test_hilbert_reports_the_quadric_degree(self):
        # the quadric surface has degree 2: H_V(k) = (k + 1)^2, whose second
        # difference is 2
        from nevlab import cli

        report = cli.run_command("hilbert", cli.parse_problem(QUADRIC_MOVING), {})
        assert (report.results["n"], report.results["degV"]) == (2, 2)

    def test_product_leading_ratio_on_the_quadric_tends_to_one(self):
        # fixed targets x0 and x3 on the quadric: e = (N-1)N(N+1)/3 + N(N+1)/2
        # against the prediction deg V * N^3 / 3! = N^3/3, so the ratio is
        # 3e/N^3 and falls toward 1.  With deg V off by n! = 2 it would tend
        # to 1/2
        from nevlab import cli

        spec = cli.parse_problem(QUADRIC_MOVING.replace(
            "degree 1: x0 - {z}*x1\ndegree 1: x3 + {1 + z}*x2\ndegree 1: x1 + x2",
            "degree 1: x0\ndegree 1: x3"))
        ratios = []
        for N in (4, 6, 8, 10):
            results = cli.run_command("product", spec, {"N": N}).results
            e = (N - 1) * N * (N + 1) // 3 + N * (N + 1) // 2
            assert results["e"] == e
            assert results["leading_ratio"] == pytest.approx(3 * e / N ** 3, rel=1e-12)
            ratios.append(results["leading_ratio"])
        assert ratios == pytest.approx([1.40625, 1.2639, 1.1953, 1.155], abs=1e-4)

    @pytest.mark.parametrize("command", ["filtration", "basis"])
    def test_certified_table_work(self, command, monkeypatch):
        # On the CI quadric with moving targets, `filtration` reads every m
        # off the Hilbert function at z = a: no filtration_space pass, no
        # Q(z) Echelon and no polynomial gcd.  `basis` reads the reps, which
        # takes exactly one filtration_space pass for the whole table.
        import nevlab.algebra as algebra
        import nevlab.filtration as filt
        import nevlab.gradedgeom as gg
        from nevlab import cli

        spec = cli.parse_problem(QUADRIC_MOVING)
        passes, fields, gcds = [], [], []
        original, gcd = filt.filtration_space, algebra._gcd

        def recorded(*args):
            passes.append(args[2])
            return original(*args)

        class Recorded(linear.Echelon):
            def __init__(self, field, cols):
                super().__init__(field, cols)
                fields.append(field)

        def counted(a, b):
            gcds.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(filt, "filtration_space", recorded)
        for module in (filt, gg, linear):
            monkeypatch.setattr(module, "Echelon", Recorded)
        monkeypatch.setattr(algebra, "_gcd", counted)
        report = cli.run_command(command, spec, {"N": 6})
        assert report.results["hilbert_value"] == 49
        if command == "filtration":
            assert report.results["sum_m"] == 49
            assert passes == [] and gcds == []
            assert fields and RATIONAL_FUNCTION not in fields
        else:
            assert report.results["basis_count"] == 49
            assert passes == [6]


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
        assert filtration_space(J, [qz], 8, (1,))[(1,)].L.field == RATIONAL
        assert stabilization_scan(J, [qz], 8).c == 4

    def test_u_over_q_holds_ints_where_integral(self, monkeypatch):
        # Over Q, filtration_space grows U in an Echelon of primitive
        # integer rows, so every entry is an int at every step, although U's
        # RREF has Fractions on the way.  Two fixed lines in P^2 at N = 5
        # once grew U by re-reductions whose old rows kept 1203 of their
        # 4410 entries as Fraction(k, 1).  The table is certified, so U is
        # grown when the reps are read.
        import nevlab.filtration as filt
        from nevlab.gradedgeom import HomogeneousIdeal

        grown = []

        class Recorded(linear.Echelon):
            def insert(self, v):
                new = super().insert(v)
                grown.append((self.field, [(c, row[:]) for c, row, _ in self.rows]))
                return new

        monkeypatch.setattr(filt, "Echelon", Recorded)
        x0, x1, x2 = (xvar(i) for i in range(3))
        table = build_table(HomogeneousIdeal(3, []),
                            [x0 + x1.scale(2) - x2, x0.scale(2) - x1 + x2], 5)
        assert table.cells[(0, 0)].reps
        rows = [(c, row) for _, U in grown for c, row in U]
        assert grown and all(field == RATIONAL for field, _ in grown)
        assert all(type(v) is int for _, row in rows for v in row)
        assert any(v % row[c] for c, row in rows for v in row)  # RREF: a Fraction


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

    def test_tampered_certified_m_raises_when_reps_are_read(self):
        # The certified table holds m alone: its length and its m, which the
        # filtration report and the benchmark's tracing read, eliminate
        # nothing.  Reading any cell's reps runs the elimination, which must
        # find the m it was not given.  The sum is kept, so only the
        # elimination can tell.
        J = conic_ideal()
        table = build_table(J, [xvar(0) * xvar(0)], 8)
        assert len(table.cells) == 5 and table.total_m() == 17
        assert all(cell._L is None for cell in table.cells.values())
        table.cells[(1,)].m += 1
        table.cells[(2,)].m -= 1
        assert table.total_m() == table.hilbert_value
        with pytest.raises(BasisDefect):
            table.cells[(4,)].reps


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

    def test_scan_reads_each_degree_once(self, monkeypatch):
        # P^2 with the lines x0 and x1 is a regular sequence: the scan's
        # certificate holds and it eliminates nothing.  On the line x0 = 0
        # with an embedded point at (0:0:1), J = (x0^2, x0*x1), the target x1
        # passes through the embedded point.  The windows of the box tuples
        # (0), (1), (2), (3) read the degrees 1..6; the identity holds at
        # degree 1 and fails at 2..6, each eliminated once by one
        # filtration_space pass down to the lowest box tuple read there.
        import nevlab.filtration as filt
        from nevlab.gradedgeom import HomogeneousIdeal

        passes = []
        original = filt.filtration_space

        def recorded(J, Qs, N, I):
            passes.append((N, I))
            return original(J, Qs, N, I)

        monkeypatch.setattr(filt, "filtration_space", recorded)
        scan = stabilization_scan(HomogeneousIdeal(3, []), [xvar(0), xvar(1)], 6, window=3)
        assert (scan.n0, scan.c, scan.m_min, scan.I0) == (0, 1, 1, (0, 0))
        assert passes == []
        J = HomogeneousIdeal(3, [xvar(0) * xvar(0), xvar(0) * xvar(1)])
        scan = stabilization_scan(J, [xvar(1)], 6, window=3)
        assert (scan.n0, scan.c, scan.m_min, scan.I0, scan.kappa) == (1, 2, 1, (1,), 1)
        assert sorted(passes) == [(2, (0,)), (3, (0,)), (4, (1,)), (5, (2,)), (6, (3,))]

    @pytest.mark.parametrize("case", ["embedded_point_moving", "late_embedded_point"])
    def test_mixed_scan_eliminates_only_the_failing_degrees(self, case, monkeypatch):
        # Targets on which the identity holds at some degrees and fails at
        # others.  embedded_point_moving: J = (x0^2, x0*x1) with x1 + z*x0;
        # the identity holds at degrees 0 and 1 only, and the box reads the
        # degrees 1..6.  late_embedded_point: J = (x0^2, x0*x1^5) with
        # x1 + z*x2; the identity holds up to degree 5 and fails from 6 on,
        # where h drops to its plateau 1, and the box reads the degrees
        # 6..15.  Only the failing degrees take their quotient dimension
        # over Q(z), each failing degree that the box reads runs one
        # filtration_space pass, down to the lowest box tuple read there,
        # and the scan is the elimination's.
        import nevlab.filtration as filt
        from nevlab.cli import parse_polynomial
        from nevlab.gradedgeom import HomogeneousIdeal
        from helpers import reference_scan_lowest, reference_stabilization_scan

        def forms(*texts):
            return [parse_polynomial(t, 3) for t in texts]

        J, Qs, k_max, window, values_over_qz, degrees = {
            "embedded_point_moving": (HomogeneousIdeal(3, forms("x0^2", "x0*x1")),
                                      forms("x1 + {z}*x0"), 6, 3, [2, 3, 4, 5, 6],
                                      range(2, 7)),
            "late_embedded_point": (HomogeneousIdeal(3, forms("x0^2", "x0*x1^5")),
                                    forms("x1 + {z}*x2"), 8, 2, [6, 7, 8], range(6, 16)),
        }[case]
        expected = reference_stabilization_scan(J, Qs, k_max, window)
        u = [hilbert_function(J, k, filt._specialized(Qs)) for k in range(max(degrees) + 1)]
        passes, over_qz = [], []
        original, hilbert = filt.filtration_space, filt.hilbert_function

        def recorded(J, Qs, N, I):
            passes.append((N, I))
            return original(J, Qs, N, I)

        def recorded_hilbert(J, k, forms=()):
            if forms and forms[0].field == RATIONAL_FUNCTION:
                over_qz.append(k)
            return hilbert(J, k, forms)

        monkeypatch.setattr(filt, "filtration_space", recorded)
        monkeypatch.setattr(filt, "hilbert_function", recorded_hilbert)
        scan = stabilization_scan(J, Qs, k_max, window)
        assert scan == expected
        assert over_qz == values_over_qz
        assert over_qz == [k for k in range(k_max + 1) if not filt._tiles(J, u, 1, 1, k)]
        lowest = reference_scan_lowest(filt._scan_box(1, 1, scan.n0), 1, scan.n0, window)
        assert sorted(N for N, _ in passes) == list(degrees)
        assert sorted(passes) == sorted((N, I) for N, I in lowest.items()
                                        if not filt._tiles(J, u, 1, 1, N))

    def test_scan_echelon_over_q_holds_ints(self, monkeypatch):
        # The echelons over Q of the scan's passes keep primitive integer
        # rows with a positive pivot, even for targets with Fraction
        # coefficients; a true division there once gave floats and
        # NotStabilized.  The target is regular on the conic, so the scan
        # itself is certified: the filtration_space pass of every degree it
        # reads, down to the lowest box tuple read there, is run directly,
        # and each m the scan reads there must agree with it.
        import nevlab.filtration as filt
        from helpers import reference_scan_lowest

        echelons = []

        class Recorded(linear.Echelon):
            def __init__(self, field, cols):
                super().__init__(field, cols)
                echelons.append(self)

        x0, x1, x2 = (xvar(i) for i in range(3))
        q = x0 * x0 - (x0 * x1).scale(Fraction(1, 3)) + (x2 * x2).scale(Fraction(2, 5))
        scan = stabilization_scan(conic_ideal(), [q], 8)
        assert scan.c == scan.m_min == 4
        monkeypatch.setattr(filt, "Echelon", Recorded)
        d = q.degree
        box = filt._scan_box(1, d, scan.n0)
        for N, lowest in reference_scan_lowest(box, d, scan.n0, 3).items():
            cells = filt.filtration_space(conic_ideal(), [q], N, lowest)
            assert all(cells[I].m == scan.m_stable[I] for I in box
                       if scan.n0 <= N - d * tuple_norm(I) < scan.n0 + 3)
        rows = [(c, row) for e in echelons for c, row, _ in e.rows]
        assert echelons and all(e.field == RATIONAL for e in echelons) and rows
        assert all(type(v) is int for _, row in rows for v in row)
        assert all(row[c] > 0 and math.gcd(*row) == 1 for c, row in rows)

    @pytest.mark.parametrize("case", ["embedded_point", "embedded_point_moving",
                                      "late_embedded_point", "shared_factor",
                                      "quadric_line"])
    def test_scan_falls_back_on_non_regular_targets(self, case):
        # Targets that are not a regular sequence on R/J: the certificate's
        # identity fails at some degrees, and the scan must give the
        # elimination's result, or raise NotStabilized as it does.
        # late_embedded_point: J = (x0^2, x0*x1^5) has an embedded point at
        # (0:0:1), which x1 + z*x2 misses but its value x1 at z = 0 does not.
        # u is 1, 2, 2, ... while h drops to 1 at degree 6, past every degree
        # the box reads (at most 5), so the identity fails only at N = 6.
        from nevlab.cli import parse_polynomial
        from nevlab.gradedgeom import HomogeneousIdeal
        from helpers import quadric_ideal, reference_stabilization_scan

        def forms(nvars, *texts):
            return [parse_polynomial(t, nvars) for t in texts]

        embedded = HomogeneousIdeal(3, forms(3, "x0^2", "x0*x1"))
        J, Qs, k_max, window, expected = {
            "embedded_point": (embedded, forms(3, "x1"), 6, 3, (1, 2)),
            "embedded_point_moving": (embedded, forms(3, "x1 + {z}*x0"), 6, 3, (1, 2)),
            "late_embedded_point": (HomogeneousIdeal(3, forms(3, "x0^2", "x0*x1^5")),
                                    forms(3, "x1 + {z}*x2"), 6, 2, None),
            "shared_factor": (HomogeneousIdeal(3, []), forms(3, "x0*x1", "x0*x2"), 6, 3, None),
            "quadric_line": (quadric_ideal(), forms(4, "x0", "x1"), 6, 3, None),
        }[case]

        def outcome(scan):
            try:
                return scan(J, Qs, k_max, window)
            except NotStabilized:
                return None

        got = outcome(stabilization_scan)
        assert got == outcome(reference_stabilization_scan)
        assert (got and (got.n0, got.c)) == expected

    @pytest.mark.parametrize("case", ["ci_quadric", "conic_moving", "pole_at_zero",
                                      "vanishes_at_zero"])
    def test_certified_scan_eliminates_nothing_over_qz(self, case, monkeypatch):
        # On regular moving targets the certificate holds at every degree:
        # the scan builds no product Q^E, no Q(z) Echelon and does no Q(z)
        # arithmetic that needs a polynomial gcd.  The last two targets have
        # a pole at z = 0 or vanish there, so the specialization must move
        # on to z = 1.
        import nevlab.algebra as algebra
        import nevlab.filtration as filt
        import nevlab.gradedgeom as gg
        from nevlab.cli import parse_polynomial
        from helpers import quadric_ideal, reference_stabilization_scan

        J, texts, k_max, window = {
            "ci_quadric": (quadric_ideal(), ["x0 - {z}*x1", "x3 + {1 + z}*x2"], 8, 3),
            "conic_moving": (conic_ideal(), ["x2^2 - {2*z^2}*x0*x2"], 6, 2),
            "pole_at_zero": (conic_ideal(), ["{1/z}*x0 + x1"], 6, 3),
            "vanishes_at_zero": (conic_ideal(), ["{z}*x0^2 + {z^2 - z}*x1^2"], 6, 3),
        }[case]
        Qs = [parse_polynomial(t, J.nvars) for t in texts]
        expected = reference_stabilization_scan(J, Qs, k_max, window)
        fields, gcds = [], []

        class Recorded(linear.Echelon):
            def __init__(self, field, cols):
                super().__init__(field, cols)
                fields.append(field)

        gcd = algebra._gcd

        def counted(a, b):
            gcds.append((a, b))
            return gcd(a, b)

        def unexpected(*args):
            raise AssertionError("the certified scan built a product Q^E")

        monkeypatch.setattr(filt, "_power_products", unexpected)
        monkeypatch.setattr(filt, "Echelon", Recorded)
        monkeypatch.setattr(gg, "Echelon", Recorded)
        monkeypatch.setattr(algebra, "_gcd", counted)
        assert stabilization_scan(J, Qs, k_max, window) == expected
        assert fields and RATIONAL_FUNCTION not in fields
        assert gcds == []

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
