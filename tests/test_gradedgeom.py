import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from nevlab.algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    MultiPoly,
    RationalFunction,
)
from nevlab.gradedgeom import (
    ADMISSIBLE,
    NOT_ADMISSIBLE_EVIDENCE,
    CertificateDefect,
    HilbertDefect,
    HomogeneousIdeal,
    NotStabilized,
    admissibility_check,
    hilbert_function,
    ideal_graded_piece,
    macaulay_extension,
    macaulay_representation,
    nullstellensatz_certificate,
    primitive_form,
    variety_invariants,
)
from nevlab.cli import parse_polynomial
from nevlab.filtration import stabilization_scan
from nevlab.linear import GradedSubspace

from helpers import (
    coefficient_vector,
    conic_ideal,
    p1_ideal,
    piece_over_qz,
    plane_ideal,
    quadric_ideal,
    rand_poly,
    reduce_vector,
    specialize_space,
    twisted_cubic_ideal,
    xvar,
)


class TestGradedPieces:
    def test_conic_degree_two(self):
        J = conic_ideal()
        assert J.graded_piece(2).dim == 1

    def test_conic_degree_three(self):
        # Oracle: rank of the 3x10 matrix of linear multiples (test_linear
        # checks that rank directly).
        J = conic_ideal()
        assert J.graded_piece(3).dim == 3

    def test_extra_generator_multiples(self):
        J = HomogeneousIdeal(2, [])
        x0 = xvar(0, 2)
        piece = ideal_graded_piece(J, [x0], 2)
        assert piece.dim == 2  # x0^2, x0x1

    def test_ideal_is_over_q(self):
        u0 = xvar(0, 2, RATIONAL_FUNCTION)
        J = HomogeneousIdeal(2, [u0.scale(3)])
        assert J.generators == (xvar(0, 2).scale(3),)
        with pytest.raises(ValueError):
            HomogeneousIdeal(2, [u0.scale(RationalFunction.z())])


class TestHilbert:
    def test_empty_ideal(self):
        J = HomogeneousIdeal(3, [])
        assert hilbert_function(J, 4) == 15

    def test_conic_closed_form(self):
        # Independent oracle: H(N) = binom(N+2,2) - binom(N,2) = 2N + 1.
        J = conic_ideal()
        for N in range(1, 9):
            assert hilbert_function(J, N) == 2 * N + 1

    def test_irrelevant_ideal(self):
        J = HomogeneousIdeal(3, [xvar(0), xvar(1), xvar(2)])
        for k in range(1, 5):
            assert hilbert_function(J, k) == 0

    def test_weakly_decreasing_under_more_generators(self):
        J1 = conic_ideal()
        x0, x1, x2 = (xvar(i) for i in range(3))
        J2 = HomogeneousIdeal(3, [x0 * x2 - x1 * x1, x0 * x0])
        for k in range(0, 8):
            assert hilbert_function(J2, k) <= hilbert_function(J1, k)


def rational_normal_curve(d):
    """The 2x2 minors of [[x0 .. x_{d-1}], [x1 .. x_d]]: the rational normal
    curve of degree d in P^d."""
    x = [xvar(i, d + 1) for i in range(d + 1)]
    return HomogeneousIdeal(d + 1, [x[i] * x[j + 1] - x[i + 1] * x[j]
                                    for i in range(d) for j in range(i + 1, d)])


def koszul_hilbert(M, degrees, k):
    """dim (K[x0..xM]/(f_1..f_r))_k for a regular sequence of forms of the
    given degrees, from the Koszul complex: the alternating sum over subsets
    S of binom(k - |S|_deg + M, M)."""
    return sum((-1) ** r * math.comb(k - sum(S) + M, M)
               for r in range(len(degrees) + 1) for S in combinations(degrees, r)
               if k - sum(S) >= 0)


class TestPersistence:
    def test_macaulay_representation(self):
        for s in range(1, 7):
            for a in range(200):
                rep = macaulay_representation(a, s)
                assert sum(math.comb(k, i) for k, i in rep) == a
                assert [i for _, i in rep] == list(range(s, s - len(rep), -1))
                assert all(k > k2 for (k, _), (k2, _) in zip(rep, rep[1:]))
                assert all(k >= i >= 1 for k, i in rep)
        # 5 = binom(3, 2) + binom(2, 1), so 5^<2> = binom(4, 3) + binom(3, 2)
        assert macaulay_representation(5, 2) == ((3, 2), (2, 1))
        assert macaulay_extension(((3, 2), (2, 1)), 1) == 7

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rational_normal_curve(self, d):
        J = rational_normal_curve(d)
        assert [hilbert_function(J, k) for k in range(41)] == [d * k + 1 for k in range(41)]
        # Persistence starts at the Gotzmann number of dk + 1, d + (d-1)(d-2)/2,
        # and no table is built above the degree after it.
        assert max(J._normal_forms) == d + (d - 1) * (d - 2) // 2 + 1

    @pytest.mark.parametrize("nvars, texts", [
        (3, ["x0^2", "x1^3"]),
        (3, ["x0*x2 - x1^2", "x0^3 + x1^3 + x2^3"]),
        (4, ["x0^2", "x1^3", "x2^2"]),
        (4, ["x0*x3 - x1*x2", "x0^2 - x3^2 + x1*x2", "x1^2 + x2^2"]),
    ])
    def test_complete_intersection(self, nvars, texts):
        forms = [parse_polynomial(t, nvars, RATIONAL) for t in texts]
        degrees = [f.degree for f in forms]
        want = [koszul_hilbert(nvars - 1, degrees, k) for k in range(41)]
        if nvars == len(forms) + 1:  # points: H is the product of the degrees
            assert want[-1] == math.prod(degrees)
        # as an ideal, and as J plus forms over Q and over Q(z)
        assert [hilbert_function(HomogeneousIdeal(nvars, forms), k)
                for k in range(41)] == want
        J = HomogeneousIdeal(nvars, forms[:1])
        assert [hilbert_function(J, k, forms[1:]) for k in range(41)] == want
        # (1 + z) * f generates what f does, over Q(z)
        unit = RationalFunction([1, 1])
        moving = [f.over(RATIONAL_FUNCTION).scale(unit) for f in forms[1:]]
        assert [hilbert_function(J, k, moving) for k in range(41)] == want

    def test_no_normal_forms_above_the_onset(self):
        # H_V of the conic persists from degree 2: 5^<2> = 7 = H_V(3)
        J = conic_ideal()
        assert hilbert_function(J, 500) == 1001
        assert sorted(J._normal_forms) == [2, 3]
        assert J._persistence[()] == [2, ((3, 2), (2, 1))]

    def test_macaulay_bound_violation_is_a_defect(self, monkeypatch):
        J = conic_ideal()
        genuine = J.normal_forms

        def wrong(k):  # one standard monomial too many in degree 3
            std, classes = genuine(k)
            return (std + [std[0]], classes) if k == 3 else (std, classes)

        monkeypatch.setattr(J, "normal_forms", wrong)
        assert hilbert_function(J, 2) == 5
        with pytest.raises(HilbertDefect, match="exceeds Macaulay's bound"):
            hilbert_function(J, 3)


class TestVarietyInvariants:
    def test_conic(self):
        assert variety_invariants(conic_ideal()) == (1, 2)

    def test_p1(self):
        assert variety_invariants(p1_ideal()) == (1, 1)

    def test_twisted_cubic(self):
        J = twisted_cubic_ideal()
        # Oracle: H(N) = 3N + 1 for the rational normal curve of degree 3.
        for N in range(1, 7):
            assert hilbert_function(J, N) == 3 * N + 1
        assert variety_invariants(J) == (1, 3)

    def test_not_stabilized(self):
        # dim V and deg V need no window; the stabilization scan still reads
        # one.  On P^1 the quotient by x0^2 has dimensions 1, 2, 2, ..., so
        # its three values up to k_max = 2 show no constant tail of length 3
        x0 = xvar(0, nvars=2)
        with pytest.raises(NotStabilized):
            stabilization_scan(p1_ideal(), [x0 * x0], 2, window=3)

    def test_window_that_settles_early(self):
        # On J = (x0^2, x0*x1^12) H_V(k) = 2k + 1 up to k = 12 and k + 13
        # from k = 13, where persistence starts with the representation
        # ((14, 13), (12, 12), ..., (1, 1)): V is the line x0 = 0.  A window
        # of 3 values up to k_max = 10 would read (1, 2).
        x0, x1, _ = (xvar(i) for i in range(3))
        J = HomogeneousIdeal(3, [x0 * x0, x0 * x1 ** 12])
        assert variety_invariants(J) == (1, 1)
        assert J._persistence[()] == [13, ((14, 13),) + tuple((i, i) for i in range(12, 0, -1))]
        assert [hilbert_function(J, k) for k in (10, 12, 13, 20)] == [21, 25, 26, 33]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_rational_normal_curve(self, d):
        # the 2x2 minors of [[x0 .. x_{d-1}], [x1 .. x_d]]: H(k) = dk + 1
        x = [MultiPoly.variable(d + 1, i) for i in range(d + 1)]
        J = HomogeneousIdeal(d + 1, [x[i] * x[j + 1] - x[i + 1] * x[j]
                                     for i in range(d) for j in range(i + 1, d)])
        assert variety_invariants(J) == (1, d)

    def test_empty_variety(self):
        # (x0, x1)^2 in P^1: H_V = 1, 2, 0, 0, ... and the representation is empty
        x0, x1 = xvar(0, nvars=2), xvar(1, nvars=2)
        assert variety_invariants(HomogeneousIdeal(2, [x0 * x0, x0 * x1, x1 * x1])) == (-1, 0)

    # deg V is the leading coefficient of the Hilbert polynomial times n!:
    # H_V(k) = (deg V / n!) k^n + ...

    def test_plane(self):
        assert variety_invariants(plane_ideal()) == (2, 1)

    def test_quadric_surface(self):
        # H(k) = (k + 1)^2 on x0*x3 - x1*x2 = 0, the Segre image of P^1 x P^1
        assert variety_invariants(quadric_ideal()) == (2, 2)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_projective_space(self, M):
        # H(k) = C(k + M, M) on P^M
        assert variety_invariants(HomogeneousIdeal(M + 1, [])) == (M, 1)


class TestSpecializeSpace:
    def _span(self, polys, k):
        from nevlab.algebra import monomial_basis

        nvars = polys[0].nvars
        basis = monomial_basis(nvars - 1, k)
        rows = [coefficient_vector(p, basis) for p in polys]
        return GradedSubspace.from_rows(rows, cols=len(basis), field=polys[0].field)

    def test_vanishing_leading_coefficient(self):
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        W = self._span([x0.scale(z) + x1], 1)
        Wa = specialize_space(W, 0)
        assert Wa.dim == 1
        ok, _ = reduce_vector(Wa, [Fraction(0), Fraction(1)])
        assert not any(ok)  # x1 spans it

    def test_dependent_generators_collapse_first(self):
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        W = self._span([x0, x0.scale(z)], 1)
        assert W.dim == 1
        assert specialize_space(W, 5).dim == 1

    def test_conic_dimension_preserved_at_random_points(self):
        # Equation-style check: the ideal piece over Q(z) has the same
        # dimension as over Q, and random specializations keep it.
        rng = random.Random(2)
        J = conic_ideal()
        for N in (2, 4, 6):
            piece_q = J.graded_piece(N)
            piece_z = piece_over_qz(J, N)
            assert piece_q.dim == piece_z.dim
            for _ in range(5):
                a = rng.randint(-997, 997)
                assert specialize_space(piece_z, a).dim == piece_z.dim

    def test_rank_drop_only_at_detectable_points(self):
        # span{x0 + z x1, x0 + 2 x1}: dimension 2 over Q(z), dropping to 1
        # exactly at z = 2.  Random draws either preserve the dimension or
        # hit that detectable point.
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        W = self._span([x0 + x1.scale(z), x0 + x1.scale(2)], 1)
        assert W.dim == 2
        rng = random.Random(4)
        preserved = 0
        for _ in range(10):
            a = rng.randint(-997, 997)
            dim = specialize_space(W, a).dim
            if dim == W.dim:
                preserved += 1
            else:
                assert a == 2
        assert preserved >= 9

    def test_rational_subspace_returned_unchanged(self):
        W = conic_ideal().graded_piece(4)
        assert specialize_space(W, 3) is W

    def test_cleared_pole_still_specializes(self):
        # span{x0/(z-1)} is the same line as span{x0}: the value space at
        # z = 1 is span{x0} (take the representative (z-1) * generator).
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        W = self._span([x0.scale(RationalFunction((1,), (-1, 1)))], 1)
        Wa = specialize_space(W, 1)
        assert Wa.dim == 1
        rem, _ = reduce_vector(Wa, [Fraction(1), Fraction(0)])
        assert not any(rem)


class TestNullstellensatz:
    def test_p1_one_step(self):
        J = p1_ideal()
        x0, x1 = xvar(0, 2), xvar(1, 2)
        cert = nullstellensatz_certificate(J, [x0, x1 - x0.scale(3)], 4)
        assert cert is not None and cert.s == 1
        assert cert.verify()

    def test_p1_shared_zero_never_found(self):
        J = p1_ideal()
        x0 = xvar(0, 2)
        for s_max in (2, 5, 8):
            assert nullstellensatz_certificate(J, [x0, x0.scale(5)], s_max) is None

    def test_conic_pair(self):
        J = conic_ideal()
        cert = nullstellensatz_certificate(J, [xvar(0), xvar(2)], 4)
        assert cert is not None and cert.s == 2
        assert cert.verify()

    def test_function_field_certificate(self):
        # over Q(z) itself: x1 = (x1 - z*x0) + z*x0, cofactors in the
        # function field rather than at a specialized witness
        J = p1_ideal()
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        cert = nullstellensatz_certificate(J, [x0, x1 - x0.scale(z)], 3)
        assert cert is not None and cert.s == 1
        assert cert.verify()
        cofactor_on_x0 = cert.cofactors[1][0]
        assert cofactor_on_x0.terms[(0, 0)] == z

    def test_constant_targets_tagged_qz_certified_over_q(self):
        x0, x2 = xvar(0), xvar(2)
        Qs = [x0.over(RATIONAL_FUNCTION), x2.over(RATIONAL_FUNCTION)]
        cert = nullstellensatz_certificate(conic_ideal(), Qs, 4)
        assert cert is not None and cert.s == 2
        assert all(g.field == RATIONAL for g in cert.generators)
        assert cert.verify()

    def test_search_solves_only_the_degrees_it_visits(self, monkeypatch):
        # Membership of x_i^s is monotone in s, so a search from start = s
        # solves in full at s and tests membership at s - 1 only, a search
        # up from 1 solves at 1, tests 2, 3 and 4 and solves at 4, and a
        # failed solve at s_max ends the search.  J's normal forms and
        # J-cofactors are warmed first, so only the certificate's own
        # eliminations are counted: full solves through
        # solve_row_combinations, membership tests through the Echelon that
        # each builds on the standard columns.
        import nevlab.gradedgeom as gg

        counts = {"solves": 0, "tests": 0}
        genuine_solve, genuine_echelon = gg.solve_row_combinations, gg.Echelon

        def counting_solve(*args, **kwargs):
            counts["solves"] += 1
            return genuine_solve(*args, **kwargs)

        def counting_echelon(*args, **kwargs):
            counts["tests"] += 1
            return genuine_echelon(*args, **kwargs)

        J = conic_ideal()
        Qs = [xvar(0) * xvar(0), xvar(2) * xvar(2)]
        assert nullstellensatz_certificate(J, Qs, 6).s == 4
        monkeypatch.setattr(gg, "solve_row_combinations", counting_solve)
        monkeypatch.setattr(gg, "Echelon", counting_echelon)
        for start, solves, tests in ((4, 1, 1), (1, 2, 3)):
            counts.update(solves=0, tests=0)
            assert nullstellensatz_certificate(J, Qs, 6, start=start).s == 4
            assert counts == {"solves": solves, "tests": tests}
        x0 = xvar(0, 2)
        counts.update(solves=0, tests=0)
        assert nullstellensatz_certificate(p1_ideal(), [x0, x0.scale(5)], 6, start=6) is None
        assert counts == {"solves": 1, "tests": 0}

    def test_membership_without_a_solution_is_a_defect(self, monkeypatch):
        # the membership test at s = 4 says yes, so a solve there that
        # leaves a power outside the span is an implementation bug
        import nevlab.gradedgeom as gg

        monkeypatch.setattr(gg, "solve_row_combinations", lambda A, targets: [None] * len(targets))
        with pytest.raises(CertificateDefect, match="degree 4"):
            nullstellensatz_certificate(conic_ideal(), [xvar(0) * xvar(0), xvar(2) * xvar(2)], 6)


class TestAdmissibility:
    def test_p1_moving_pair_admissible(self):
        J = p1_ideal()
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        reports = admissibility_check(J, [x0, x1 - x0.scale(z)], n=1,
                                      trials=5, s_max=4, seed=1)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.status == ADMISSIBLE
        assert all(c.s == 1 for c in rep.certificates)
        # stability: certificates at every witness once one succeeds
        assert rep.witnesses_succeeded >= len(rep.witnesses_tried) - 1
        for cert in rep.certificates:
            assert cert.certificate.verify()

    def test_p1_degenerate_pair_evidence(self):
        J = p1_ideal()
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        reports = admissibility_check(J, [x0, x0.scale(z)], n=1, trials=3,
                                      s_max=4, seed=2)
        rep = reports[0]
        assert rep.status == NOT_ADMISSIBLE_EVIDENCE
        assert rep.evidence_value == 1
        assert rep.warning is not None

    def test_conic_squares_mixed(self):
        J = conic_ideal()
        x0, x1, x2 = (xvar(i) for i in range(3))
        Qs = [(x0 * x0).over(RATIONAL_FUNCTION), (x2 * x2).over(RATIONAL_FUNCTION),
              (x1 * x1).over(RATIONAL_FUNCTION)]
        reports = admissibility_check(J, Qs, n=1, trials=3, s_max=4, seed=3)
        by_subset = {r.subset: r for r in reports}
        # {x0^2, x2^2} has no common zero on V: certificate with s <= 4.
        assert by_subset[(0, 1)].status == ADMISSIBLE
        assert all(c.s <= 4 for c in by_subset[(0, 1)].certificates)
        # pairs with x1^2 share (0:0:1) resp. (1:0:0) on V: evidence only.
        assert by_subset[(0, 2)].status == NOT_ADMISSIBLE_EVIDENCE
        assert by_subset[(1, 2)].status == NOT_ADMISSIBLE_EVIDENCE

    def test_certificates_reverify_exactly(self):
        J = conic_ideal()
        x0, x2 = xvar(0), xvar(2)
        Qs = [(x0 * x0).over(RATIONAL_FUNCTION), (x2 * x2).over(RATIONAL_FUNCTION)]
        reports = admissibility_check(J, Qs, n=1, trials=4, s_max=4, seed=9)
        for rep in reports:
            for cert in rep.certificates:
                assert cert.certificate.verify()

    def test_corrupted_certificate_rejected(self, monkeypatch):
        # admissibility_check re-verifies every certificate before it counts:
        # a cofactor bumped by a constant adds a nonzero multiple of its
        # generator, and the check raises instead of reporting ADMISSIBLE.
        import nevlab.gradedgeom as gg

        genuine = gg.nullstellensatz_certificate

        def corrupted(J, Qs, s_max, **kwargs):
            cert = genuine(J, Qs, s_max, **kwargs)
            if cert is not None:
                bad = cert.cofactors[0][0]
                cert.cofactors[0][0] = bad + MultiPoly.constant(bad.nvars, 1, bad.field)
            return cert

        J = conic_ideal()
        Qs = [xvar(0) * xvar(0), xvar(2) * xvar(2)]
        reports = admissibility_check(J, Qs, n=1, trials=2, s_max=4, seed=9)
        assert reports[0].status == ADMISSIBLE
        monkeypatch.setattr(gg, "nullstellensatz_certificate", corrupted)
        with pytest.raises(CertificateDefect):
            admissibility_check(J, Qs, n=1, trials=2, s_max=4, seed=9)

    def test_primitive_form_scaling(self):
        # Coprime integer coefficients, a positive leading coefficient in
        # descending lex, and the same quotient dimensions as the raw forms.
        J = conic_ideal()
        x0, x1, x2 = (xvar(i) for i in range(3))
        raw = (x0 * x0).scale(Fraction(-3, 4)) + (x0 * x1).scale(Fraction(1, 6)) \
            - (x2 * x2).scale(Fraction(2, 3))
        assert primitive_form(raw) == (x0 * x0).scale(9) - (x0 * x1).scale(2) \
            + (x2 * x2).scale(8)
        rng = random.Random(5)
        for _ in range(6):
            forms = [rand_poly(rng, 3, 2) for _ in range(2)]
            forms = [f for f in forms if not f.is_zero]
            scaled = [primitive_form(f) for f in forms]
            for f in scaled:
                coeffs = list(f.terms.values())
                assert all(type(c) is int for c in coeffs)
                assert math.gcd(*coeffs) == 1
                assert f.items()[0][1] > 0
            for k in range(7):
                assert hilbert_function(J, k, scaled) == hilbert_function(J, k, forms)

    def test_lifted_ideal_dimensions_match(self):
        # dim over Q(z) of the lifted ideal piece equals the dim over Q,
        # for constant-coefficient generators (the matrices coincide).
        J = conic_ideal()
        for N in range(0, 11):
            assert piece_over_qz(J, N).dim == J.graded_piece(N).dim


class TestCertifiedOncePerSystem:
    """admissibility_check certifies each distinct primitive witness system
    once per call and lets every witness that gives it share the result."""

    @staticmethod
    def count_calls(monkeypatch):
        import nevlab.gradedgeom as gg

        genuine = gg.nullstellensatz_certificate
        calls = []

        def counting(J, Qs, s_max, **kwargs):
            calls.append(tuple(Qs))
            return genuine(J, Qs, s_max, **kwargs)

        monkeypatch.setattr(gg, "nullstellensatz_certificate", counting)
        return calls

    def test_constant_pair_certified_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        Qs = [xvar(0) * xvar(0), xvar(2) * xvar(2)]
        rep, = admissibility_check(conic_ideal(), Qs, n=1, trials=4, s_max=4, seed=9)
        assert len(calls) == 1
        assert rep.status == ADMISSIBLE
        assert rep.witnesses_succeeded == len(rep.certificates) == 4
        assert len({c.s for c in rep.certificates}) == 1

    def test_scalar_multiple_of_constant_form_certified_once(self, monkeypatch):
        # (1 + z^2/4)*x0^2 is a rational multiple of x0^2 at every witness.
        calls = self.count_calls(monkeypatch)
        factor = RationalFunction([1, 0, Fraction(1, 4)])
        x0, x2 = (xvar(i, 3, RATIONAL_FUNCTION) for i in (0, 2))
        rep, = admissibility_check(conic_ideal(), [(x0 * x0).scale(factor), x2 * x2],
                                   n=1, trials=5, s_max=4, seed=3)
        assert len(calls) == 1
        assert rep.status == ADMISSIBLE
        assert rep.witnesses_succeeded == len(rep.witnesses_tried) == 5

    def test_moving_pair_certified_per_witness(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        z = RationalFunction.z()
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        rep, = admissibility_check(p1_ideal(), [x0, x1 - x0.scale(z)], n=1,
                                   trials=5, s_max=4, seed=1)
        assert len(calls) == len(set(rep.witnesses_tried)) > 1
        assert rep.witnesses_succeeded == len(rep.witnesses_tried)
        assert len({id(c.certificate) for c in rep.certificates}) == len(calls)

    def test_evidence_computed_once_per_system(self, monkeypatch):
        # -2*x0^2 has the primitive form x0^2, so the subsets (0, 2) and
        # (1, 2) both specialize to (x0^2, x1^2): its quotient dimensions
        # for k = 0..s_max + M + 3 are computed once, 10 values, not 20.
        import nevlab.gradedgeom as gg

        genuine = gg.hilbert_function
        calls = []

        def counting(J, k, forms=()):
            if forms:
                calls.append(tuple(forms))
            return genuine(J, k, forms)

        monkeypatch.setattr(gg, "hilbert_function", counting)
        x0, x1 = xvar(0), xvar(1)
        Qs = [x0 * x0, (x0 * x0).scale(-2), x1 * x1]
        reports = admissibility_check(conic_ideal(), Qs, n=1, trials=3, s_max=4, seed=3)
        assert [r.status for r in reports] == [NOT_ADMISSIBLE_EVIDENCE] * 3
        assert reports[1].evidence_value == reports[2].evidence_value
        assert calls.count((x0 * x0, x1 * x1)) == 10
        assert len(calls) == 10 * len(set(calls)) == 20
