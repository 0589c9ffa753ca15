import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevlab import algebra
from nevlab.algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    FieldMismatch,
    InhomogeneousInput,
    MultiPoly,
    PoleAtPoint,
    RationalFunction,
    ZeroDenominator,
    coefficient_field,
    monomial_basis,
    normalize_degrees,
)
from nevlab.cli import parse_polynomial

from helpers import ReferenceRF, rand_rational_function, typed_terms, xvar, zgcd_monic

# Polynomials in z of degree <= 3 with small rational coefficients.
ZPOLYS = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=4)
POINTS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(-5, 2))


def assert_matches_reference(got, want):
    """got is a canonical RationalFunction with the reference's value."""
    assert all(type(c) is int for c in got.zn + got.zd)
    assert (got.zn, got.zd) == want.integer_form()
    assert got.zd[-1] > 0
    assert math.gcd(*got.zn, *got.zd) == 1
    assert len(zgcd_monic(got.zn, got.zd)) == 1
    assert str(got) == str(want)
    assert got.num == want.num and got.den == want.den
    for t in POINTS:
        try:
            expected = want.evaluate(t)
        except PoleAtPoint:
            with pytest.raises(PoleAtPoint):
                got.evaluate(t)
            continue
        assert got.evaluate(t) == expected


class TestRationalFunction:
    def test_common_factor_cancellation(self):
        # (z^2 - 1)/(z - 1) -> z + 1
        r = RationalFunction((-1, 0, 1), (-1, 1))
        assert r.num == (Fraction(1), Fraction(1))
        assert r.den == (Fraction(1),)

    def test_zero_normalization(self):
        r = RationalFunction((0,), (3, 1))
        assert r.is_zero
        assert r.den == (Fraction(1),)

    def test_monic_scaling(self):
        r = RationalFunction((0, 2), (2,))
        assert r == RationalFunction.z()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFunction((1,), (0,))

    def test_field_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            a = rand_rational_function(rng)
            b = rand_rational_function(rng)
            c = rand_rational_function(rng)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero:
                assert a * (RationalFunction.from_fraction(1) / a) == 1

    def test_evaluate_and_pole(self):
        r = RationalFunction((1,), (-1, 1))  # 1/(z-1)
        assert r.evaluate(3) == Fraction(1, 2)
        with pytest.raises(PoleAtPoint):
            r.evaluate(1)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(ZPOLYS, ZPOLYS.filter(any), st.fractions(-40, 40, max_denominator=50),
           st.booleans())
    def test_evaluate_matches_fraction_horner(self, num, den, t, pole):
        # evaluate works in integers on zn and zd; the reference runs Horner
        # in Fractions on the printed, monic-denominator view.  With `pole`
        # the denominator gets the factor (z - t), so t is a pole unless the
        # numerator shares it.
        def horner(coeffs, x):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        if pole:
            den = [a - t * b for a, b in zip([0, *den], [*den, 0])]
        r = RationalFunction(num, den)
        dv = horner(r.den, t)
        if dv == 0:
            with pytest.raises(PoleAtPoint):
                r.evaluate(t)
            return
        got = r.evaluate(t)
        assert type(got) is Fraction and got == horner(r.num, t) / dv

    def test_canonical_string(self):
        assert str(RationalFunction((Fraction(4, 6),), (1,))) == "2/3"
        assert str(RationalFunction((1, 0, 1), (-1, 1))) == "(z^2 + 1)/(z - 1)"

    def test_integer_canonical_form(self):
        r = RationalFunction((2, 4), (6,))
        assert (r.zn, r.zd) == ((1, 2), (3,))
        assert r == RationalFunction((1, 2), (3,))
        assert hash(r) == hash(RationalFunction((1, 2), (3,)))
        r = RationalFunction((Fraction(1, 2),), (0, -3))  # -1/(6z)
        assert (r.zn, r.zd) == ((-1,), (0, 6))
        assert r.num == (Fraction(-1, 6),) and r.den == (0, 1)
        assert (RationalFunction.zero().zn, RationalFunction.zero().zd) == ((), (1,))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(ZPOLYS, ZPOLYS.filter(any), ZPOLYS, ZPOLYS.filter(any),
           st.integers(-3, 3), st.fractions(-5, 5, max_denominator=6).filter(bool))
    def test_matches_fraction_reference(self, an, ad, bn, bd, k, scale):
        a, b = RationalFunction(an, ad), RationalFunction(bn, bd)
        ra, rb = ReferenceRF(an, ad), ReferenceRF(bn, bd)
        pairs = [(a, ra), (b, rb)]
        if a or k >= 0:
            pairs.append((a ** k, ra ** k))
        # Operand pairs that reach each shortcut of the operators: a zero
        # operand, two integer polynomials (denominator 1), equal
        # denominators (a + q has a's), and a numerator that shares a
        # factor with the other operand's denominator (a * bd against b).
        zero, rzero = RationalFunction.zero(), ReferenceRF(())
        p, q = RationalFunction([12 * x for x in an]), RationalFunction([12 * x for x in bn])
        rp, rq = ReferenceRF([12 * x for x in an]), ReferenceRF([12 * x for x in bn])
        shared, rshared = a * RationalFunction(bd), ra * ReferenceRF(bd)
        operands = [((a, ra), (b, rb)), ((a, ra), (zero, rzero)), ((zero, rzero), (b, rb)),
                    ((p, rp), (q, rq)), ((a + q, ra + rq), (a, ra)), ((a, ra), (a, ra)),
                    ((shared, rshared), (b, rb))]
        if b:
            operands.append(((shared, rshared), (1 / b, ReferenceRF((1,)) / rb)))
        # int and Fraction operands on either side.
        for s in (k, scale):
            rs = ReferenceRF((s,))
            pairs += [(a + s, ra + rs), (s + a, rs + ra), (a - s, ra - rs), (s - a, rs - ra),
                      (a * s, ra * rs), (s * a, rs * ra)]
            if s:
                pairs.append((a / s, ra / rs))
            if a:
                pairs.append((s / a, rs / ra))
        for (x, rx), (y, ry) in operands:
            pairs += [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry)]
            if y:
                pairs.append((x / y, rx / ry))
        for got, want in pairs:
            assert_matches_reference(got, want)
        # The same value written with another scale: equal, with equal hashes.
        c = RationalFunction([scale * x for x in an], [scale * x for x in ad])
        assert c == a and hash(c) == hash(a)

    def test_shortcuts_make_no_polynomial_gcd(self, monkeypatch):
        calls = []
        gcd = algebra._gcd
        monkeypatch.setattr(algebra, "_gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
        p = RationalFunction((1, 2, 3), (1,), _raw=True)
        q = RationalFunction((-2, 0, 4), (1,), _raw=True)
        x = RationalFunction((2, 4), (6, 0, 3), _raw=True)  # (2 + 4z)/(6 + 3z^2)
        r = p * q
        assert (r.zn, r.zd) == ((-2, -4, -2, 8, 12), (1,))
        r = 0 + x
        assert (r.zn, r.zd) == ((2, 4), (6, 0, 3))
        r = 3 * x
        assert (r.zn, r.zd) == ((2, 4), (2, 0, 1))
        assert calls == []
        x + RationalFunction((1,), (1, 1), _raw=True)  # the general sum does call it
        assert calls

    def test_foreign_operands_raise_type_error(self):
        z = RationalFunction.z()
        with pytest.raises(TypeError, match="for /:"):
            "a" / z
        with pytest.raises(TypeError, match="for -:"):
            "a" - z


class TestMultiPoly:
    def test_difference_of_squares(self):
        x0, x1 = xvar(0, 2), xvar(1, 2)
        p = (x0 + x1) * (x0 - x1)
        assert p == x0 * x0 - x1 * x1

    def test_coefficient_carries_through(self):
        x0 = xvar(0, 2, RATIONAL_FUNCTION)
        x1 = xvar(1, 2, RATIONAL_FUNCTION)
        z = RationalFunction.z()
        p = x0.scale(z) * x1
        assert p == (x0 * x1).scale(z)

    def test_multiply_identity(self):
        x0, x1, x2 = (xvar(i) for i in range(3))
        g = x0 * x2 - x1 * x1
        one = MultiPoly.constant(3, 1)
        assert g * one == g

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            xvar(0, 2) * xvar(1, 2, RATIONAL_FUNCTION)

    def test_degree_conventions(self):
        assert MultiPoly.zero(3).degree is None
        assert MultiPoly.zero(3).is_homogeneous
        x0, x1 = xvar(0, 2), xvar(1, 2)
        assert (x0 + x1 * x1).degree is None
        assert not (x0 + x1 * x1).is_homogeneous
        assert (x0 * x0).degree == 2

    def test_specialize_direct(self):
        x0, x1, x2 = (xvar(i, 3, RATIONAL_FUNCTION) for i in range(3))
        z = RationalFunction.z()
        p = (x0 * x0).scale(z) + x1 * x2
        q = p.specialize(3)
        x0q, x1q, x2q = (xvar(i) for i in range(3))
        assert q == (x0q * x0q).scale(3) + x1q * x2q

    def test_specialize_pole(self):
        x0 = xvar(0, 3, RATIONAL_FUNCTION)
        p = x0.scale(RationalFunction((1,), (-1, 1)))  # (1/(z-1)) x0
        with pytest.raises(PoleAtPoint):
            p.specialize(1)

    def test_specialize_vanishing_term(self):
        x0, x1, x2 = (xvar(i, 3, RATIONAL_FUNCTION) for i in range(3))
        z = RationalFunction.z()
        p = (x0 * x0).scale(z - 2) + x1 * x1
        q = p.specialize(2)
        x1q = xvar(1)
        assert q == x1q * x1q

    def test_specialize_is_ring_homomorphism(self):
        rng = random.Random(11)
        from helpers import rand_poly

        for _ in range(15):
            p = rand_poly(rng, 3, 2, RATIONAL_FUNCTION)
            q = rand_poly(rng, 3, 3, RATIONAL_FUNCTION)
            for a in (0, 1, rng.randint(-20, 20)):
                try:
                    lhs = (p * q).specialize(a)
                    rhs = p.specialize(a) * q.specialize(a)
                except PoleAtPoint:
                    continue
                assert lhs == rhs

    def test_over_round_trip(self):
        x0, x1 = xvar(0, 2), xvar(1, 2)
        p = (x0 * x1).scale(Fraction(2, 3)) - x1 * x1
        pz = p.over(RATIONAL_FUNCTION)
        assert pz.field == RATIONAL_FUNCTION
        assert pz.over(RATIONAL_FUNCTION) is pz
        assert pz.over(RATIONAL) == p
        moving = xvar(0, 2, RATIONAL_FUNCTION).scale(RationalFunction.z())
        with pytest.raises(ValueError):
            moving.over(RATIONAL)

    def test_coefficient_field(self):
        z = RationalFunction.z()
        x0, x1 = xvar(0, 2), xvar(1, 2)
        u0, u1 = (xvar(i, 2, RATIONAL_FUNCTION) for i in range(2))
        assert coefficient_field([]) == RATIONAL
        assert coefficient_field([x0, x1]) == RATIONAL
        assert coefficient_field([u0, u1.scale(3)]) == RATIONAL
        assert coefficient_field([x0, u1 - u0.scale(z)]) == RATIONAL_FUNCTION


# Zero, constant, inhomogeneous and homogeneous polynomials over Q and Q(z).
MEMO_TEXTS = [("0", 3, RATIONAL), ("0", 3, RATIONAL_FUNCTION), ("5/3", 2, RATIONAL),
              ("{z}", 2, RATIONAL_FUNCTION), ("x0 + x1^2 - 1", 3, RATIONAL),
              ("{1/(z - 1)}*x0^3 + x1", 2, RATIONAL_FUNCTION),
              ("x0*x2 - x1^2", 3, RATIONAL), ("{z^2}*x0*x1 - 1/2*x1^2", 2, RATIONAL_FUNCTION)]


class TestMultiPolyMemo:
    """The hash and the term degrees are computed once per polynomial; each
    must equal a fresh computation, before and after it is kept."""

    @pytest.mark.parametrize("text, nvars, field", MEMO_TEXTS)
    def test_memo_equals_recomputation(self, text, nvars, field):
        p = parse_polynomial(text, nvars, field)
        degs = {sum(e) for e in p.terms}
        for _ in range(2):
            assert hash(p) == hash((p.nvars, p.field, tuple(p.items())))
            assert p.degree == (next(iter(degs)) if len(degs) == 1 else None)
            assert p.is_homogeneous == (len(degs) <= 1)

    def test_equal_polynomials_hash_equal_along_every_path(self):
        x0, x1, x2 = (xvar(i) for i in range(3))
        parsed = parse_polynomial("x0^2 - 1/2*x1*x2 + 3*x2^2", 3, RATIONAL)
        built = x0 ** 2 - (x1 * x2).scale(Fraction(1, 2)) + (x2 * x2).scale(3)
        lifted = parse_polynomial("x0^2 - 1/2*x1*x2 + 3*x2^2", 3)
        specialized = parse_polynomial("{z}*x0^2 - {1/(z + 1)}*x1*x2 + {z + 2}*x2^2",
                                       3).specialize(1)
        demoted = lifted.over(RATIONAL)
        assert {type(c) for c in specialized.terms.values()} == {Fraction}
        for p in (built, demoted, specialized):
            assert p == parsed and hash(p) == hash(parsed)
            assert {parsed: 1}[p] == 1
        assert lifted == parsed.over(RATIONAL_FUNCTION)
        assert hash(lifted) == hash(parsed.over(RATIONAL_FUNCTION))
        assert lifted.degree == built.degree == specialized.degree == 2

    def test_power_keeps_terms_and_types(self):
        x0, x1 = xvar(0, 2), xvar(1, 2)
        p = (x0 - x1).scale(Fraction(2, 3)) + x1
        assert p ** 1 == p and p ** 0 == MultiPoly.constant(2, 1)
        assert typed_terms(p ** 3) == typed_terms(p * (p * p))


class TestMonomialBasis:
    def test_binary_degree_two(self):
        assert monomial_basis(1, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_counts(self):
        assert len(monomial_basis(2, 2)) == 6
        assert monomial_basis(2, 0) == [(0, 0, 0)]
        for M in range(5):
            for k in range(21):
                assert len(monomial_basis(M, k)) == math.comb(k + M, M)

    def test_descending_lex_order(self):
        basis = monomial_basis(2, 3)
        assert basis == sorted(basis, reverse=True)
        assert all(sum(e) == 3 for e in basis)


class TestNormalizeDegrees:
    def test_lcm_of_one_and_two(self):
        x0, x1 = xvar(0, 2), xvar(1, 2)
        d, out = normalize_degrees([x0, x1 * x1])
        assert d == 2
        assert out[0] == x0 * x0
        assert out[1] == x1 * x1

    def test_already_common(self):
        x0, x1, x2 = (xvar(i) for i in range(3))
        qs = [x0 * x0, x1 * x2, x2 * x2]
        d, out = normalize_degrees(qs)
        assert d == 2
        assert out == qs

    def test_lcm_two_three(self):
        x0, x1 = xvar(0, 2), xvar(1, 2)
        q1 = x0 * x0
        q2 = x1 * x1 * x1
        d, out = normalize_degrees([q1, q2])
        assert d == 6
        assert out[0] == q1 ** 3
        assert out[1] == q2 ** 2

    def test_inhomogeneous_rejected(self):
        x0, x1 = xvar(0, 2), xvar(1, 2)
        with pytest.raises(InhomogeneousInput):
            normalize_degrees([x0 + x1 * x1])
