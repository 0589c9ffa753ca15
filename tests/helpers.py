"""Shared constructors for the test suite."""

from fractions import Fraction

from nevlab.algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    MultiPoly,
    RationalFunction,
    monomial_count,
)
from nevlab.gradedgeom import HomogeneousIdeal, macaulay_rows
from nevlab.linear import GradedSubspace


def xvar(i, nvars=3, field=RATIONAL):
    return MultiPoly.variable(nvars, i, field)


def conic_ideal():
    """<x0*x2 - x1^2> in P^2."""
    x0, x1, x2 = (xvar(i) for i in range(3))
    return HomogeneousIdeal(3, [x0 * x2 - x1 * x1])


def p1_ideal():
    """The zero ideal in two variables (V = P^1)."""
    return HomogeneousIdeal(2, [])


def twisted_cubic_ideal():
    """<x0x2 - x1^2, x1x3 - x2^2, x0x3 - x1x2> in P^3."""
    x0, x1, x2, x3 = (MultiPoly.variable(4, i) for i in range(4))
    return HomogeneousIdeal(4, [x0 * x2 - x1 * x1,
                                x1 * x3 - x2 * x2,
                                x0 * x3 - x1 * x2])


def piece_over_qz(J, k):
    """J's degree-k piece by generic elimination over Q(z) of its lifted
    Macaulay rows, independent of the Q reduction J caches."""
    gens = [g.over(RATIONAL_FUNCTION) for g in J.generators]
    rows, _ = macaulay_rows(gens, k, J.nvars, RATIONAL_FUNCTION)
    return GradedSubspace.from_rows(rows, ambient_degree=k, nvars=J.nvars,
                                    cols=monomial_count(J.M, k),
                                    field=RATIONAL_FUNCTION)


def rand_fraction(rng, bound=9):
    den = rng.randint(1, bound)
    return Fraction(rng.randint(-bound, bound), den)


def rand_rational_function(rng, deg=2, bound=5):
    num = [rand_fraction(rng, bound) for _ in range(rng.randint(1, deg + 1))]
    den = [rand_fraction(rng, bound) for _ in range(rng.randint(1, deg + 1))]
    if not any(den):
        den = [Fraction(1)]
    return RationalFunction(num, den)


def rand_poly(rng, nvars, degree, field=RATIONAL, terms=3, bound=5):
    """Random homogeneous polynomial of the given degree."""
    from nevlab.algebra import monomial_basis

    basis = monomial_basis(nvars - 1, degree)
    out = MultiPoly.zero(nvars, field)
    for _ in range(terms):
        exp = basis[rng.randrange(len(basis))]
        if field == RATIONAL:
            coeff = rand_fraction(rng, bound)
        else:
            coeff = rand_rational_function(rng, 1, bound)
        out = out + MultiPoly.monomial(nvars, exp, coeff, field)
    return out
