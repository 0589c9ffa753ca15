"""Property tests of the filtration on generated targets.

Targets are random degree-d forms on the conic, the twisted cubic and P^1.
Constant targets have small integer coefficients and are tagged either Q or
Q(z): both must be computed over Q.  Moving targets have coefficients a + b*z
with small integers a, b and are computed over Q(z).  Every table must agree
with the generic Q(z) elimination of `oracle_m`, which never touches the
preimage or kernel code.  For constant targets, the table built on the
stabilization scan's n0 and kappa must also satisfy the weighted-sum closed
forms.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nevlab.algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    MultiPoly,
    RationalFunction,
    monomial_basis,
    monomial_count,
)
from nevlab.filtration import build_table, stabilization_scan, tuple_norm, weighted_sums
from nevlab.gradedgeom import hilbert_function

from helpers import conic_ideal, p1_ideal, twisted_cubic_ideal
from test_filtration import oracle_m

# (ideal, deg V, largest N); the bound on N keeps the Q(z) oracle cheap.
VARIETIES = {
    "p1": (p1_ideal, 1, 8),
    "conic": (conic_ideal, 2, 6),
    "twisted_cubic": (twisted_cubic_ideal, 3, 4),
}
# Largest N for moving targets, whose Q(z) eliminations cost far more.
MOVING_N_MAX = {"p1": 6, "conic": 4, "twisted_cubic": 3}
WINDOW = 3


@st.composite
def instances(draw):
    make, deg_v, n_max = VARIETIES[draw(st.sampled_from(sorted(VARIETIES)))]
    J = make()
    d = draw(st.integers(1, 2))
    N = draw(st.integers(d + WINDOW - 1, n_max))
    basis = monomial_basis(J.M, d)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    field = draw(st.sampled_from([RATIONAL, RATIONAL_FUNCTION]))
    Q = MultiPoly(J.nvars, field, dict(zip(basis, coeffs)))
    # Q must not vanish on V; V is irreducible, so that means Q is not in J_d.
    assume(not J.graded_piece(d).contains([Fraction(c) for c in coeffs]))
    return J, deg_v, d, N, Q


@st.composite
def moving_instances(draw, name):
    make, deg_v, _ = VARIETIES[name]
    n_max = MOVING_N_MAX[name]
    J = make()
    d = draw(st.integers(1, min(2, n_max - WINDOW + 1)))
    N = draw(st.integers(d + WINDOW - 1, n_max))
    basis = monomial_basis(J.M, d)
    pairs = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    coeffs = draw(st.lists(pairs, min_size=len(basis), max_size=len(basis)))
    assume(any(b for _, b in coeffs))
    Q = MultiPoly(J.nvars, RATIONAL_FUNCTION,
                  {exp: RationalFunction([a, b]) for exp, (a, b) in zip(basis, coeffs)})
    # As above, Q must not vanish on V.
    assume(not J.graded_piece(d).over(RATIONAL_FUNCTION).contains(
        Q.coefficient_vector(basis)))
    return J, deg_v, d, N, Q


def check_table(J, deg_v, d, N, Q, field):
    """Check the default table of (J, Q) at N; returns the plateau onset n0."""
    table = build_table(J, [Q], N)
    assert table.Qs[0].field == field

    ms = {I: table.cells[I].m for I in table.tau}
    assert ms == {I: oracle_m(J, [Q], N, I) for I in table.tau}
    assert sum(ms.values()) == table.hilbert_value == hilbert_function(J, N)

    # Interior cells: cofactor degree past the onset of the plateau of the
    # quotient by (J, Q), found as in stabilization_scan.
    quotient = [monomial_count(J.M, k) - J.graded_piece(k, extra=[Q]).dim
                for k in range(N + 1)]
    n0 = next(k for k in range(N - WINDOW + 2)
              if all(v == quotient[k] for v in quotient[k:]))
    interior = [I for I in table.tau if N - d * tuple_norm(I) >= n0]
    assert interior
    assert all(ms[I] == deg_v * d for I in interior)
    return n0


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(instances())
def test_constant_targets(instance):
    J, deg_v, d, N, Q = instance
    n0 = check_table(*instance, RATIONAL)
    # The weighted-sum closed forms hold on tau_N^0, which depends on the
    # scan's n0 and kappa.
    scan = stabilization_scan(J, [Q], N, window=WINDOW)
    assert scan.n0 == n0
    ws = weighted_sums(build_table(J, [Q], N, n0=scan.n0, kappa=scan.kappa), deg_v)
    assert ws.symmetric and ws.dominated and ws.closed_form


@pytest.mark.parametrize("name", sorted(VARIETIES))
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(data=st.data())
def test_moving_targets(name, data):
    check_table(*data.draw(moving_instances(name)), RATIONAL_FUNCTION)
