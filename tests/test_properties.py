"""Property tests of the filtration on generated constant targets.

Targets are random degree-d forms with small integer coefficients on the
conic, the twisted cubic and P^1, tagged either Q or Q(z): both must be
computed over Q and agree with the generic Q(z) elimination of `oracle_m`.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nevlab.algebra import (
    RATIONAL,
    RATIONAL_FUNCTION,
    MultiPoly,
    monomial_basis,
    monomial_count,
)
from nevlab.filtration import build_table, tuple_norm
from nevlab.gradedgeom import hilbert_function

from helpers import conic_ideal, p1_ideal, twisted_cubic_ideal
from test_filtration import oracle_m

# (ideal, deg V, largest N); the bound on N keeps the Q(z) oracle cheap.
VARIETIES = {
    "p1": (p1_ideal, 1, 8),
    "conic": (conic_ideal, 2, 6),
    "twisted_cubic": (twisted_cubic_ideal, 3, 4),
}
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


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(instances())
def test_constant_targets(instance):
    J, deg_v, d, N, Q = instance
    table = build_table(J, [Q], N)
    assert table.Qs[0].field == RATIONAL

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
