"""Property tests of the filtration on generated targets.

Targets are random degree-d forms on the conic, the twisted cubic and P^1.
Constant targets have small integer coefficients and are tagged either Q or
Q(z): both must be computed over Q.  Moving targets have coefficients a + b*z
with small integers a, b and are computed over Q(z).  Every table must agree
with the generic Q(z) elimination of `oracle_m`, which never touches the
preimage or kernel code.  The stabilization scan must find the same n0, and
the table built on the scan's n0 and kappa must satisfy the weighted-sum
closed forms.

On n = 2, the quadric surface x0*x3 - x1*x2 with two constant hyperplanes
must tile its quotient with interior cells deg V * d^n = 2 and satisfy the
closed forms.  Every table, on n = 1 and n = 2, must match the filtration in
full monomial coordinates (`reference_build_table`) cell by cell, and
`filtration_space` must give the table's cell.

The quotients by the variety ideal plus targets are decided on the standard
monomials (`hilbert_function` with forms, the certificates' membership
test); both must agree with the full-coordinate reference piece
`graded_piece(k, extra)`, which no command may call.  The classes that
`multiples` sums from the normal-form table must equal the remainders of
the full coefficient vectors against J_k (`reference_quotient_rows`).
"""

from fractions import Fraction
from pathlib import Path

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
from nevlab.filtration import (
    build_table,
    filtration_space,
    stabilization_scan,
    tuple_norm,
    weighted_sums,
)
from nevlab import gradedgeom as gg
from nevlab.cli import EXIT_OK, EXIT_PRECONDITION, main
from nevlab.gradedgeom import constant_tail, hilbert_function, nullstellensatz_certificate

from helpers import (
    conic_ideal,
    p1_ideal,
    plane_ideal,
    quadric_ideal,
    reference_build_table,
    reference_quotient_rows,
    twisted_cubic_ideal,
)
from test_filtration import oracle_m

# (ideal, deg V, largest N); the bound on N keeps the Q(z) oracle cheap.
VARIETIES = {
    "p1": (p1_ideal, 1, 8),
    "conic": (conic_ideal, 2, 6),
    "twisted_cubic": (twisted_cubic_ideal, 3, 4),
}
# Largest N for moving targets: their tables, oracle and stabilization scan
# all eliminate over Q(z), which costs more than over Q.
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
    assume(not J.graded_piece(d).contains(Q.coefficient_vector(basis)))
    return J, deg_v, d, N, Q


@st.composite
def quadric_fixed(draw):
    """Two constant hyperplanes meeting the quadric surface in 2 points."""
    J = quadric_ideal()
    basis = monomial_basis(J.M, 1)
    coeffs = st.lists(st.integers(-1, 1), min_size=len(basis), max_size=len(basis))
    Qs = [MultiPoly(J.nvars, RATIONAL, dict(zip(basis, draw(coeffs)))) for _ in range(2)]
    # The quotient by (J, Q1, Q2) settles at deg V * d^n = 2 from degree 1.
    assume([monomial_count(J.M, k) - J.graded_piece(k, extra=Qs).dim
            for k in range(1, WINDOW + 1)] == [2] * WINDOW)
    return J, Qs, draw(st.integers(3, 5))


# (ideal, n, largest N) of the varieties whose tables are compared with the
# full-coordinate reference.
REFERENCE_VARIETIES = {
    "p1": (p1_ideal, 1, 6),
    "conic": (conic_ideal, 1, 5),
    "twisted_cubic": (twisted_cubic_ideal, 1, 4),
    "plane": (plane_ideal, 2, 3),
    "quadric": (quadric_ideal, 2, 3),
}


@st.composite
def reference_instances(draw, name):
    """n random degree-d targets over Q or Q(z) on a variety of dimension n."""
    make, n, n_max = REFERENCE_VARIETIES[name]
    J = make()
    d = draw(st.integers(1, 2))
    basis = monomial_basis(J.M, d)
    if draw(st.booleans()):
        field, coeff = RATIONAL, st.integers(-3, 3)
    else:
        pair = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
        field, coeff = RATIONAL_FUNCTION, pair.map(RationalFunction)
    coeffs = st.lists(coeff, min_size=len(basis), max_size=len(basis))
    Qs = [MultiPoly(J.nvars, field, dict(zip(basis, draw(coeffs)))) for _ in range(n)]
    assume(not any(q.is_zero for q in Qs))
    return J, Qs, draw(st.integers(0, n_max))


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


def check_weighted_sums(J, deg_v, d, N, Q, field):
    """Check the table of (J, Q) at N, then the scan and the weighted sums."""
    n0 = check_table(J, deg_v, d, N, Q, field)
    # The weighted-sum closed forms hold on tau_N^0, which depends on the
    # scan's n0 and kappa.
    scan = stabilization_scan(J, [Q], N, window=WINDOW)
    assert scan.n0 == n0
    ws = weighted_sums(build_table(J, [Q], N, n0=scan.n0, kappa=scan.kappa), deg_v)
    assert ws.symmetric and ws.dominated and ws.closed_form


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(instances())
def test_constant_targets(instance):
    check_weighted_sums(*instance, RATIONAL)


@pytest.mark.parametrize("name", sorted(VARIETIES))
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(data=st.data())
def test_moving_targets(name, data):
    check_weighted_sums(*data.draw(moving_instances(name)), RATIONAL_FUNCTION)


@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(quadric_fixed())
def test_quadric_constant_hyperplanes(instance):
    J, Qs, N = instance
    scan = stabilization_scan(J, Qs, WINDOW, window=WINDOW)
    assert (scan.n0, scan.c) == (1, 2)
    table = build_table(J, Qs, N, n0=scan.n0, kappa=scan.kappa)
    ms = {I: cell.m for I, cell in table.cells.items()}
    assert sum(ms.values()) == table.hilbert_value == (N + 1) ** 2
    interior = [I for I in table.tau if N - tuple_norm(I) >= scan.n0]
    assert interior and all(ms[I] == 2 for I in interior)  # deg V * d^n = 2 * 1^2
    ws = weighted_sums(table, 2)
    assert ws.symmetric and ws.dominated and ws.closed_form


@pytest.mark.parametrize("name", sorted(REFERENCE_VARIETIES))
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_quotient_coordinates_match_full_coordinates(name, data):
    J, Qs, N = data.draw(reference_instances(name))
    table = build_table(J, Qs, N)
    got = {I: (cell.m, cell.reps) for I, cell in table.cells.items()}
    assert got == reference_build_table(J, Qs, N)
    I = data.draw(st.sampled_from(table.tau))
    assert filtration_space(J, Qs, N, I) == table.cells[I]


# ---------------------------------------------------------------------------
# Quotients by (J, forms) on the standard monomials against the full
# monomial coordinates of `graded_piece(k, extra)`.
# ---------------------------------------------------------------------------

# (ideal, largest degree k compared)
QUOTIENT_VARIETIES = {
    "p1": (p1_ideal, 5),
    "conic": (conic_ideal, 4),
    "twisted_cubic": (twisted_cubic_ideal, 3),
    "plane": (plane_ideal, 3),
    "quadric": (quadric_ideal, 3),
}


@st.composite
def random_forms(draw, J, count, field=None):
    """`count` random forms of one degree 1 or 2 over Q or Q(z)."""
    d = draw(st.integers(1, 2))
    if field is None:
        field = draw(st.sampled_from([RATIONAL, RATIONAL_FUNCTION]))
    if field == RATIONAL:
        coeff = st.integers(-3, 3)
    else:
        coeff = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(RationalFunction)
    basis = monomial_basis(J.M, d)
    coeffs = st.lists(coeff, min_size=len(basis), max_size=len(basis))
    return [MultiPoly(J.nvars, field, dict(zip(basis, draw(coeffs))))
            for _ in range(count)]


@pytest.mark.parametrize("name", sorted(QUOTIENT_VARIETIES))
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_hilbert_function_with_forms_matches_full_coordinates(name, data):
    make, k_max = QUOTIENT_VARIETIES[name]
    J = make()
    forms = data.draw(random_forms(J, data.draw(st.integers(1, 2))))
    field = forms[0].field
    if data.draw(st.booleans()):
        forms.append(MultiPoly.zero(J.nvars, field))
    if J.generators and data.draw(st.booleans()):
        forms.append(J.generators[0].over(field))  # a form inside J
    for k in range(k_max + 1):
        assert hilbert_function(J, k, forms) == (
            monomial_count(J.M, k) - J.graded_piece(k, extra=forms).dim)


@st.composite
def forms_of_degree_0_to_3(draw, J):
    """Random forms of degrees 0 to 3 over Q or Q(z), then a zero form and,
    when J has generators, a form inside J."""
    field = draw(st.sampled_from([RATIONAL, RATIONAL_FUNCTION]))
    if field == RATIONAL:
        coeff = st.integers(-3, 3)
    else:
        coeff = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(RationalFunction)
    forms = []
    for d in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        basis = monomial_basis(J.M, d)
        coeffs = draw(st.lists(coeff, min_size=len(basis), max_size=len(basis)))
        forms.append(MultiPoly(J.nvars, field, dict(zip(basis, coeffs))))
    forms.append(MultiPoly.zero(J.nvars, field))
    if J.generators:
        forms.append(J.generators[0].over(field))
    return forms


def reference_multiples(J, k, forms):
    """`multiples` by full coefficient vectors: each f * x^m, x^m a non-pivot
    monomial of J's piece in degree k - deg f, reduced against J_k."""
    basis = monomial_basis(J.M, k)
    vectors = []
    for f in forms:
        e = f.degree
        if e is None or e > k:
            continue
        pivots = set(J.graded_piece(k - e).pivot_cols)
        vectors += [f.shift(m).coefficient_vector(basis)
                    for j, m in enumerate(monomial_basis(J.M, k - e)) if j not in pivots]
    return reference_quotient_rows(J, k, vectors)


@pytest.mark.parametrize("name", sorted(QUOTIENT_VARIETIES))
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_forms_match_full_coordinate_remainders(name, data):
    make, k_max = QUOTIENT_VARIETIES[name]
    J = make()
    forms = data.draw(forms_of_degree_0_to_3(J))
    for k in range(k_max + 1):
        pivots = set(J.graded_piece(k).pivot_cols)
        std = J.normal_forms(k)[0]
        assert std == [m for j, m in enumerate(monomial_basis(J.M, k)) if j not in pivots]
        assert len(std) == hilbert_function(J, k)
        assert J.multiples(k, forms) == reference_multiples(J, k, forms)


@pytest.mark.parametrize("name", sorted(REFERENCE_VARIETIES))
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(data=st.data())
def test_certificate_degree_matches_full_coordinates(name, data):
    make, n, _ = REFERENCE_VARIETIES[name]
    J = make()
    Qs = data.draw(random_forms(J, n + 1, field=RATIONAL))
    s_max = 4
    cert = nullstellensatz_certificate(J, Qs, s_max)

    def powers_in_piece(s):
        piece = J.graded_piece(s, extra=Qs)
        basis = monomial_basis(J.M, s)
        return all(piece.contains([int(e[i] == s) for e in basis])
                   for i in range(J.nvars))

    expected = next((s for s in range(1, s_max + 1) if powers_in_piece(s)), None)
    assert (None if cert is None else cert.s) == expected
    assert cert is None or cert.verify()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=8), st.integers(1, 5))
def test_constant_tail_matches_both_old_rules(values, window):
    onset = constant_tail(values, window)
    # the stabilization scan's rule on the values for k = 0..k_max
    k_max = len(values) - 1
    assert onset == next((start for start in range(k_max - window + 2)
                          if all(v == values[start] for v in values[start:])), None)
    # the admissibility evidence's rule: the last `window` values agree
    if len(values) >= window:
        tail = values[-window:]
        old = tail[0] if all(v == tail[0] for v in tail) else None
        assert (None if onset is None else values[onset]) == old


def test_commands_never_build_full_pieces_with_targets(monkeypatch, tmp_path):
    original = gg.ideal_graded_piece

    def ideal_only(J, extra, k):
        assert not extra, "a command built (J, targets) in full monomial coordinates"
        return original(J, extra, k)

    monkeypatch.setattr(gg, "ideal_graded_piece", ideal_only)
    problems = Path(__file__).resolve().parent.parent / "problems"
    runs = [
        (["admissible", "--input", str(problems / "conic.prob")], EXIT_OK),
        # no certificate: the quotient-dimension evidence path
        (["admissible", "--input", str(problems / "conic_degenerate.prob")],
         EXIT_PRECONDITION),
        (["filtration", "--input", str(problems / "conic.prob"), "--N", "6"], EXIT_OK),
        (["smt", "--input", str(problems / "conic.prob"), "--r-max", "6",
          "--r-steps", "2"], EXIT_OK),
    ]
    for argv, code in runs:
        assert main([*argv, "--out", str(tmp_path / "report.txt")]) == code
