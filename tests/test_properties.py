"""Property tests of the filtration on generated targets.

Targets are random degree-d forms on the conic, the twisted cubic and P^1.
Constant targets have small integer coefficients and are tagged either Q or
Q(z): both must be computed over Q.  Moving targets have coefficients a + b*z
with small integers a, b and are computed over Q(z).  Every table must agree
with the generic Q(z) elimination of `oracle_m`, which never touches the
preimage or kernel code.  The stabilization scan must find the same n0, and
the table built on the scan's n0 and kappa must satisfy the weighted-sum
closed forms.  On constant targets the scan's stable m^I must also equal
m_N^I of the whole table at every degree N of I's window.

On n = 2, the quadric surface x0*x3 - x1*x2 with two constant hyperplanes
(coefficients in -2..2) must tile its quotient with interior cells
deg V * d^n = 2, satisfy the closed forms and pass the same window check.
Every table, on n = 1 and n = 2, must match the filtration in full monomial
coordinates (`reference_build_table`) cell by cell, and `filtration_space`
down to a tuple I must give the table's cells from the top of tau_N down to
I, in descending lex order.  At every degree N that the stabilization scan
reads, the `filtration_space` pass down to the lowest box tuple read at N
must give the scan's stable m^I.
The scan itself, which is certified from the Hilbert function of (J, Q) at
one point z = a on regular targets, must give the elimination's result on
random targets, non-regular ones included; so must the tables certified the
same way at their own N, whose m must be those of `filtration_space` and
whose cells must be the full-coordinate reference's.

The normal-form tables that J reads from its lex Gröbner basis must equal
the tables row-reduced from its Macaulay pieces (`reference_normal_forms`),
coefficient types included, on the test varieties, on random ideals and on
fixed ideals that reach each way G gains an element; G itself must be the
reduced basis.

The quotients by the variety ideal plus targets are decided on the standard
monomials (`hilbert_function` with forms, the certificates' membership
test); both must agree with the full-coordinate reference piece
`graded_piece(k, extra)`, which no command may call.  The classes that
`multiples` sums from the normal-form table must equal the remainders of
the full coefficient vectors against J_k (`reference_quotient_rows`).  The
values `hilbert_function` reads off Gotzmann persistence must equal the
full-coordinate dimensions, or the values computed directly from the normal
forms, up to degree 20 on random ideals and forms, and every pair of
consecutive values must satisfy Macaulay's bound.
Certificates, and the s that `admissibility_check` reports at each witness
on its primitive forms, must match the certificate solved in full monomial
coordinates on the raw forms (`reference_nullstellensatz_certificate`).
The search for s, which tests membership at every degree but the one it
certifies, must give the same certificate from every start on random
primitive pairs on P^1, the conic and the twisted cubic, and a full solve one
degree below its s must leave some power outside the span.

The parser must read random expression texts (sums, products, powers,
parentheses, rational literals and `{...}` coefficients in z with division)
as the value the same expression gives when built with the MultiPoly and
RationalFunction operators from their coercing constructors, coefficient
types included, or fail exactly where that build divides by zero; and the
printed form of a random polynomial over Q or Q(z), which every report
echoes, must parse back to it.
"""

import math
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
    coefficient_field,
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
from nevlab import filtration as filt
from nevlab import gradedgeom as gg
from nevlab.cli import EXIT_OK, EXIT_PRECONDITION, ProblemSyntaxError, main, parse_polynomial
from nevlab.gradedgeom import constant_tail, hilbert_function, nullstellensatz_certificate
from nevlab.linear import ExactMatrix, solve_row_combinations

from helpers import (
    coefficient_vector,
    conic_ideal,
    contains,
    expression_text,
    expression_value,
    p1_ideal,
    plane_ideal,
    quadric_ideal,
    reference_build_table,
    reference_normal_forms,
    reference_nullstellensatz_certificate,
    reference_quotient_rows,
    reference_scan_lowest,
    reference_stabilization_scan,
    twisted_cubic_ideal,
    typed_terms,
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
    assume(not contains(J.graded_piece(d), [Fraction(c) for c in coeffs]))
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
    assume(not contains(J.graded_piece(d), coefficient_vector(Q, basis)))
    return J, deg_v, d, N, Q


@st.composite
def quadric_fixed(draw):
    """Two constant hyperplanes meeting the quadric surface in 2 points."""
    J = quadric_ideal()
    basis = monomial_basis(J.M, 1)
    coeffs = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
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


def check_scan_windows(J, Qs, d, scan):
    """Each stable m^I equals m_N^I of the whole table at every N of I's window."""
    tables = {}
    for I, m in scan.m_stable.items():
        for k in range(scan.n0, scan.n0 + WINDOW):
            N = d * tuple_norm(I) + k
            if N not in tables:
                tables[N] = build_table(J, Qs, N)
            assert tables[N].cells[I].m == m, (I, N)


def check_weighted_sums(J, deg_v, d, N, Q, field):
    """Check the table of (J, Q) at N, then the scan and the weighted sums."""
    n0 = check_table(J, deg_v, d, N, Q, field)
    # The weighted-sum closed forms hold on tau_N^0, which depends on the
    # scan's n0 and kappa.
    scan = stabilization_scan(J, [Q], N, window=WINDOW)
    assert scan.n0 == n0
    ws = weighted_sums(build_table(J, [Q], N, n0=scan.n0, kappa=scan.kappa), deg_v)
    assert ws.symmetric and ws.dominated and ws.closed_form
    return scan


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(instances())
def test_constant_targets(instance):
    scan = check_weighted_sums(*instance, RATIONAL)
    J, _, d, _, Q = instance
    check_scan_windows(J, [Q], d, scan)


@pytest.mark.parametrize("name", sorted(VARIETIES))
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(data=st.data())
def test_moving_targets(name, data):
    instance = data.draw(moving_instances(name))
    scan = check_weighted_sums(*instance, RATIONAL_FUNCTION)
    J, _, d, _, Q = instance
    check_scan_windows(J, [Q], d, scan)


@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(quadric_fixed())
def test_quadric_constant_hyperplanes(instance):
    J, Qs, N = instance
    scan = stabilization_scan(J, Qs, WINDOW, window=WINDOW)
    assert (scan.n0, scan.c) == (1, 2)
    check_scan_windows(J, Qs, 1, scan)
    table = build_table(J, Qs, N, n0=scan.n0, kappa=scan.kappa)
    ms = {I: cell.m for I, cell in table.cells.items()}
    assert sum(ms.values()) == table.hilbert_value == (N + 1) ** 2
    interior = [I for I in table.tau if N - tuple_norm(I) >= scan.n0]
    assert interior and all(ms[I] == 2 for I in interior)  # deg V * d^n = 2 * 1^2
    ws = weighted_sums(table, 2)
    assert ws.symmetric and ws.dominated and ws.closed_form


def test_quadric_scan_with_wide_coefficients():
    # The hyperplanes -2x0 + x1 + x2 - 2x3 and -x0 + x1 + 2x3, scanned up to
    # k = 8: every box tuple settles at deg V * d^n = 2.
    J = quadric_ideal()
    x0, x1, x2, x3 = (MultiPoly.variable(4, i) for i in range(4))
    Qs = [x1 + x2 - (x0 + x3).scale(2), x1 - x0 + x3.scale(2)]
    scan = stabilization_scan(J, Qs, 8, window=WINDOW)
    assert (scan.n0, scan.c, scan.c_prime, scan.m_min, scan.I0, scan.kappa) == (
        1, 2, 2, 2, (0, 0), 0)
    assert set(scan.m_stable.values()) == {2}


# (ideal, n, k_max) of the scans whose codimensions are checked against
# filtration_space.
SCAN_VARIETIES = {
    "conic": (conic_ideal, 1, 6),
    "twisted_cubic": (twisted_cubic_ideal, 1, 6),
    "plane": (plane_ideal, 2, 4),
    "quadric": (quadric_ideal, 2, 4),
}


@pytest.mark.parametrize("field", [RATIONAL, RATIONAL_FUNCTION])
@pytest.mark.parametrize("name", sorted(SCAN_VARIETIES))
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(data=st.data())
def test_scan_codimensions_match_filtration_space(name, field, data):
    # Every stable m^I of the scan equals m_N^I of the filtration_space pass
    # that the scan runs at a degree N of I's window where the identity
    # fails: the pass from the top of tau_N down to the lowest box tuple read
    # at N, run here at every degree the box reads.  Constant targets are
    # dense: wide rational coefficients on curves, integers in -5..5 on
    # surfaces, where the preimages grow slow.  Moving targets are
    # c*x^a + g*x^b, with c an integer and g in Q(z), which keeps the Q(z)
    # eliminations small.
    make, n, k_max = SCAN_VARIETIES[name]
    J = make()
    basis = monomial_basis(J.M, data.draw(st.integers(1, 3 - n)))
    if field == RATIONAL:
        coeff = (st.fractions(-1000, 1000, max_denominator=100) if n == 1
                 else st.integers(-5, 5))
        coeffs = st.lists(coeff, min_size=len(basis), max_size=len(basis))
        terms = coeffs.map(lambda cs: dict(zip(basis, cs)))
    else:
        coeff = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(RationalFunction)
        monomials = st.lists(st.sampled_from(basis), min_size=2, max_size=2, unique=True)
        terms = st.tuples(monomials, st.integers(-2, 2), coeff).map(
            lambda t: dict(zip(t[0], t[1:])))
    Qs = [MultiPoly(J.nvars, field, data.draw(terms)) for _ in range(n)]
    assume(not any(q.is_zero for q in Qs))
    try:
        scan = stabilization_scan(J, Qs, k_max, window=WINDOW)
    except gg.NotStabilized:
        assume(False)
    d = Qs[0].degree
    box = filt._scan_box(n, d, scan.n0)
    for N, lowest in reference_scan_lowest(box, d, scan.n0, WINDOW).items():
        cells = filtration_space(J, Qs, N, lowest)
        assert list(cells)[-1] == lowest
        read = {I: cells[I].m for I in box if 0 <= N - d * tuple_norm(I) - scan.n0 < WINDOW}
        assert read == {I: scan.m_stable[I] for I in read}, (N, lowest)


# Varieties of the certificate's differential test: (ideal, n, k_max).  The
# line x0 = 0 with an embedded point at (0:0:1) is a curve whose targets
# through that point are zero divisors on R/J.
CERTIFIED_VARIETIES = {
    "p1": (p1_ideal, 1, 6),
    "conic": (conic_ideal, 1, 6),
    "twisted_cubic": (twisted_cubic_ideal, 1, 5),
    "embedded_point": (lambda: gg.HomogeneousIdeal(3, [parse_polynomial("x0^2", 3),
                                                       parse_polynomial("x0*x1", 3)]), 1, 6),
    "plane": (plane_ideal, 2, 4),
    "quadric": (quadric_ideal, 2, 4),
}


def _target_terms(basis, field):
    """Terms of a form on `basis`: dense with integers in -3..3 over Q,
    binomials c*x^a + g*x^b with g in Q(z) over Q(z), which keeps the Q(z)
    eliminations small."""
    if field == RATIONAL:
        coeffs = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
        return coeffs.map(lambda cs: dict(zip(basis, cs)))
    coeff = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(RationalFunction)
    monomials = st.lists(st.sampled_from(basis), min_size=min(2, len(basis)),
                         max_size=2, unique=True)
    return st.tuples(monomials, st.integers(-2, 2), coeff).map(
        lambda t: dict(zip(t[0], t[1:])))


@st.composite
def certificate_instances(draw, name):
    """n targets of degree d over Q or Q(z).  Some draws are not regular
    sequences: targets with a common linear factor, or forms in x0, x1
    alone, which on the embedded-point ideal pass through (0:0:1) and on
    the quadric meet in the line x0 = x1 = 0."""
    make, n, k_max = CERTIFIED_VARIETIES[name]
    J = make()
    d = draw(st.integers(1, 3 - n))
    field = draw(st.sampled_from([RATIONAL, RATIONAL_FUNCTION]))
    shape = draw(st.sampled_from(["random", "shared_factor", "in_x0_x1"]))
    if shape == "shared_factor" and d == 2:
        factor = MultiPoly(J.nvars, RATIONAL, draw(_target_terms(monomial_basis(J.M, 1),
                                                                 RATIONAL)))
        terms = _target_terms(monomial_basis(J.M, 1), field)
        Qs = [factor.over(field) * MultiPoly(J.nvars, field, draw(terms)) for _ in range(n)]
    else:
        basis = monomial_basis(J.M, d)
        if shape == "in_x0_x1":
            basis = [e for e in basis if not any(e[2:])]
        Qs = [MultiPoly(J.nvars, field, draw(_target_terms(basis, field))) for _ in range(n)]
    assume(not any(q.is_zero for q in Qs))
    return J, Qs, k_max


@pytest.mark.parametrize("name", sorted(CERTIFIED_VARIETIES))
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_scan_certificate_matches_elimination(name, data):
    # The scan, with each degree certified or eliminated, must give what
    # the elimination-only reference gives on the same targets: equal
    # results, or NotStabilized from both.
    J, Qs, k_max = data.draw(certificate_instances(name))

    def outcome(scan):
        try:
            return scan(J, Qs, k_max, WINDOW)
        except gg.NotStabilized:
            return None

    assert outcome(stabilization_scan) == outcome(reference_stabilization_scan)


# Largest N of the certified tables' differential test, per variety of
# CERTIFIED_VARIETIES.
TABLE_N_MAX = {"p1": 6, "conic": 5, "twisted_cubic": 4, "embedded_point": 6,
               "plane": 3, "quadric": 3}


@pytest.mark.parametrize("name", sorted(CERTIFIED_VARIETIES))
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_certified_table_matches_elimination(name, data):
    # build_table reads its m off the Hilbert function of (J, Q) where the
    # identity holds at N, and eliminates where it fails, as on some of the
    # non-regular draws.  Either way its m must be those of one
    # filtration_space pass, read before any rep, and its cells must be
    # the full-coordinate reference's.
    J, Qs, _ = data.draw(certificate_instances(name))
    N = data.draw(st.integers(0, TABLE_N_MAX[name]))
    table = build_table(J, Qs, N)
    ms = {I: cell.m for I, cell in table.cells.items()}
    assert ms == {E: cell.m for E, cell in filtration_space(J, Qs, N, (0,) * len(Qs)).items()}
    assert {I: (ms[I], cell.reps) for I, cell in table.cells.items()} == \
        reference_build_table(J, Qs, N)


@pytest.mark.parametrize("name", sorted(REFERENCE_VARIETIES))
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_quotient_coordinates_match_full_coordinates(name, data):
    J, Qs, N = data.draw(reference_instances(name))
    table = build_table(J, Qs, N)
    got = {I: (cell.m, cell.reps) for I, cell in table.cells.items()}
    assert got == reference_build_table(J, Qs, N)
    I = data.draw(st.sampled_from(table.tau))
    cells = filtration_space(J, Qs, N, I)
    assert list(cells.items()) == [(E, table.cells[E]) for E in reversed(table.tau) if E >= I]


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
        vectors += [coefficient_vector(f.shift(m), basis)
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
        std = J.normal_forms(k)[0]
        assert typed_table(J.normal_forms(k)) == typed_table(reference_normal_forms(J, k))
        assert len(std) == hilbert_function(J, k)
        assert J.multiples(k, forms) == reference_multiples(J, k, forms)


def typed_table(table):
    """A normal-form table with each coefficient's type beside it, so that
    an integral Fraction does not compare equal to an int."""
    std, classes = table
    return std, {t: tuple((i, type(v), v) for i, v in row) for t, row in classes.items()}


def assert_reduced_groebner_basis(J):
    """G, as far as it is built, is J's reduced lex Gröbner basis: no leading
    monomial divides another, and each element is t - NF(t) for its leading
    monomial t, with NF(t) read from the Macaulay table of its degree."""
    lts = [lt for lt, _ in J._groebner]
    for i, a in enumerate(lts):
        assert not any(j != i and all(x >= y for x, y in zip(a, b)) for j, b in enumerate(lts))
    for lt, tail in J._groebner:
        std, classes = reference_normal_forms(J, sum(lt))
        assert sorted(tail) == sorted((std[i], -v) for i, v in classes[lt])


@st.composite
def random_ideals(draw):
    """1 to 3 quadrics or cubics in 3 or 4 variables, each with 1 to 4
    terms whose coefficients are small Fractions, and the largest degree to
    compare tables at.  The degree bound (7 in 3 variables, 5 in 4) keeps the
    Macaulay reference cheap; it is there for time only."""
    nvars = draw(st.integers(3, 4))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        basis = monomial_basis(nvars - 1, draw(st.integers(2, 3)))
        terms = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4, unique=True))
        gens.append(MultiPoly(nvars, RATIONAL, {t: draw(coeff) for t in terms}))
    return gg.HomogeneousIdeal(nvars, gens), 7 if nvars == 3 else 5


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_normal_forms_of_random_ideals_match_macaulay_tables(data):
    # Degrees are asked for in a drawn order, so G is sometimes grown past a
    # degree before that degree's table is read.
    J, k_max = data.draw(random_ideals())
    for k in data.draw(st.permutations(range(k_max + 1))):
        assert typed_table(J.normal_forms(k)) == typed_table(reference_normal_forms(J, k))
    assert_reduced_groebner_basis(J)


@pytest.mark.parametrize("texts, nvars, k_max, s_pair_degree", [
    # G gains an element with leading term x0*x1*x2 in degree 3, where no
    # generator lies: the S-pair of x0^2 and x0*x3.
    (["x0*x3 - x1*x2", "x0^2 + 2*x1^2 - x2*x3 + 1/2*x3^2"], 4, 8, 3),
    # The second generator joins G only in degree 13, far above the first.
    (["x0^2", "x0*x1^12"], 3, 16, None),
    # G gains two elements in degree 4 from S-pairs; the leading monomial
    # x1^3*x2 of the second is a tail term of the first until it is reduced.
    (["-2/3*x0^2 + 3*x0*x1 + 3*x1*x2 - x2^2", "-3/2*x2^3", "2*x0^2 - 2*x1^2 - x1*x2"],
     3, 8, 4),
], ids=["s_pair_in_degree_3", "generator_in_degree_13", "two_s_pair_elements_in_degree_4"])
def test_normal_forms_of_fixed_ideals_match_macaulay_tables(texts, nvars, k_max,
                                                             s_pair_degree):
    J = gg.HomogeneousIdeal(nvars, [parse_polynomial(t, nvars, RATIONAL) for t in texts])
    for k in range(k_max, -1, -1):
        assert typed_table(J.normal_forms(k)) == typed_table(reference_normal_forms(J, k))
    assert_reduced_groebner_basis(J)
    if s_pair_degree is not None:
        generator_degrees = {g.degree for g in J.generators}
        assert s_pair_degree not in generator_degrees
        assert any(sum(lt) == s_pair_degree for lt, _ in J._groebner)


def macaulay_bound(a, s):
    """a^<s> = sum_i binom(k_i + 1, i + 1) over the s-th Macaulay
    representation a = sum_i binom(k_i, i), each k_i the largest with
    binom(k_i, i) at most what is left."""
    bound = 0
    for i in range(s, 0, -1):
        k = i - 1
        while math.comb(k + 1, i) <= a:
            k += 1
        if k >= i:
            a -= math.comb(k, i)
            bound += math.comb(k + 1, i + 1)
    return bound


# Persisted values are compared with the full-coordinate piece up to the
# degree bound of `random_ideals` (7 in 3 variables, 5 in 4), and from there
# with the values computed directly from each degree's normal forms on a
# fresh copy of the ideal, which the tests above compare with full
# coordinates: up to degree 20 in 3 variables, and 10 in 4.  The direct
# values are the work persistence saves: in 4 variables they take up to half
# a minute a draw at degree 20 over Q, and over Q(z) up to 85 s at degree 10,
# so forms over Q(z) are drawn in 3 variables only.
DIRECT_K_MAX = {3: 20, 4: 10}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_persisted_hilbert_values_match_full_coordinates(data):
    """`hilbert_function` reads each value above the onset of persistence off
    the Macaulay representation; every value must be the dimension of
    (K[x]/(J, forms))_k, on random ideals with no forms or with random forms
    over Q or Q(z), zero forms and forms inside J included, and Macaulay's
    bound must hold between every two consecutive values."""
    J, oracle_max = data.draw(random_ideals())
    field = RATIONAL if J.nvars == 4 else data.draw(st.sampled_from([RATIONAL,
                                                                     RATIONAL_FUNCTION]))
    forms = data.draw(random_forms(J, data.draw(st.integers(0, 2)), field))
    if data.draw(st.booleans()):
        forms.append(MultiPoly.zero(J.nvars, field))
    if data.draw(st.booleans()):
        forms.append(J.generators[0].over(field))  # a form inside J
    k_max = DIRECT_K_MAX[J.nvars]
    values = [hilbert_function(J, k, forms) for k in range(k_max + 1)]
    fresh = gg.HomogeneousIdeal(J.nvars, J.generators)
    field = coefficient_field(forms)
    key = tuple(f.over(field) for f in forms)
    for k, value in enumerate(values):
        if k <= oracle_max:
            expected = monomial_count(J.M, k) - fresh.graded_piece(k, extra=forms).dim
        else:
            expected = gg._quotient_dim(fresh, k, key, field)
        assert value == expected, (k, values)
    for k in range(1, k_max):
        assert values[k + 1] <= macaulay_bound(values[k], k), (k, values)


def test_late_persistence_matches_full_coordinates():
    # H_V(k) = 2k + 1 up to degree 12 and k + 13 from 13 on.  Macaulay's
    # bound is met at every degree from 1 to 12, but persistence may only
    # start at the largest generator degree, 13, where it does.
    J = gg.HomogeneousIdeal(3, [parse_polynomial(t, 3, RATIONAL) for t in ("x0^2", "x0*x1^12")])
    values = [hilbert_function(J, k) for k in range(21)]
    assert J._persistence[()][0] == 13
    fresh = gg.HomogeneousIdeal(3, J.generators)
    assert values == [monomial_count(2, k) - fresh.graded_piece(k).dim for k in range(21)]
    assert max(J._normal_forms) == 14


@pytest.mark.parametrize("name", sorted(REFERENCE_VARIETIES))
@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(data=st.data())
def test_certificate_degree_matches_full_coordinates(name, data):
    """The certificate's s is the smallest s <= s_max with every x_i^s in
    (J, Qs)_s in full coordinates, and the certificate does not depend on
    where the search for s starts.  Some instances give the last target
    Q0's zeros on V, so that None results are covered too."""
    make, n, _ = REFERENCE_VARIETIES[name]
    J = make()
    Qs = data.draw(random_forms(J, n + 1))
    if data.draw(st.booleans()):
        Qs[-1] = Qs[0].scale(-2)
    # Q(z) elimination at s = 4 on the n = 2 varieties can take over 10 s
    # an example, so forms over Q(z) stop at s = 3, for time only.
    s_max = 4 if Qs[0].field == RATIONAL else 3
    cert = nullstellensatz_certificate(J, Qs, s_max)

    def typed(c):
        """s and each cofactor's terms with their coefficients' types."""
        return c and (c.s, [[{e: (type(v), v) for e, v in p.terms.items()} for p in cofs]
                            for cofs in c.cofactors])

    for start in range(s_max + 2):
        assert typed(nullstellensatz_certificate(J, Qs, s_max, start=start)) == typed(cert)

    def powers_in_piece(s):
        piece = J.graded_piece(s, extra=Qs)
        basis = monomial_basis(J.M, s)
        return all(contains(piece, [int(e[i] == s) for e in basis])
                   for i in range(J.nvars))

    expected = next((s for s in range(1, s_max + 1) if powers_in_piece(s)), None)
    assert (None if cert is None else cert.s) == expected
    reference = reference_nullstellensatz_certificate(J, Qs, s_max)
    assert (None if reference is None else reference.s) == expected
    assert cert is None or cert.verify()


# Curves of the search's property test, with the s_max searched to.
SEARCH_S_MAX = {"p1": (p1_ideal, 6), "conic": (conic_ideal, 6),
                "twisted_cubic": (twisted_cubic_ideal, 6)}


@st.composite
def primitive_pairs(draw, J):
    """Two primitive forms of one degree d in 1..2, with integer
    coefficients in -5..5 before scaling.  In some draws both are multiples
    of one linear form L, so they share L's zeros on the curve and no
    certificate exists."""
    def form(d):
        basis = monomial_basis(J.M, d)
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis)))
        q = MultiPoly(J.nvars, RATIONAL, dict(zip(basis, coeffs)))
        assume(not q.is_zero)
        return q

    d = draw(st.integers(1, 2))
    if draw(st.booleans()):
        L = form(1)
        pair = [L, L.scale(-3)] if d == 1 else [L * form(1), L * form(1)]
    else:
        pair = [form(d), form(d)]
    return [gg.primitive_form(q) for q in pair]


def _full_solve_misses_a_power(J, Qs, s):
    """Whether the full solve of the powers x_i^s against the Qs' multiples
    at degree s, solve_row_combinations on ExactMatrix.from_rows, leaves
    some power outside their span."""
    std, classes = J.normal_forms(s)
    A = ExactMatrix.from_rows(J.multiples(s, Qs), len(std), RATIONAL)
    targets = []
    for i in range(J.nvars):
        row = [0] * len(std)
        for col, v in classes[tuple(s if j == i else 0 for j in range(J.nvars))]:
            row[col] = v
        targets.append(row)
    return any(sol is None for sol in solve_row_combinations(A, targets))


@pytest.mark.parametrize("name", sorted(SEARCH_S_MAX))
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_search_from_any_start_gives_the_scan_certificate(name, data):
    """The search for s tests membership at every degree it visits but the
    one it certifies.  From every start in 1..s_max it must give the
    certificate that the scan up from 1 gives: the same s, the same
    generators, and every cofactor coefficient with its type.  One degree
    below that s, or at s_max when there is none, the full solve must leave
    some power outside the span of the targets' multiples."""
    make, s_max = SEARCH_S_MAX[name]
    J = make()
    Qs = data.draw(primitive_pairs(J))

    def typed(c):
        def terms(p):
            return {e: (type(v), v) for e, v in p.terms.items()}
        return c and (c.s, [terms(g) for g in c.generators],
                      [[terms(p) for p in cofs] for cofs in c.cofactors])

    first = nullstellensatz_certificate(J, Qs, s_max)
    for start in range(1, s_max + 1):
        assert typed(nullstellensatz_certificate(J, Qs, s_max, start=start)) == typed(first)
    if first is None:
        assert _full_solve_misses_a_power(J, Qs, s_max)
        return
    assert first.verify()
    assert first.s == 1 or _full_solve_misses_a_power(J, Qs, first.s - 1)


# The s cutoff, trial count and number of examples below bound the test's
# time only: every witness is certified again in full coordinates.
ADMISSIBILITY_S_MAX = 4


@pytest.mark.parametrize("name", sorted(REFERENCE_VARIETIES))
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(data=st.data())
def test_admissibility_matches_full_coordinate_certificates(name, data):
    """Each witness's s is the full-coordinate certificate's s on that
    witness's raw specialized forms, and each status follows from those
    certificates or from the quotient dimensions of the raw forms."""
    make, n, _ = REFERENCE_VARIETIES[name]
    J = make()
    Qs = data.draw(random_forms(J, n + data.draw(st.integers(1, 2))))
    assume(not any(q.is_zero for q in Qs))
    if data.draw(st.booleans()):
        Qs[-1] = Qs[0].scale(-2)  # subsets holding both share Q0's zeros on V
    s_max = ADMISSIBILITY_S_MAX
    reports = gg.admissibility_check(J, Qs, n, s_max=s_max, trials=3,
                                     seed=data.draw(st.integers(0, 99)))
    for rep in reports:
        expected = []
        for a in rep.witnesses_tried:
            raw = [Qs[j].specialize(a) for j in rep.subset]
            assert not any(q.is_zero for q in raw)
            reference = reference_nullstellensatz_certificate(J, raw, s_max)
            if reference is not None:
                assert reference.verify()
                expected.append((a, reference.s))
        assert [(c.witness, c.s) for c in rep.certificates] == expected
        assert rep.witnesses_succeeded == len(expected)
        assert all(c.certificate.verify() for c in rep.certificates)
        if expected:
            assert rep.status == gg.ADMISSIBLE
            continue
        if not rep.witnesses_tried:
            assert rep.status == gg.INCONCLUSIVE
            continue
        raw = [Qs[j].specialize(rep.witnesses_tried[-1]) for j in rep.subset]
        window = J.nvars + 1
        values = [hilbert_function(J, k, raw) for k in range(s_max + window + 2)]
        onset = constant_tail(values, window)
        evidence = onset is not None and values[onset] > 0
        assert rep.status == (gg.NOT_ADMISSIBLE_EVIDENCE if evidence else gg.INCONCLUSIVE)
        assert rep.evidence_value == (values[onset] if evidence else None)


@pytest.mark.parametrize("name", sorted(REFERENCE_VARIETIES))
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_admissibility_from_the_predicted_s_equals_a_start_at_one(name, data):
    """The first search of a call starts at the s predicted from H_V, and a
    failing one may stop on a persisted Hilbert polynomial; neither may
    change a report.  Every report, certificates with their cofactors'
    coefficient types included, must equal that of a run on a fresh J
    whose first search starts at 1."""
    make, n, _ = REFERENCE_VARIETIES[name]
    Qs = data.draw(random_forms(make(), n + data.draw(st.integers(1, 2))))
    assume(not any(q.is_zero for q in Qs))
    if data.draw(st.booleans()):
        Qs[-1] = Qs[0].scale(-2)  # subsets holding both share Q0's zeros on V
    seed = data.draw(st.integers(0, 99))

    def typed(reports):
        def terms(p):
            return {e: (type(v), v) for e, v in p.terms.items()}
        return [(r, [(c.witness, c.s, [terms(g) for g in c.certificate.generators],
                      [[terms(p) for p in cofs] for cofs in c.certificate.cofactors])
                     for c in r.certificates]) for r in reports]

    predicted = gg.admissibility_check(make(), Qs, n, s_max=ADMISSIBILITY_S_MAX, trials=3,
                                       seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gg, "_predicted_s", lambda *args: 1)
        from_one = gg.admissibility_check(make(), Qs, n, s_max=ADMISSIBILITY_S_MAX, trials=3,
                                          seed=seed)
    assert typed(predicted) == typed(from_one)


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


# -- the polynomial parser ----------------------------------------------------

_LITERALS = st.tuples(st.just("num"), st.builds(Fraction, st.integers(0, 5), st.integers(1, 4)))


@st.composite
def expression_trees(draw, leaves, ops, size):
    """A tree with `size` leaves, each node possibly negated or raised to a
    power 0..2."""
    if size == 1:
        tree = draw(leaves)
    else:
        left = draw(st.integers(1, size - 1))
        tree = (draw(st.sampled_from(ops)), draw(expression_trees(leaves, ops, left)),
                draw(expression_trees(leaves, ops, size - left)))
    wrap = draw(st.sampled_from(["", "", "", "neg", "pow"]))
    if wrap == "neg":
        return ("neg", tree)
    return ("pow", tree, draw(st.integers(0, 2))) if wrap == "pow" else tree


@st.composite
def polynomial_trees(draw, nvars, field):
    leaves = [_LITERALS, st.tuples(st.just("var"), st.integers(0, nvars - 1))]
    if field == RATIONAL_FUNCTION:
        coefficient = expression_trees(st.one_of(_LITERALS, st.just(("z",))),
                                       ["+", "-", "*", "/"], draw(st.integers(1, 4)))
        leaves.append(st.tuples(st.just("coef"), coefficient))
    return draw(expression_trees(st.one_of(leaves), ["+", "-", "*"], draw(st.integers(1, 6))))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_parsed_expressions_match_operator_values(data):
    field = data.draw(st.sampled_from([RATIONAL, RATIONAL_FUNCTION]))
    nvars = data.draw(st.integers(1, 4))
    tree = data.draw(polynomial_trees(nvars, field))
    text = expression_text(tree)
    try:
        want = expression_value(tree, nvars, field)
    except ZeroDivisionError:
        with pytest.raises(ProblemSyntaxError, match="division by zero in coefficient"):
            parse_polynomial(text, nvars, field)
        return
    got = parse_polynomial(text, nvars, field)
    assert (got.nvars, got.field) == (nvars, field)
    assert typed_terms(got) == typed_terms(want), text


@st.composite
def printed_polynomials(draw):
    field = draw(st.sampled_from([RATIONAL, RATIONAL_FUNCTION]))
    nvars = draw(st.integers(1, 4))
    if field == RATIONAL:
        coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        zpoly = st.lists(st.integers(-4, 4), min_size=1, max_size=3)
        coeffs = st.builds(RationalFunction, zpoly, zpoly.filter(any))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return MultiPoly(nvars, field, draw(st.dictionaries(exps, coeffs, max_size=5)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(printed_polynomials())
def test_printed_polynomials_parse_back(p):
    q = parse_polynomial(str(p), p.nvars, p.field)
    assert typed_terms(q) == typed_terms(p), str(p)
