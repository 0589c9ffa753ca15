"""Graded pieces of homogeneous ideals, Hilbert functions, and admissibility.

The variety ideal J is reduced once per degree in monomial coordinates (its
Macaulay piece J_k) and read into a normal-form table: the standard monomials
of degree k are the non-pivot columns of J_k, with each degree-k monomial's
class modulo J_k as a sparse row on them.  A form's class is the sum of its
terms' classes, and dim (K[x]/(J, f_1..f_r))_k is H_V(k) minus the rank of
the classes of the f_j times standard monomials (`HomogeneousIdeal.multiples`).
The same rows decide the membership tests of the admissibility
certificates.  Degree and dimension come from finite differences of H_V.

Admissibility of a set of moving hypersurfaces is decided with one-sided
certainty: a positive answer carries an exact membership certificate
(cofactors writing x_i^s in terms of the generators at a witness point),
while a negative answer is heuristic evidence (a stabilized positive Hilbert
value of the specialized quotient) and is always flagged as such.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .algebra import (
    RATIONAL,
    InhomogeneousInput,
    MultiPoly,
    PoleAtPoint,
    clear_denominators,
    coefficient_field,
    field_zero,
    monomial_basis,
    monomial_count,
    monomial_mul,
    zpoly_eval,
)
from .linear import ExactMatrix, GradedSubspace, solve_row_combinations

WITNESS_BOUND = 997  # witness points are drawn from the integers [-B, B]


class NotStabilized(RuntimeError):
    """Finite differences or dimension scans did not settle within the window."""


class CertificateDefect(RuntimeError):
    """An exact certificate failed its own check: an implementation bug."""


class HomogeneousIdeal:
    """A homogeneous ideal over Q given by generators, with cached normal forms.

    The variety ideal always has rational coefficients, so its pieces are
    reduced over Q once and never leave Q.  The quotient by the ideal is
    decided here: the standard monomials of degree k are the non-pivot
    columns of the reduced piece J_k (Macaulay's basis theorem; Cox, Little &
    O'Shea, ch. 5 section 3), and a degree-k form's class in the quotient is
    its remainder against J_k read on those H_V(k) columns.  Q(z)
    coefficients multiply the Q classes as they are.
    """

    def __init__(self, nvars: int, generators):
        gens = []
        for g in generators:
            if g.is_zero:
                continue
            if not g.is_homogeneous:
                raise InhomogeneousInput(f"generator {g} is not homogeneous")
            if g.nvars != nvars:
                raise ValueError("generator variable count mismatch")
            gens.append(g.over(RATIONAL))
        self.nvars = nvars
        self.generators = tuple(gens)
        self._normal_forms: dict[int, tuple] = {}

    @property
    def M(self) -> int:
        return self.nvars - 1

    def graded_piece(self, k: int, extra=()) -> GradedSubspace:
        """J_k, or (J, extra)_k, reduced in full monomial coordinates and not
        cached: the commands read J only through `normal_forms`."""
        return ideal_graded_piece(self, list(extra), k)

    def normal_forms(self, k: int) -> tuple[list, dict]:
        """(standard monomials of degree k, {degree-k monomial: its class}),
        cached per degree.

        The standard monomials are J_k's non-pivot columns in monomial_basis
        order; a class is a sparse row of (position, coefficient) pairs on
        them.  A standard monomial is its own class, and a pivot monomial's
        class is minus the rest of its RREF row, which is zero in every other
        pivot column.
        """
        if k not in self._normal_forms:
            piece = self.graded_piece(k)
            basis = monomial_basis(self.M, k)
            pivots = set(piece.pivot_cols)
            std = [j for j in range(len(basis)) if j not in pivots]
            classes = {basis[j]: ((i, 1),) for i, j in enumerate(std)}
            for pc, row in zip(piece.pivot_cols, piece.basis.entries):
                classes[basis[pc]] = tuple((i, -row[j]) for i, j in enumerate(std) if row[j])
            self._normal_forms[k] = ([basis[j] for j in std], classes)
        return self._normal_forms[k]

    def multiples(self, k: int, forms) -> list[list]:
        """Quotient rows of f * x^m, for each nonzero form f of degree e <= k and
        each standard monomial x^m of degree k - e.  They span (J, forms)_k
        modulo J_k: a degree-(k - e) form is a combination of standard monomials
        plus an element of J_{k-e} (Macaulay's basis theorem), and f * J_{k-e}
        lies in J_k.  A row is the sum of c * class(t * x^m) over the terms
        c * x^t of f, which is the remainder of f * x^m against J_k's RREF:
        that remainder, v[j] - sum_r v[pc_r] * row_r[j] on each standard
        column j, is linear in v, and a monomial's remainder is its class."""
        std, classes = self.normal_forms(k)
        rows = []
        for f in forms:
            if not f.is_homogeneous:
                raise InhomogeneousInput(f"{f} is not homogeneous")
            e = f.degree
            if e is None or e > k:
                continue
            zero = field_zero(f.field)
            for m in self.normal_forms(k - e)[0]:
                row = [zero] * len(std)
                for t, c in f.terms.items():
                    for i, v in classes[monomial_mul(t, m)]:
                        row[i] += c * v
                rows.append(row)
        return rows

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"HomogeneousIdeal(<{gens}> in {self.nvars} vars over Q)"


def macaulay_rows(generators, k: int, nvars: int, field: str):
    """Rows g*m (g a generator, m a monomial of degree k - deg g) in degree-k coordinates.

    Returns (rows, labels) where labels[i] = (generator index, shift monomial).
    """
    basis = monomial_basis(nvars - 1, k)
    index = {exp: i for i, exp in enumerate(basis)}
    zero = field_zero(field)
    rows, labels = [], []
    for gi, g in enumerate(generators):
        e = g.degree
        if e is None or e > k:
            continue
        for m in monomial_basis(nvars - 1, k - e):
            shifted = g.shift(m)
            row = [zero] * len(basis)
            for exp, c in shifted.terms.items():
                row[index[exp]] = c
            rows.append(row)
            labels.append((gi, m))
    return rows, labels


def ideal_graded_piece(J: HomogeneousIdeal, extra, k: int) -> GradedSubspace:
    """Degree-k slice of the ideal generated by J's generators plus `extra`,
    over the field that `extra` calls for."""
    if k < 0:
        raise ValueError("negative degree")
    for q in extra:
        if not q.is_homogeneous:
            raise InhomogeneousInput(f"{q} is not homogeneous")
    field = coefficient_field(extra)
    gens = [g.over(field) for g in (*J.generators, *extra)]
    rows, _ = macaulay_rows(gens, k, J.nvars, field)
    return GradedSubspace.from_rows(rows, cols=monomial_count(J.M, k), field=field)


def hilbert_function(J: HomogeneousIdeal, k: int, forms=()) -> int:
    """dim (K[x]/(J, forms))_k, over the field the forms call for.

    (J, forms)_k is J_k plus the span of the forms' `multiples`, rows already
    reduced modulo J_k: the dimension is H_V(k) minus their rank.
    """
    h = len(J.normal_forms(k)[0])
    if not forms:
        return h
    field = coefficient_field(forms)
    rows = J.multiples(k, [f.over(field) for f in forms])
    return h - GradedSubspace.from_rows(rows, cols=h, field=field).dim


def constant_tail(values, window: int) -> int | None:
    """Start of the constant tail of `values` if it is `window` or longer, else None."""
    return next((start for start in range(len(values) - window + 1)
                 if all(v == values[start] for v in values[start:])), None)


@dataclass
class HilbertRecord:
    values: dict[int, int]
    dim_v: int | None = None
    deg_v: int | None = None


def variety_invariants(J: HomogeneousIdeal, k_max: int, window: int = 3) -> tuple[int, int]:
    """(n, deg V) from the eventual Hilbert polynomial, via finite differences.

    n is the index of the last nonzero finite difference once differences are
    constant over `window` consecutive values; deg V is n! times that leading
    difference.  Raises NotStabilized when no difference order settles within
    k_max.
    """
    rec = hilbert_record(J, k_max, window)
    if rec.dim_v is None:
        raise NotStabilized(
            f"Hilbert differences not constant over a window of {window} by degree {k_max}")
    return rec.dim_v, rec.deg_v


def hilbert_record(J: HomogeneousIdeal, k_max: int, window: int = 3) -> HilbertRecord:
    values = {k: hilbert_function(J, k) for k in range(k_max + 1)}
    rec = HilbertRecord(values=values)
    diff = list(values.values())
    for order in range(k_max + 1):
        if constant_tail(diff, window) is not None:
            lead = diff[-1]
            if lead == 0:
                # Empty variety: the Hilbert polynomial is identically zero.
                rec.dim_v, rec.deg_v = -1, 0
            else:
                rec.dim_v, rec.deg_v = order, math.factorial(order) * lead
            return rec
        diff = [b - a for a, b in zip(diff, diff[1:])]
    return rec


def specialize_space(W: GradedSubspace, a) -> GradedSubspace:
    """Evaluate a Q(z)-subspace at z = a and re-echelonize over Q; a subspace
    over Q is returned unchanged.

    Each echelon row is first replaced by its primitive polynomial
    representative (denominators cleared, common z-factor divided out), so the
    value space matches the moving-subspace definition even where the
    normalized basis itself has a pole or a vanishing pivot; for all but a
    discrete set of a the dimension is preserved (rank drops are the
    detectable bad set).
    """
    if W.field == RATIONAL:
        return W
    a = Fraction(a)
    rows = []
    for row in W.basis.entries:
        primitive = clear_denominators(row)
        values = [zpoly_eval(p, a) for p in primitive]
        if row and any(c for c in row) and not any(values):
            raise PoleAtPoint(
                f"primitive row vanished entirely at z={a}; "
                "the subspace cannot be specialized there")
        rows.append(values)
    return GradedSubspace.from_rows(rows, cols=W.basis.cols, field=RATIONAL)


# ---------------------------------------------------------------------------
# Nullstellensatz-style certificates and admissibility.
# ---------------------------------------------------------------------------

@dataclass
class NullstellensatzCertificate:
    """Exact cofactors writing x_i^s in the ideal generated by gens + Qs.

    cofactors[i] is a list of polynomials, one per generator (the ideal's
    generators first, then the Qs), with
    sum_g cofactors[i][g] * gen_g == x_i^s.
    """

    s: int
    cofactors: list[list[MultiPoly]]
    generators: list[MultiPoly]

    def verify(self) -> bool:
        nvars = self.generators[0].nvars
        ftag = self.generators[0].field
        for i, cofs in enumerate(self.cofactors):
            exp = [0] * nvars
            exp[i] = self.s
            target = MultiPoly.monomial(nvars, exp, 1, ftag)
            acc = MultiPoly.zero(nvars, ftag)
            for cof, g in zip(cofs, self.generators):
                acc = acc + cof * g
            if acc != target:
                return False
        return True


def nullstellensatz_certificate(J: HomogeneousIdeal, Qs, s_max: int):
    """Smallest s <= s_max with x_i^s in (J, Qs)_s for every variable, or None.

    x_i^s is in (J, Qs)_s when its class modulo J_s is in the span of the Qs'
    `multiples`; only at the s that passes is the full Macaulay system solved
    for the cofactors.  The certificate re-verifies by substitution.  None
    means NOT_FOUND within the cutoff, which is inconclusive for genuinely
    admissible systems with larger s.
    """
    field = coefficient_field(Qs)
    Qs = [q.over(field) for q in Qs if not q.is_zero]
    nvars = J.nvars
    for s in range(1, s_max + 1):
        span = GradedSubspace.from_rows(J.multiples(s, Qs),
                                        cols=hilbert_function(J, s), field=field)
        powers = [MultiPoly.monomial(nvars, [s if j == i else 0 for j in range(nvars)],
                                     1, field) for i in range(nvars)]
        if not all(span.contains(v) for v in J.multiples(s, powers)):
            continue
        basis = monomial_basis(nvars - 1, s)
        targets = [p.coefficient_vector(basis) for p in powers]
        gens = [g.over(field) for g in J.generators] + Qs
        rows, labels = macaulay_rows(gens, s, nvars, field)
        A = ExactMatrix.from_rows(rows, len(basis), field)
        sols = solve_row_combinations(A, targets)
        cofactors = []
        for sol in sols:
            if sol is None:
                raise CertificateDefect(
                    f"x_i^{s} passed the membership test but has no cofactors")
            per_gen = [MultiPoly.zero(nvars, field) for _ in gens]
            for coeff, (gi, m) in zip(sol, labels):
                if coeff:
                    per_gen[gi] = per_gen[gi] + MultiPoly.monomial(nvars, m, coeff, field)
            cofactors.append(per_gen)
        return NullstellensatzCertificate(s=s, cofactors=cofactors, generators=gens)
    return None


ADMISSIBLE = "ADMISSIBLE"
NOT_ADMISSIBLE_EVIDENCE = "NOT_ADMISSIBLE_EVIDENCE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class AdmissibilityCertificate:
    subset: tuple[int, ...]
    witness: Fraction
    s: int
    certificate: NullstellensatzCertificate


@dataclass
class SubsetReport:
    subset: tuple[int, ...]
    status: str
    certificates: list[AdmissibilityCertificate] = field(default_factory=list)
    witnesses_tried: list[Fraction] = field(default_factory=list)
    witnesses_succeeded: int = 0
    evidence_value: int | None = None
    warning: str | None = None


def admissibility_check(J: HomogeneousIdeal, Qs, n: int, *, s_max: int, trials: int = 5,
                        seed: int = 0) -> list[SubsetReport]:
    """Per-(n+1)-subset admissibility report for hypersurfaces of common degree.

    Positive answers are sound: each carries a certificate at a random integer
    witness, re-verified here before it counts (CertificateDefect if not).
    Negative answers report the positive Hilbert value of the specialized
    quotient when it is constant over the M + 2 degrees ending at
    s_max + M + 3, and are marked heuristic.
    """
    degs = {q.degree for q in Qs}
    if len(degs) != 1:
        raise InhomogeneousInput(
            "hypersurfaces must share a common degree; apply normalize_degrees first")
    rng = random.Random(seed)
    reports = []
    for subset in combinations(range(len(Qs)), n + 1):
        report = SubsetReport(subset=subset, status=INCONCLUSIVE)
        last_specialized = None
        for _ in range(trials):
            a = Fraction(rng.randint(-WITNESS_BOUND, WITNESS_BOUND))
            try:
                specialized = [Qs[j].specialize(a) for j in subset]
            except PoleAtPoint:
                continue
            if any(q.is_zero for q in specialized):
                continue  # degenerate witness: some hypersurface vanished entirely
            report.witnesses_tried.append(a)
            last_specialized = specialized
            cert = nullstellensatz_certificate(J, specialized, s_max)
            if cert is not None:
                if not cert.verify():
                    raise CertificateDefect(
                        f"certificate for subset {subset} at witness {a} "
                        "fails re-verification")
                report.witnesses_succeeded += 1
                report.certificates.append(AdmissibilityCertificate(
                    subset=subset, witness=a, s=cert.s, certificate=cert))
        if report.certificates:
            report.status = ADMISSIBLE
        elif last_specialized is not None:
            window = J.nvars + 1  # M + 2 consecutive degrees
            values = [hilbert_function(J, k, last_specialized)
                      for k in range(s_max + window + 2)]
            onset = constant_tail(values, window)
            if onset is not None and values[onset] > 0:
                report.status = NOT_ADMISSIBLE_EVIDENCE
                report.evidence_value = values[onset]
                report.warning = (
                    "heuristic: stabilized positive quotient dimension "
                    f"{values[onset]}; no certificate up to s={s_max}")
            else:
                report.status = INCONCLUSIVE
                report.warning = (
                    f"no certificate up to s={s_max} and no stabilized quotient value")
        else:
            report.warning = "no usable witness points (poles or vanishing at all draws)"
        reports.append(report)
    return reports

