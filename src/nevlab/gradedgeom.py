"""Graded pieces of homogeneous ideals, Hilbert functions, and admissibility.

The central construction is the Macaulay-style graded piece: the degree-k
slice of an ideal is spanned by monomial multiples of its generators, row
reduced in monomial coordinates.  Dimension counts of quotients (Hilbert
function values), degree/dimension extraction from finite differences, and
specialization of coefficient functions all run on top of that.

Admissibility of a set of moving hypersurfaces is decided with one-sided
certainty: a positive answer carries an exact membership certificate
(cofactors writing x_i^s in terms of the generators at a witness point),
while a negative answer is heuristic evidence (a stabilized positive Hilbert
value of the specialized quotient) and is always flagged as such.
"""

from __future__ import annotations

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
    zpoly_eval,
)
from .linear import ExactMatrix, GradedSubspace, solve_row_combinations

WITNESS_BOUND = 997  # witness points are drawn from the integers [-B, B]


class NotStabilized(RuntimeError):
    """Finite differences or dimension scans did not settle within the window."""


class CertificateDefect(RuntimeError):
    """An exact certificate failed its own check: an implementation bug."""


class HomogeneousIdeal:
    """A homogeneous ideal over Q given by generators, with cached graded pieces.

    The variety ideal always has rational coefficients, so its pieces are
    reduced over Q once and never leave Q.  The quotient by the ideal is
    decided here: the standard monomials of degree k are the non-pivot
    columns of the reduced piece J_k (Macaulay's basis theorem; Cox, Little &
    O'Shea, ch. 5 section 3), and a degree-k row's class in the quotient is
    its remainder against J_k read on those H_V(k) columns.  A Q(z) row is
    reduced against the Q piece as it is.
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
        self._piece_cache: dict[int, GradedSubspace] = {}

    @property
    def M(self) -> int:
        return self.nvars - 1

    def graded_piece(self, k: int, extra=()) -> GradedSubspace:
        if not extra and k in self._piece_cache:
            return self._piece_cache[k]
        piece = ideal_graded_piece(self, list(extra), k)
        if not extra:
            self._piece_cache[k] = piece
        return piece

    def standard_columns(self, k: int) -> list[int]:
        """Indices in monomial_basis(M, k) of the degree-k standard monomials."""
        pivots = set(self.graded_piece(k).pivot_cols)
        return [j for j in range(monomial_count(self.M, k)) if j not in pivots]

    def quotient_rows(self, k: int, rows) -> list[list]:
        """Each degree-k row's remainder against J_k, on the standard columns."""
        piece = self.graded_piece(k)
        std = self.standard_columns(k)
        return [[rem[j] for j in std]
                for rem in (piece.reduce_vector(row)[0] for row in rows)]

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
    return GradedSubspace.from_rows(
        rows, ambient_degree=k, nvars=J.nvars,
        cols=monomial_count(J.M, k), field=field)


def hilbert_function(J: HomogeneousIdeal, k: int) -> int:
    """dim of degree-k forms modulo the ideal's degree-k piece."""
    return monomial_count(J.M, k) - J.graded_piece(k).dim


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
    import math

    values = {k: hilbert_function(J, k) for k in range(k_max + 1)}
    seq = [values[k] for k in range(k_max + 1)]
    rec = HilbertRecord(values=values)
    diff = seq[:]
    for order in range(0, k_max + 1):
        tail = diff[-window:] if len(diff) >= window else []
        if tail and all(v == tail[0] for v in tail):
            lead = tail[0]
            if lead == 0:
                # Empty variety: the Hilbert polynomial is identically zero.
                rec.dim_v, rec.deg_v = -1, 0
            else:
                rec.dim_v, rec.deg_v = order, math.factorial(order) * lead
            return rec
        diff = [b - a for a, b in zip(diff, diff[1:])]
        if len(diff) < window:
            break
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
    return GradedSubspace.from_rows(
        rows, ambient_degree=W.ambient_degree, nvars=W.nvars,
        cols=W.basis.cols, field=RATIONAL)


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

    The returned certificate carries exact cofactors and re-verifies by
    substitution.  None means NOT_FOUND within the cutoff, which is
    inconclusive for genuinely admissible systems with larger s.
    """
    for q in Qs:
        if not q.is_homogeneous:
            raise InhomogeneousInput(f"{q} is not homogeneous")
    field = coefficient_field(Qs)
    gens = [g.over(field) for g in (*J.generators, *Qs) if not g.is_zero]
    nvars = J.nvars
    for s in range(1, s_max + 1):
        basis = monomial_basis(nvars - 1, s)
        rows, labels = macaulay_rows(gens, s, nvars, field)
        if not rows:
            continue
        piece = GradedSubspace.from_rows(
            rows, ambient_degree=s, nvars=nvars, cols=len(basis), field=field)
        targets = [MultiPoly.monomial(nvars, [s if j == i else 0 for j in range(nvars)],
                                      1, field).coefficient_vector(basis)
                   for i in range(nvars)]
        if not all(piece.contains(v) for v in targets):
            continue
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


def default_s_max(d: int, n: int, J: HomogeneousIdeal) -> int:
    gen_deg = max((g.degree or 1 for g in J.generators), default=1)
    return d * (n + 1) + gen_deg


def admissibility_check(J: HomogeneousIdeal, Qs, n: int, *, trials: int = 5,
                        s_max: int | None = None, seed: int = 0,
                        evidence_window: int | None = None) -> list[SubsetReport]:
    """Per-(n+1)-subset admissibility report for hypersurfaces of common degree.

    Positive answers are sound: each carries a certificate at a random integer
    witness, re-verified here before it counts (CertificateDefect if not).
    Negative answers report the stabilized positive Hilbert value of the
    specialized quotient and are marked heuristic.
    """
    degs = {q.degree for q in Qs}
    if len(degs) != 1:
        raise InhomogeneousInput(
            "hypersurfaces must share a common degree; apply normalize_degrees first")
    d = degs.pop()
    if s_max is None:
        s_max = default_s_max(d, n, J)
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
            value = _stable_quotient_value(J, last_specialized, s_max, evidence_window)
            if value is not None and value > 0:
                report.status = NOT_ADMISSIBLE_EVIDENCE
                report.evidence_value = value
                report.warning = (
                    "heuristic: stabilized positive quotient dimension "
                    f"{value}; no certificate up to s={s_max}")
            else:
                report.status = INCONCLUSIVE
                report.warning = (
                    f"no certificate up to s={s_max} and no stabilized quotient value")
        else:
            report.warning = "no usable witness points (poles or vanishing at all draws)"
        reports.append(report)
    return reports


def _stable_quotient_value(J: HomogeneousIdeal, Qs, s_max: int,
                           window: int | None) -> int | None:
    """Stabilized Hilbert value of K[x]/(J, Qs) over `window` consecutive degrees."""
    if window is None:
        window = J.nvars + 1  # M + 2 consecutive degrees
    k_hi = s_max + window + 1
    values = []
    for k in range(k_hi + 1):
        values.append(monomial_count(J.M, k) - J.graded_piece(k, extra=Qs).dim)
    tail = values[-window:]
    if all(v == tail[0] for v in tail):
        return tail[0]
    return None
