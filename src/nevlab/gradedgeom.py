"""Graded pieces of homogeneous ideals, Hilbert functions, and admissibility.

The variety ideal J is read through its reduced lex Gröbner basis G, built
lazily up to the largest degree asked for: at each generator degree from the
RREF of J's Macaulay piece, at every other degree from the S-pairs of that
degree.  G gives a normal-form table per degree: the standard monomials of
degree k are those no leading term of G divides, with each degree-k
monomial's class modulo J as a sparse row on them.  A form's class is the
sum of its terms' classes, and dim (K[x]/(J, f_1..f_r))_k is H_V(k) minus
the rank of the classes of the f_j times standard monomials
(`HomogeneousIdeal.multiples`).  Degree and dimension are read off the
Macaulay representation at which H_V persists (`variety_invariants`).

Each Hilbert function, H_V or that of (J, forms), is computed this way only
up to the degree where persistence starts, and read off a theorem above it
(`hilbert_function`).  Macaulay's theorem bounds every next value by
H(s + 1) <= H(s)^<s>, a sum of binomials read off the s-th Macaulay
representation of H(s); Gotzmann's persistence theorem says that once the
ideal is generated in degrees <= s and the bound is met at s, it is met at
every later degree, which fixes H(s + t) for all t.  Persistence starts at
the first such s from the largest generator degree on, which is a few
degrees for every shipped problem, so a certified filtration table at any N
builds normal forms only up to the degree after it.  Every two consecutive
values computed directly are checked against Macaulay's bound
(`HilbertDefect`).

The admissibility certificates are decided on the same rows.  Membership of
the powers x_i^s is monotone in s, so the smallest s is found by a monotone
search from a start degree.  At every degree it visits but the one it
certifies, it only tests membership: the classes of the powers against one
elimination of the targets' multiples.  An exact solve, at the start and
again only at the degree the search ends on when it moved, writes the classes
of the powers in terms of the multiples, which gives the targets' cofactors.
What is left of x_i^s lies in J_s, and its J-cofactors are read from a
per-degree table that writes each non-standard monomial t minus its normal
form in J's generators (`HomogeneousIdeal.ideal_cofactors`, one solve of
J's Macaulay rows per degree, cached like the normal forms).

Admissibility of a set of moving hypersurfaces is decided with one-sided
certainty: a positive answer carries an exact membership certificate
(cofactors writing x_i^s in terms of the generators at a witness point),
while a negative answer is heuristic evidence (a stabilized positive Hilbert
value of the specialized quotient) and is always flagged as such.  A
certificate at one witness a proves general position at generic z: every
monomial of degree (M+1)(s-1)+1 is a multiple of some x_i^s, so the
quotient at a is 0 in that degree, and the quotient over Q(z) is no larger
in any degree than at a point where no coefficient has a pole.  Each
specialized system is scaled to primitive integer forms, which generate the
same ideal, and each distinct system is certified once per check.
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
    coefficient_field,
    field_one,
    field_zero,
    monomial_basis,
    monomial_count,
    monomial_mul,
)
from .linear import Echelon, ExactMatrix, GradedSubspace, solve_row_combinations

WITNESS_BOUND = 997  # witness points are drawn from the integers [-B, B]


class NotStabilized(RuntimeError):
    """Dimension scans did not settle within the window."""


class CertificateDefect(RuntimeError):
    """An exact certificate failed its own check: an implementation bug."""


class HilbertDefect(RuntimeError):
    """Two Hilbert values computed directly break Macaulay's bound: an
    implementation bug."""


class HomogeneousIdeal:
    """A homogeneous ideal over Q given by generators, with cached normal forms.

    The variety ideal always has rational coefficients, so it never leaves
    Q.  The quotient by the ideal is decided by its reduced Gröbner basis G
    in lex order (x0 > x1 > ...), built lazily and truncated at the largest
    degree asked for: the standard monomials of degree k are those that no
    leading term of G divides (Macaulay's basis theorem; Cox, Little &
    O'Shea, ch. 5 section 3), and a degree-k form's class in the quotient is
    its remainder modulo G read on those H_V(k) monomials.  That remainder
    is unique, so it is also the form's remainder against the RREF of J_k in
    the descending-lex monomial columns.  Q(z) coefficients multiply the Q
    classes as they are.
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
        self._quotient_dims: dict[tuple, int] = {}
        # Per forms: [the degree persistence is tested at next, or starts
        # from; its Macaulay representation once it starts, else None].
        self._persistence: dict[tuple, list] = {}
        self._ideal_cofactors: dict[int, dict] = {}
        # G up to degree _groebner_degree: monic elements (leading monomial,
        # ((tail monomial, coefficient), ...)), and the S-pairs
        # (indices into G) still to reduce, by the degree of their lcm.
        self._groebner: list[tuple] = []
        self._groebner_degree = -1
        self._pairs: dict[int, list] = {}

    @property
    def M(self) -> int:
        return self.nvars - 1

    def graded_piece(self, k: int, extra=()) -> GradedSubspace:
        """J_k, or (J, extra)_k, reduced in full monomial coordinates and not
        cached: G reads J's piece once per generator degree."""
        return ideal_graded_piece(self, list(extra), k)

    def _grow_groebner(self, k: int) -> None:
        """Extend G through degree k, one degree at a time.

        At a degree e of some generator, J_e's RREF rows are J_e's elements
        t - NF(t), one per leading monomial t; those whose t no element of
        lower degree divides are G's elements of degree e, already monic and
        tail-reduced.  At any other degree d, J_d is spanned by multiples of
        lower-degree elements, so G's new elements are the nonzero remainders
        of the S-pairs whose lcm has degree d (Buchberger's criterion, with
        coprime leading terms skipped; CLO ch. 2 sections 6-7), each reduced
        against G and the degree's earlier new elements, made monic, and then
        freed of the later ones' leading terms.  A new element's pairs have
        lcm degree above its own, so no pair is missed by going degree by
        degree.
        """
        gen_degrees = {g.degree for g in self.generators}
        for d in range(self._groebner_degree + 1, k + 1):
            pairs = self._pairs.pop(d, ())
            new = []
            if d in gen_degrees:
                piece = self.graded_piece(d)
                basis = monomial_basis(self.M, d)
                for pc, row in zip(piece.pivot_cols, piece.basis.entries):
                    lt = basis[pc]
                    if _divisor(self._groebner, lt) is None:
                        new.append((lt, tuple((basis[j], c) for j, c in enumerate(row)
                                              if c and j != pc)))
            else:
                for i, j in pairs:
                    rem = _remainder(_s_polynomial(self._groebner[i], self._groebner[j]),
                                     self._groebner + new)
                    if rem:
                        lt = max(rem)
                        lc = rem.pop(lt)
                        new.append((lt, _monic_tail(rem, lc)))
                for i in range(len(new) - 2, -1, -1):
                    lt, tail = new[i]
                    new[i] = (lt, _monic_tail(_remainder(dict(tail), new[i + 1:])))
            for elem in new:
                for i, (other, _) in enumerate(self._groebner):
                    deg = sum(map(max, elem[0], other))
                    if deg < d + sum(other) and deg not in gen_degrees:
                        self._pairs.setdefault(deg, []).append((i, len(self._groebner)))
                self._groebner.append(elem)
            self._groebner_degree = d

    def normal_forms(self, k: int) -> tuple[list, dict]:
        """(standard monomials of degree k, {degree-k monomial: its class}),
        cached per degree.

        The standard monomials are those no leading term of G divides, in
        monomial_basis order; a class is a sparse row of (position,
        coefficient) pairs on them, int where integral and Fraction
        otherwise.  A standard monomial is its own class.  The others are
        taken in ascending lex order: t = u * LT(g) has class minus the sum
        of c * class(u * s) over g's tail terms c * x^s, each of which is
        lex-smaller than t and so already known.
        """
        if k not in self._normal_forms:
            self._grow_groebner(k)
            basis = monomial_basis(self.M, k)
            divisors = {}
            if self._groebner:  # else every monomial is standard, as on P^M
                divisors = {t: found for t in basis
                            if (found := _divisor(self._groebner, t)) is not None}
            std = [t for t in basis if t not in divisors]
            classes = {m: ((i, 1),) for i, m in enumerate(std)}
            for t in reversed(basis):
                if t in divisors:
                    u, tail = divisors[t]
                    acc = {}
                    for s, c in tail:
                        for i, v in classes[monomial_mul(u, s)]:
                            acc[i] = acc.get(i, 0) - c * v
                    classes[t] = tuple((i, _q(v)) for i, v in sorted(acc.items()) if v)
            self._normal_forms[k] = (std, classes)
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

    def ideal_cofactors(self, k: int) -> dict:
        """{non-standard degree-k monomial t: ((generator index, shift
        monomial, coefficient), ...)} writing t - NF(t) as a sum of
        coefficient * x^m * g over J's generators, cached per degree.

        t - NF(t) lies in J_k, so it is a combination of J's Macaulay rows;
        all of them are solved against one elimination of those rows.
        """
        if k not in self._ideal_cofactors:
            std, classes = self.normal_forms(k)
            basis = monomial_basis(self.M, k)
            index = {t: j for j, t in enumerate(basis)}
            std_cols = [index[m] for m in std]
            standard = set(std)
            nonstd = [t for t in basis if t not in standard]
            targets = []
            for t in nonstd:
                v = [0] * len(basis)
                v[index[t]] = 1
                for i, c in classes[t]:
                    v[std_cols[i]] -= c
                targets.append(v)
            table = {}
            if nonstd:
                rows, labels = macaulay_rows(self.generators, k, self.nvars, RATIONAL)
                A = ExactMatrix.from_rows(rows, len(basis), RATIONAL)
                for t, sol in zip(nonstd, solve_row_combinations(A, targets)):
                    if sol is None:
                        raise CertificateDefect(
                            f"{t} minus its normal form is not in the ideal's degree-{k} piece")
                    table[t] = tuple((gi, m, c) for c, (gi, m) in zip(sol, labels) if c)
            self._ideal_cofactors[k] = table
        return self._ideal_cofactors[k]

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"HomogeneousIdeal(<{gens}> in {self.nvars} vars over Q)"


def _q(v):
    """The rational v as an int when it is integral."""
    return v if type(v) is int or v.denominator != 1 else v.numerator


def _monic_tail(terms: dict, lc=1) -> tuple:
    """The (monomial, coefficient / lc) pairs of `terms`."""
    return tuple((s, _q(Fraction(c) / lc)) for s, c in terms.items())


def _divisor(elems, t):
    """(t / LT(g), g's tail) for the first element g of `elems` whose leading
    monomial divides t, or None."""
    for lt, tail in elems:
        if all(a >= b for a, b in zip(t, lt)):
            return tuple(a - b for a, b in zip(t, lt)), tail
    return None


def _add_multiple(p: dict, c, u, tail) -> None:
    """p += c * x^u * tail, dropping the terms that cancel."""
    for s, a in tail:
        m = monomial_mul(u, s)
        v = p.get(m, 0) + c * a
        if v:
            p[m] = v
        else:
            p.pop(m, None)


def _s_polynomial(g, h) -> dict:
    """S(g, h) of two monic elements: their tails shifted to the lcm of their
    leading monomials, the second subtracted."""
    lcm = tuple(map(max, g[0], h[0]))
    out = {}
    for (lt, tail), sign in ((g, 1), (h, -1)):
        _add_multiple(out, sign, tuple(a - b for a, b in zip(lcm, lt)), tail)
    return out


def _remainder(p: dict, elems) -> dict:
    """The remainder of the homogeneous polynomial {monomial: coefficient} p
    under full division by the monic `elems`: no term of it is divisible by
    a leading monomial.  p is consumed."""
    rem = {}
    while p:
        t = max(p)
        c = p.pop(t)
        found = _divisor(elems, t)
        if found is None:
            rem[t] = c
            continue
        _add_multiple(p, -c, *found)
    return rem


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


def macaulay_representation(a: int, s: int) -> tuple[tuple[int, int], ...]:
    """The s-th Macaulay representation of a >= 0, for s >= 1: the pairs
    (k_i, i), i = s, s-1, ..., j, with a = sum_i binom(k_i, i) and
    k_s > k_{s-1} > ... > k_j >= j >= 1; empty for a = 0.

    It is greedy: k_i is the largest k with binom(k, i) at most what is
    left, so the rest is below binom(k_i + 1, i) - binom(k_i, i) =
    binom(k_i, i - 1) and the next k is smaller.
    """
    rep = []
    for i in range(s, 0, -1):
        if not a:
            break
        k, c = i, 1  # c = binom(k, i)
        while (up := c * (k + 1) // (k + 1 - i)) <= a:
            k, c = k + 1, up
        rep.append((k, i))
        a -= c
    return tuple(rep)


def macaulay_extension(rep, t: int) -> int:
    """sum_i binom(k_i + t, i + t) over the pairs (k_i, i) of `rep`, the
    representation of a in degree s.  At t = 1 it is a^<s>, Macaulay's bound
    on the next value; once a Hilbert function persists from degree s, it is
    H(s + t) for every t >= 0."""
    return sum(math.comb(k + t, i + t) for k, i in rep)


def _quotient_dim(J: HomogeneousIdeal, k: int, forms: tuple, field: str) -> int:
    """dim (K[x]/(J, forms))_k from degree k's normal forms, cached on J per
    degree and forms, and checked against Macaulay's bound beside each
    neighbouring degree computed the same way.

    (J, forms)_k is J_k plus the span of the forms' `multiples`, rows already
    reduced modulo J_k: the dimension is H_V(k) minus their rank, the number
    of them that an `Echelon` accepts as new.
    """
    key = (k, forms)
    if key not in J._quotient_dims:
        h = len(J.normal_forms(k)[0])
        if forms:
            span = Echelon(field, h)
            h -= sum(map(span.insert, J.multiples(k, forms)))
        J._quotient_dims[key] = h
        for s in (k - 1, k):
            a, b = (J._quotient_dims.get((j, forms)) for j in (s, s + 1))
            if s < 1 or a is None or b is None:
                continue
            bound = macaulay_extension(macaulay_representation(a, s), 1)
            if b > bound:
                raise HilbertDefect(f"H({s + 1}) = {b} exceeds Macaulay's bound "
                                    f"H({s})^<{s}> = {bound} for {J} with forms {forms}")
    return J._quotient_dims[key]


def hilbert_function(J: HomogeneousIdeal, k: int, forms=()) -> int:
    """dim (K[x]/(J, forms))_k, over the field the forms call for.

    Values are computed from the normal forms (`_quotient_dim`) up to the
    degree where persistence starts, and read off Gotzmann's persistence
    theorem above it (Gotzmann, Math. Z. 158 (1978); Bruns & Herzog,
    Cohen-Macaulay Rings, section 4.3).  The ideal (J, forms) is generated
    in degrees <= s0, the largest degree of J's generators and of the
    nonzero forms (at least 1).  Macaulay's theorem bounds every next value,
    H(s + 1) <= H(s)^<s> (`macaulay_extension` at t = 1); Gotzmann's says
    that once the bound is met at some s >= s0, it is met at every later
    degree, so H(s + t) = sum_i binom(k_i + t, i + t) from the s-th Macaulay
    representation of H(s), over any field.  Persistence starts at the first
    s >= s0 below k where the bound is met; from then on no degree above
    s + 1 is computed directly, for any k.  Where it has not started, H(k)
    is computed directly.  The search state is cached on J per forms, so
    each degree is tested at most once.
    """
    field = coefficient_field(forms)
    forms = tuple(f.over(field) for f in forms)
    state = _persistence_search(J, forms, field, k)
    if state[1] is not None and k > state[0]:
        return macaulay_extension(state[1], k - state[0])
    return _quotient_dim(J, k, forms, field)


def _persistence_search(J: HomogeneousIdeal, forms: tuple, field: str,
                        below: int | None) -> list:
    """hilbert_function's search for the degree where persistence starts,
    run until it starts or, when `below` is given, until it has tested
    every degree below `below`.  Returns the state cached on J for these
    forms: [s, representation], the representation None until a degree s
    meets the bound.  Persistence starts at the latest at the Gotzmann
    number of the Hilbert polynomial, so the search without a bound ends."""
    state = J._persistence.get(forms)
    if state is None:
        s0 = max([1, *(g.degree for g in J.generators),
                  *(f.degree for f in forms if not f.is_zero)])
        state = J._persistence[forms] = [s0, None]  # [degree, representation]
    while state[1] is None and (below is None or state[0] < below):
        s = state[0]
        rep = macaulay_representation(_quotient_dim(J, s, forms, field), s)
        if _quotient_dim(J, s + 1, forms, field) == macaulay_extension(rep, 1):
            state[1] = rep
        else:
            state[0] = s + 1
    return state


def constant_tail(values, window: int) -> int | None:
    """Start of the constant tail of `values` if it is `window` or longer, else None."""
    return next((start for start in range(len(values) - window + 1)
                 if all(v == values[start] for v in values[start:])), None)


@dataclass
class HilbertRecord:
    values: dict[int, int]
    dim_v: int
    deg_v: int


def variety_invariants(J: HomogeneousIdeal) -> tuple[int, int]:
    """(dim V, deg V) read off the Macaulay representation at which H_V
    persists, with no window.

    From the degree s where persistence starts (hilbert_function), H_V(s +
    t) = sum_i binom(k_i + t, i + t) = sum_i binom(k_i + t, k_i - i) over
    the pairs (k_i, i) of the representation: a polynomial in t of degree
    max_i (k_i - i) whose leading coefficient is the number of pairs with
    k_i - i at that maximum, over its factorial.  The Hilbert polynomial is
    (deg V / n!) k^n + ..., so dim V = n = max_i (k_i - i) and deg V is
    that number of pairs.  An empty representation (H_V = 0 from s on) is
    the empty variety, (-1, 0).
    """
    _, rep = _persistence_search(J, (), RATIONAL, None)
    if not rep:
        return -1, 0
    dims = [k - i for k, i in rep]
    dim_v = max(dims)
    return dim_v, dims.count(dim_v)


def hilbert_record(J: HomogeneousIdeal, k_max: int) -> HilbertRecord:
    """H_V(0..k_max), with dim V and deg V from variety_invariants."""
    values = {k: hilbert_function(J, k) for k in range(k_max + 1)}
    return HilbertRecord(values, *variety_invariants(J))


# ---------------------------------------------------------------------------
# Nullstellensatz-style certificates and admissibility.
# ---------------------------------------------------------------------------

@dataclass
class NullstellensatzCertificate:
    """Exact cofactors writing x_i^s in the ideal generated by gens + Qs.

    cofactors[i] is a list of polynomials, one per generator (the ideal's
    generators first, then the Qs), with
    sum_g cofactors[i][g] * gen_g == x_i^s.  A certificate found by
    `admissibility_check` is stated over the primitive forms of the
    specialized targets (`primitive_form`), which generate the same ideal.
    """

    s: int
    cofactors: list[list[MultiPoly]]
    generators: list[MultiPoly]

    def verify(self) -> bool:
        """Whether sum_g cofactors[i][g] * gen_g == x_i^s for every i, as
        polynomials.  Over Q each side is first multiplied by the lcm L of
        the cofactors' denominators, so the sums are taken in ints when the
        generators are integral, and compared with L * x_i^s; over Q(z),
        L = 1.  Each sum is accumulated in one dict."""
        nvars = self.generators[0].nvars
        over_q = self.generators[0].field == RATIONAL
        for i, cofs in enumerate(self.cofactors):
            scale = (math.lcm(*(c.denominator for cof in cofs for c in cof.terms.values()))
                     if over_q else 1)
            acc = {}
            for cof, g in zip(cofs, self.generators):
                for e, c in cof.terms.items():
                    if scale != 1:
                        c = c.numerator * (scale // c.denominator)
                    for t, gc in g.terms.items():
                        m = monomial_mul(e, t)
                        acc[m] = acc.get(m, 0) + c * gc
            power = _power(nvars, i, self.s)
            if {m: v for m, v in acc.items() if v} != {power: scale}:
                return False
        return True


def nullstellensatz_certificate(J: HomogeneousIdeal, Qs, s_max: int, *, start: int = 1):
    """Smallest s <= s_max with x_i^s in (J, Qs)_s for every variable, or None.

    x_i^s is in (J, Qs)_s exactly when its class modulo J_s, read off
    `normal_forms`, is in the span of the Qs' `multiples`.  A membership
    test inserts the multiples into one `Echelon` on the standard columns
    and stops at the first power whose class leaves a nonzero remainder.  A
    full solve (`solve_row_combinations`) writes every power's class in
    terms of the multiples, which gives the Qs' cofactors on standard
    monomials, and it returns no None exactly when the test says yes.

    Membership is monotone in s: x_i^s in the ideal gives x_i^(s+1) =
    x_i * x_i^s in it.  So s is found by a monotone search from `start`,
    taken into 1..s_max.  The search solves in full at `start`, which is
    usually the answer.  When every power is in the ideal there, it steps
    down, testing membership, until a degree fails; otherwise, unless the
    persistence search on (J, Qs) up to s_max finds a nonzero Hilbert
    polynomial, it steps up, testing membership, until a degree succeeds or
    s_max fails.  Either way it ends on the smallest s, and it solves in
    full again only there, when that s is not `start`.  The certificate is
    read from the solve at that s, which is the one a scan up from 1 ends
    on: `start` changes the number of eliminations, never the result.

    The rest of x_i^s, its residual r_i, lies in J_s; its J-cofactors are
    the sum over non-standard monomials t of r_i[t] times the cofactors of
    t - NF(t) (`ideal_cofactors`).  Over Q each power's solution is first
    multiplied by the lcm L of its denominators, so the residual and the
    cofactors are summed in ints (when the forms are integral), and each
    cofactor term is divided by L once at the end.  Cofactor coefficients
    are ints where integral and Fractions otherwise over Q, rational
    functions over Q(z), and never zero.  The caller re-verifies the
    certificate by substitution.  None means NOT_FOUND within the cutoff:
    a proof that no s exists when the Hilbert polynomial is nonzero (a
    certificate makes the quotient 0 from degree (M+1)(s-1)+1 on), else
    inconclusive for genuinely admissible systems with larger s.
    """
    field = coefficient_field(Qs)
    Qs = [q.over(field) for q in Qs if not q.is_zero]
    nvars = J.nvars
    zero, one = field_zero(field), field_one(field)

    def power_classes(s):
        """(x_i^s for each variable, their classes modulo J_s as rows on
        the standard monomials)."""
        std, classes = J.normal_forms(s)
        powers = [_power(nvars, i, s) for i in range(nvars)]
        rows = []
        for p in powers:
            row = [zero] * len(std)
            for col, v in classes[p]:
                row[col] = one * v
            rows.append(row)
        return powers, rows

    def member(s):
        """Whether every power's class lies in the span of the Qs' multiples
        at degree s.  The multiples go into one Echelon on the standard
        columns, and the first power whose class leaves a nonzero remainder
        answers no."""
        span = Echelon(field, len(J.normal_forms(s)[0]))
        for row in J.multiples(s, Qs):
            span.insert(row)
        return not any(any(span.remainder(v)) for v in power_classes(s)[1])

    def solve(s):
        """(the powers, each power's combination of the Qs' multiples at
        degree s), or None when some power is outside their span."""
        rows = J.multiples(s, Qs)
        # The rows are field elements already, so they are not coerced again.
        A = ExactMatrix(len(rows), len(J.normal_forms(s)[0]), field, rows, _raw=True)
        powers, targets = power_classes(s)
        sols = solve_row_combinations(A, targets)
        return None if any(sol is None for sol in sols) else (powers, sols)

    if s_max < 1:
        return None
    s = top = min(max(start, 1), s_max)
    solved = solve(s)
    if solved is not None:
        while s > 1 and member(s - 1):
            s -= 1
    else:
        if s < s_max and _persistence_search(J, tuple(Qs), field, s_max)[1]:
            return None  # a nonzero Hilbert polynomial: no s exists
        s = next((k for k in range(s + 1, s_max + 1) if member(k)), None)
        if s is None:
            return None
    if s != top:
        solved = solve(s)
        if solved is None:
            raise CertificateDefect(
                f"the powers pass the membership test at degree {s} but have no solution")
    powers, sols = solved

    gens = [g.over(field) for g in J.generators] + Qs
    offset = len(J.generators)
    # The labels (target index, shift monomial) of the rows of `multiples`.
    labels = [(j, m) for j, q in enumerate(Qs) if q.degree <= s
              for m in J.normal_forms(s - q.degree)[0]]
    ideal_cofactors = J.ideal_cofactors(s)
    over_q = field == RATIONAL
    cofactors = []
    for i, sol in enumerate(sols):
        scale = math.lcm(*(c.denominator for c in sol)) if over_q else 1
        if scale != 1:
            sol = [c.numerator * (scale // c.denominator) for c in sol]
        per_gen = [{} for _ in gens]
        residual = {powers[i]: one * scale}
        for c, (j, m) in zip(sol, labels):
            if not c:
                continue
            per_gen[offset + j][m] = c
            for t, qc in Qs[j].terms.items():
                tm = monomial_mul(t, m)
                residual[tm] = residual.get(tm, zero) - c * qc
        for t, rc in residual.items():
            if rc:
                for gi, m, c in ideal_cofactors.get(t, ()):
                    per_gen[gi][m] = per_gen[gi].get(m, zero) + rc * c
        cofactors.append([
            MultiPoly(nvars, field, {m: _over(v, scale) if over_q else v
                                     for m, v in terms.items() if v}, _raw=True)
            for terms in per_gen])
    return NullstellensatzCertificate(s=s, cofactors=cofactors, generators=gens)


def _power(nvars: int, i: int, s: int) -> tuple[int, ...]:
    """The exponent tuple of x_i^s."""
    return tuple(s if j == i else 0 for j in range(nvars))


def _over(v, d: int):
    """The rational v / d as an int when it is integral."""
    if type(v) is int:
        return v // d if not v % d else Fraction(v, d)
    return _q(v / d)


def primitive_form(q: MultiPoly) -> MultiPoly:
    """The nonzero form q over Q scaled to coprime integer coefficients with a
    positive leading coefficient in descending lex.

    It differs from q by a nonzero rational factor, so it generates the same
    ideal and cuts out the same hypersurface.
    """
    m = math.lcm(*(c.denominator for c in q.terms.values()))
    ints = {e: c.numerator * (m // c.denominator) for e, c in q.terms.items()}
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return MultiPoly(q.nvars, RATIONAL, {e: c // g for e, c in ints.items()}, _raw=True)


def _predicted_s(J: HomogeneousIdeal, n: int, d: int, s_max: int) -> int:
    """e + 1 in 1..s_max, e = deg h_J + (n + 1)(d - 1) and h_J = (1 - t)^(n+1)
    times R/J's Hilbert series: n + 1 degree-d forms regular on an
    arithmetically Cohen-Macaulay V of dimension n give the series h_J(t)
    (1 + ... + t^(d-1))^(n+1), of degree e.  There h_J's coefficients form
    an O-sequence, so deg h_J is one below the first of them that is 0."""
    H, k = [], 0
    for k in range(s_max + 1):
        H.append(len(J.normal_forms(k)[0]))  # H_V(k)
        if not sum((-1) ** i * math.comb(n + 1, i) * H[k - i]
                   for i in range(min(k, n + 1) + 1)):
            break
    return max(1, min(k + (n + 1) * (d - 1), s_max))


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
    A certificate at one witness a proves that the subset is in general
    position on V at generic z, not only at a.  x_i^s lies in the ideal of
    J and the targets at a for every i, and every monomial of degree
    (M+1)(s-1)+1 is a multiple of some x_i^s, so the quotient h_a at a is 0
    in that degree.  The specialized targets have no pole at a, so every
    minor of the targets' multiples that is nonzero at a is a nonzero
    rational function: the rank over Q(z) is at least the rank at a, and
    h over Q(z) <= h_a = 0 there.  So the targets have no common zero on V
    over the closure of Q(z), nor at any z but the finitely many where such
    a minor vanishes.
    The specialized forms are scaled to their primitive forms, so a
    certificate is stated over forms that generate the same ideal, and
    witnesses that give the same primitive system (constant targets, or
    targets that are a scalar multiple of a constant form at every witness)
    share one certificate, computed and verified once per call.  Each
    search for s starts at the s of the last system certified in the call
    (the first at `_predicted_s`): the systems of one check tend to share
    their s, which then costs a solve at s and a membership test at s - 1
    rather than one elimination at every degree up to s.  Membership of
    x_i^s is monotone in s, so the start changes the cost, not the
    certificate (`nullstellensatz_certificate`).
    Negative answers report the positive Hilbert value of the specialized
    quotient when it is constant over the M + 2 degrees ending at
    s_max + M + 3, and are marked heuristic; those values, too, are
    computed once per distinct primitive system, and read off the persisted
    representation where the search for s proved that no s exists.
    """
    degs = {q.degree for q in Qs}
    if len(degs) != 1:
        raise InhomogeneousInput(
            "hypersurfaces must share a common degree; apply normalize_degrees first")
    d = degs.pop()
    rng = random.Random(seed)
    certified = {}  # primitive specialized system -> verified certificate or None
    start = None  # the s of the last certificate found: where the next search starts
    evidence = {}  # primitive specialized system -> its quotient dimensions
    fixed = [primitive_form(q.over(RATIONAL)) if q.terms and coefficient_field([q]) == RATIONAL
             else None for q in Qs]  # one primitive form per constant target
    reports = []
    for subset in combinations(range(len(Qs)), n + 1):
        report = SubsetReport(subset=subset, status=INCONCLUSIVE)
        last_specialized = None
        for _ in range(trials):
            a = Fraction(rng.randint(-WITNESS_BOUND, WITNESS_BOUND))
            try:
                specialized = [fixed[j] or Qs[j].specialize(a) for j in subset]
            except PoleAtPoint:
                continue
            if any(q.is_zero for q in specialized):
                continue  # degenerate witness: some hypersurface vanished entirely
            report.witnesses_tried.append(a)
            specialized = last_specialized = tuple(
                fixed[j] or primitive_form(q) for j, q in zip(subset, specialized))
            if specialized not in certified:
                if start is None:
                    start = _predicted_s(J, n, d, s_max)
                cert = nullstellensatz_certificate(J, list(specialized), s_max, start=start)
                if cert is not None:
                    if not cert.verify():
                        raise CertificateDefect(
                            f"certificate for subset {subset} at witness {a} "
                            "fails re-verification")
                    start = cert.s
                certified[specialized] = cert
            cert = certified[specialized]
            if cert is not None:
                report.witnesses_succeeded += 1
                report.certificates.append(AdmissibilityCertificate(
                    subset=subset, witness=a, s=cert.s, certificate=cert))
        if report.certificates:
            report.status = ADMISSIBLE
        elif last_specialized is not None:
            window = J.nvars + 1  # M + 2 consecutive degrees
            if last_specialized not in evidence:
                evidence[last_specialized] = [hilbert_function(J, k, last_specialized)
                                              for k in range(s_max + window + 2)]
            values = evidence[last_specialized]
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

