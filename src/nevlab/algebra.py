"""Exact coefficient arithmetic for the two-field tower Q and Q(z).

Everything downstream (graded pieces, filtrations, dimension counts) relies
on this module being exact.  A Q coefficient is an `int` when it is integral
and a `fractions.Fraction` otherwise (`field_coerce` returns that form, and
arithmetic on Fractions may still give an integral Fraction, which every
consumer accepts).  A Q(z) coefficient is a :class:`RationalFunction`, a
quotient of univariate polynomials in z with Python-int coefficients in a
canonical form (coprime in Z[z], positive leading denominator coefficient).
The monic-denominator form with Fraction coefficients is only the printed
view.  No floating point enters.  Q(z) arithmetic does only the polynomial
work its canonical result needs: the gcd that unique factorization in Z[z]
makes redundant is skipped, and products cancel crosswise before they
multiply (Henrici's method for exact rationals, Knuth, TAOCP vol. 2, 4.5.1);
the `RationalFunction` docstring lists the cases.

A computation picks its field once, from its targets: `coefficient_field`
returns Q when every coefficient is constant and Q(z) otherwise, and
`MultiPoly.over` converts the inputs to it.

Multivariate homogeneous polynomials are stored sparsely as a dict mapping
exponent tuples (one entry per variable x0..xM, summing to the degree) to a
nonzero field element.  The monomial order used everywhere for vector and
matrix coordinates is graded lexicographic with x0 > x1 > ... > xM, realized
for a fixed degree as descending lexicographic order on exponent tuples.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Sequence

RATIONAL = "Q"
RATIONAL_FUNCTION = "Q(z)"


class FieldMismatch(ValueError):
    """Operands live over different coefficient fields."""


class ZeroDenominator(ZeroDivisionError):
    """A rational function was built with denominator 0."""


class PoleAtPoint(ZeroDivisionError):
    """A coefficient denominator vanishes at the requested point."""


class InhomogeneousInput(ValueError):
    """An operation requiring homogeneous input received a mixed-degree polynomial."""


# ---------------------------------------------------------------------------
# Univariate polynomials in z over Z, as tuples of ints (low degree first, no
# trailing zeros; the zero polynomial is the empty tuple).
# ---------------------------------------------------------------------------

def _ztrim(c: Sequence) -> tuple:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _iadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ztrim(out)


def _imul(a, b):
    if not a or not b:
        return ()
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        y = b[0]
        return a if y == 1 else tuple(x * y for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _iquo(a, b):
    """a / b in Z[z], for a nonzero b that divides a exactly."""
    if len(b) == 1:
        return tuple(x // b[0] for x in a)
    a = list(a)
    n, lead = len(b), b[-1]
    q = [0] * (len(a) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + n - 1] // lead
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return tuple(q)


def _primitive(a):
    c = math.gcd(*a)
    return a if c == 1 else tuple(x // c for x in a)


def _gcd(a, b):
    """gcd of nonzero a, b in Z[z], up to sign.

    The contents go through `math.gcd`; the primitive parts, when both have
    degree >= 1, through the primitive polynomial remainder sequence (Knuth,
    TAOCP vol. 2, 4.6.1): pseudo-divide, keep the primitive part of the
    remainder, and stop at a zero remainder or a constant one.
    """
    c = math.gcd(*a, *b)
    if len(a) == 1 or len(b) == 1:
        return (c,)
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, n, lb = list(a), len(b), b[-1]
        while len(r) >= n:
            g = math.gcd(r[-1], lb)
            s, t = lb // g, r[-1] // g
            if s != 1:
                r = [s * x for x in r]
            k = len(r) - n
            for i, y in enumerate(b):
                r[k + i] -= t * y
            while r and not r[-1]:
                r.pop()
        if not r:
            return tuple(c * x for x in b)
        a, b = b, _primitive(r)
    return (c,)


def _zhorner(a, p: int, q: int) -> int:
    """q^deg(a) * a(p/q) for an integer z-polynomial a, by Horner in integers:
    the sum of a_k * p^k * q^(deg - k)."""
    acc = 0
    qk = 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _zstr(a) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            zk = "z" if k == 1 else f"z^{k}"
            if c == 1:
                term = zk
            elif c == -1:
                term = f"-{zk}"
            else:
                term = f"{c}*{zk}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


class RationalFunction:
    """An element of Q(z): a quotient of integer polynomials in z.

    Canonical form, which makes `==` and `hash` exact: gcd(zn, zd) = 1 in
    Z[z], integer content included; zd is nonzero with a positive leading
    coefficient; and the zero element is 0/1.  `num` and `den` are the
    printed view: the same quotient with a monic denominator and Fraction
    coefficients.  Instances are immutable and hashable; arithmetic coerces
    ints and Fractions.

    Every operator returns the canonical form, and computes a gcd only where
    the result can have a common factor.  For canonical a = an/ad and
    b = bn/bd, using that Z[z] has unique factorization:

    - a zero operand: the result is the other operand, its negation or 0.
    - a + b, a - b with ad = bd = 1: an + bn over 1 is coprime as it stands.
    - a + b, a - b with ad = bd: the one gcd is gcd(an + bn, ad).
    - other sums: an*bd + bn*ad over ad*bd, reduced by their gcd.
    - a * b: with g1 = gcd(an, bd) and g2 = gcd(bn, ad), the quotient
      (an/g1)(bn/g2) / ((ad/g2)(bd/g1)) is coprime.  A prime of Z[z] that
      divides the numerator divides an/g1 or bn/g2; an/g1 is prime to ad/g2
      (a factor of ad, and gcd(an, ad) = 1) and to bd/g1 (g1 was removed),
      and likewise bn/g2.  So only the sign is left to fix.  A gcd against a
      denominator 1 is skipped, so the product of two polynomials is just
      an*bn; a gcd with a constant (an int operand, say) is an integer gcd.
    - a / b: the product of a and bd/bn, cancelled the same way.
    """

    __slots__ = ("zn", "zd")

    def __init__(self, num=0, den=1, _raw=False):
        if _raw:
            self.zn, self.zd = num, den
            return
        ncoef = self._coeffs(num)
        dcoef = self._coeffs(den)
        m = math.lcm(*(c.denominator for c in ncoef + dcoef))
        self.zn, self.zd = _canonical(
            tuple(c.numerator * (m // c.denominator) for c in ncoef),
            tuple(c.numerator * (m // c.denominator) for c in dcoef))

    @staticmethod
    def _coeffs(v) -> tuple[Fraction, ...]:
        if isinstance(v, RationalFunction):
            raise TypeError("use arithmetic operators to combine rational functions")
        if isinstance(v, (int, Fraction)):
            return _ztrim((Fraction(v),))
        return _ztrim(tuple(Fraction(c) for c in v))

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls):
        return _RF_ZERO

    @classmethod
    def z(cls):
        return _RF_Z

    @classmethod
    def from_fraction(cls, q) -> "RationalFunction":
        q = Fraction(q)
        if q == 0:
            return _RF_ZERO
        return cls((q.numerator,), (q.denominator,), _raw=True)

    # -- structure ---------------------------------------------------------
    @property
    def num(self) -> tuple[Fraction, ...]:
        """Numerator over the monic denominator, low degree first."""
        return tuple(Fraction(c, self.zd[-1]) for c in self.zn)

    @property
    def den(self) -> tuple[Fraction, ...]:
        """The monic denominator, low degree first."""
        return tuple(Fraction(c, self.zd[-1]) for c in self.zd)

    @property
    def is_zero(self) -> bool:
        return not self.zn

    @property
    def is_constant(self) -> bool:
        return len(self.zn) <= 1 and len(self.zd) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.zn[0], self.zd[0]) if self.zn else Fraction(0)

    def evaluate(self, a) -> Fraction:
        """Value at z = a, exact; raises PoleAtPoint when the denominator vanishes."""
        a = Fraction(a)
        p, q = a.numerator, a.denominator
        dv = _zhorner(self.zd, p, q)
        if dv == 0:
            raise PoleAtPoint(f"denominator of {self} vanishes at z={a}")
        # zn(a) / zd(a), each scaled by q^degree in _zhorner.
        shift = len(self.zd) - len(self.zn)
        nv = _zhorner(self.zn, p, q)
        if shift >= 0:
            return Fraction(nv * q ** shift, dv)
        return Fraction(nv, dv * q ** -shift)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if type(other) is int:
            return RationalFunction((other,), (1,), _raw=True) if other else _RF_ZERO
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.zn:
            return self
        if not self.zn:
            return o
        return _rf_sum(self.zn, self.zd, o.zn, o.zd)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(tuple(-x for x in self.zn), self.zd, _raw=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.zn:
            return self
        if not self.zn:
            return -o
        return _rf_sum(self.zn, self.zd, tuple(-x for x in o.zn), o.zd)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not self.zn or not o.zn:
            return _RF_ZERO
        return _rf_product(self.zn, self.zd, o.zn, o.zd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.zn:
            raise ZeroDenominator("division by zero in Q(z)")
        if not self.zn:
            return _RF_ZERO
        return _rf_product(self.zn, self.zd, o.zd, o.zn)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return _RF_ONE / self ** (-k)
        acc = _RF_ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.zn == o.zn and self.zd == o.zd

    def __bool__(self):
        return bool(self.zn)

    def __hash__(self):
        return hash((self.zn, self.zd))

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        if len(self.zd) == 1:
            return _zstr(self.num)
        return f"({_zstr(self.num)})/({_zstr(self.den)})"


def _cancel(n, d):
    """n/g and d/g for g = gcd(n, d) in Z[z], up to one unit factor on both;
    n and d are nonzero.  When either is a constant, g is an integer and
    `_gcd` is not needed."""
    if len(n) == 1 or len(d) == 1:
        g = math.gcd(*n, *d)
        if g == 1:
            return n, d
        return tuple(x // g for x in n), tuple(x // g for x in d)
    g = _gcd(n, d)
    if len(g) == 1 and abs(g[0]) == 1:
        return n, d
    return _iquo(n, g), _iquo(d, g)


def _signed(n, d):
    """Coprime n, d with the sign that makes d's leading coefficient positive."""
    if d[-1] < 0:
        return tuple(-x for x in n), tuple(-x for x in d)
    return n, d


def _canonical(n, d):
    """The canonical form of the quotient n/d of integer polynomials."""
    if not d:
        raise ZeroDenominator("rational function with zero denominator")
    if not n:
        return (), (1,)
    return _signed(*_cancel(n, d))


def _rf_make(n, d):
    return RationalFunction(*_canonical(n, d), _raw=True)


def _rf_sum(an, ad, bn, bd):
    """an/ad + bn/bd for canonical, nonzero operands."""
    if ad == bd:
        if ad == (1,):
            return RationalFunction(_iadd(an, bn), (1,), _raw=True)
        return _rf_make(_iadd(an, bn), ad)
    return _rf_make(_iadd(_imul(an, bd), _imul(bn, ad)), _imul(ad, bd))


def _rf_product(an, ad, bn, bd):
    """(an/ad)(bn/bd) for nonzero operands with gcd(an, ad) = gcd(bn, bd) = 1,
    by cross-cancellation: with g1 = gcd(an, bd) and g2 = gcd(bn, ad), the
    quotient (an/g1)(bn/g2) / ((ad/g2)(bd/g1)) is coprime.  The denominators
    may have either sign (a quotient passes bn/bd = b.zd/b.zn)."""
    if bd != (1,):
        an, bd = _cancel(an, bd)
    if ad != (1,):
        bn, ad = _cancel(bn, ad)
    return RationalFunction(*_signed(_imul(an, bn), _imul(ad, bd)), _raw=True)


_RF_ZERO = RationalFunction((), (1,), _raw=True)
_RF_ONE = RationalFunction((1,), (1,), _raw=True)
_RF_Z = RationalFunction((0, 1), (1,), _raw=True)


# ---------------------------------------------------------------------------
# Field plumbing shared with the linear algebra layer.  Q elements are ints
# and Fractions, so zero and one over Q are the ints 0 and 1, and a row of Q
# elements can be checked for type in one pass at C speed.
# ---------------------------------------------------------------------------

def field_zero(field: str):
    return 0 if field == RATIONAL else _RF_ZERO


def field_one(field: str):
    return 1 if field == RATIONAL else _RF_ONE


def coefficient_field(polys) -> str:
    """The field a computation on `polys` runs over: Q when every coefficient of
    every polynomial is constant, Q(z) otherwise."""
    for p in polys:
        if p.field == RATIONAL_FUNCTION and not all(
                c.is_constant for c in p.terms.values()):
            return RATIONAL_FUNCTION
    return RATIONAL


def field_coerce(field: str, value):
    """Coerce ints/Fractions (and, over Q(z), rational functions) into `field`.

    Over Q an integral value comes back as an int and any other as a Fraction.
    """
    if field == RATIONAL:
        if isinstance(value, RationalFunction):
            if not value.is_constant:
                raise FieldMismatch(f"cannot coerce the nonconstant {value} into Q")
            value = value.constant_value()
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, int):
            return int(value)
        raise FieldMismatch(f"cannot coerce {value!r} into Q")
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalFunction.from_fraction(value)
    raise FieldMismatch(f"cannot coerce {value!r} into Q(z)")


_ELEMENT_TYPES = {RATIONAL: frozenset((int, Fraction)),
                  RATIONAL_FUNCTION: frozenset((RationalFunction,))}


def field_coerce_row(field: str, row) -> list:
    """A new list of `row`'s entries as elements of `field`.

    A row whose entries are all field elements already (ints and Fractions
    over Q) is copied as it is, after one scan of the entry types; only other
    rows are coerced entry by entry.
    """
    if set(map(type, row)) <= _ELEMENT_TYPES[field]:
        return list(row)
    return [field_coerce(field, v) for v in row]


# ---------------------------------------------------------------------------
# Monomials.
# ---------------------------------------------------------------------------

def monomial_basis(M: int, k: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length M+1 with total k, descending lex (x0-major).

    The tuples are cached per (M, k); each call returns a new list, so a
    caller may change its copy.
    """
    if M < 0 or k < 0:
        raise ValueError("monomial_basis needs M >= 0 and k >= 0")
    return list(_monomials(M, k))


@functools.lru_cache(maxsize=None)
def _monomials(M: int, k: int) -> tuple[tuple[int, ...], ...]:
    if M == 0:
        return ((k,),)
    return tuple((i,) + rest for i in range(k, -1, -1) for rest in _monomials(M - 1, k - i))


def monomial_count(M: int, k: int) -> int:
    return math.comb(k + M, M)


def monomial_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


# ---------------------------------------------------------------------------
# Multivariate polynomials.
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse multivariate polynomial over Q or Q(z).

    terms maps exponent tuples (length nvars) to nonzero coefficients; the
    zero polynomial has an empty term dict.  `degree` is the common total of
    all exponents, or None when the polynomial is zero or inhomogeneous.

    Instances are immutable: the hash and the set of term degrees are
    computed on first use and kept, so `terms` must not change after
    construction, and a `_raw=True` caller hands over a dict of nonzero
    field elements that it no longer touches.
    """

    __slots__ = ("nvars", "field", "terms", "_hash", "_degrees")

    def __init__(self, nvars: int, field: str, terms: dict | None = None, _raw=False):
        self.nvars = nvars
        self.field = field
        self._hash = self._degrees = None
        if _raw:
            self.terms = terms or {}
            return
        clean: dict[tuple[int, ...], object] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp} for {nvars} variables")
            c = field_coerce(field, coeff)
            if c:
                acc = clean.get(exp)
                c = c if acc is None else acc + c
                if c:
                    clean[exp] = c
                elif exp in clean:
                    del clean[exp]
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int, field: str = RATIONAL):
        return cls(nvars, field, {}, _raw=True)

    @classmethod
    def constant(cls, nvars: int, value, field: str = RATIONAL):
        return cls(nvars, field, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], coeff=1, field: str = RATIONAL):
        return cls(nvars, field, {tuple(exp): coeff})

    @classmethod
    def variable(cls, nvars: int, i: int, field: str = RATIONAL):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, field, {tuple(exp): 1})

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Common total degree, or None when zero or inhomogeneous."""
        if self._degrees is None:
            self._degrees = frozenset(map(sum, self.terms))
        return next(iter(self._degrees)) if len(self._degrees) == 1 else None

    @property
    def is_homogeneous(self) -> bool:
        return not self.terms or self.degree is not None

    def items(self):
        """Terms in descending lex order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise FieldMismatch("variable-count mismatch")
        if self.field != other.field:
            raise FieldMismatch(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = out.get(exp)
            s = c if acc is None else acc + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return MultiPoly(self.nvars, self.field, out, _raw=True)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, self.field,
                         {e: -c for e, c in self.terms.items()}, _raw=True)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                c = c1 * c2
                acc = out.get(e)
                c = c if acc is None else acc + c
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        return MultiPoly(self.nvars, self.field, out, _raw=True)

    def scale(self, s) -> "MultiPoly":
        s = field_coerce(self.field, s)
        if not s:
            return MultiPoly.zero(self.nvars, self.field)
        return MultiPoly(self.nvars, self.field,
                         {e: c * s for e, c in self.terms.items()}, _raw=True)

    def shift(self, exp: tuple[int, ...]) -> "MultiPoly":
        """Multiply by the monomial x^exp."""
        return MultiPoly(self.nvars, self.field,
                         {monomial_mul(e, exp): c for e, c in self.terms.items()},
                         _raw=True)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        acc, base = None, self
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if k:
                base = base * base
        return MultiPoly.constant(self.nvars, 1, self.field) if acc is None else acc

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, self.field, tuple(self.items())))
        return self._hash

    # -- field moves -------------------------------------------------------
    def over(self, field: str) -> "MultiPoly":
        """The same polynomial with coefficients in `field`.

        Q -> Q(z) always succeeds; Q(z) -> Q needs constant coefficients.
        """
        if field == self.field:
            return self
        return MultiPoly(self.nvars, field,
                         {e: field_coerce(field, c) for e, c in self.terms.items()},
                         _raw=True)

    def specialize(self, a) -> "MultiPoly":
        """Evaluate all coefficients at z = a; terms that vanish are dropped."""
        if self.field == RATIONAL:
            return self
        out = {}
        for e, c in self.terms.items():
            v = c.evaluate(a)
            if v:
                out[e] = v
        return MultiPoly(self.nvars, RATIONAL, out, _raw=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.items():
            mono = "*".join(
                (f"x{i}" if p == 1 else f"x{i}^{p}")
                for i, p in enumerate(exp) if p > 0
            )
            cs = str(c)
            needs_braces = self.field == RATIONAL_FUNCTION and not (
                isinstance(c, RationalFunction) and c.is_constant)
            if needs_braces:
                cs = "{" + cs + "}"
                parts.append(f"{cs}*{mono}" if mono else cs)
            elif not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def normalize_degrees(Qs: Sequence[MultiPoly]) -> tuple[int, list[MultiPoly]]:
    """Raise each Q_j of degree d_j to the power d/d_j, d = lcm of the degrees.

    The outputs all have common degree d and cut out each original hypersurface
    with multiplicity d/d_j.
    """
    degs = []
    for q in Qs:
        d = q.degree
        if d is None or d < 1:
            raise InhomogeneousInput(f"hypersurface {q} is not homogeneous of degree >= 1")
        degs.append(d)
    d = math.lcm(*degs) if degs else 1
    return d, [q ** (d // dj) for q, dj in zip(Qs, degs)]
