"""Expression trees for entire curves, and the numeric exceptions.

A curve component is a tree in z built from rational constants, z, +, *,
unary minus, nonnegative integer powers and exp; each node has a symbolic
derivative.  The simplifying constructors (add, mul, neg, sub, pow_) fold
constants and drop the identities 0 and 1, and the operators on Expr build
trees through them.  Trees print in the problem-file grammar.

This module is plain Python: parsing a problem file builds trees without
importing numpy.  nevanlinna compiles and evaluates them, and raises the
exceptions defined here, so the command line catches them without importing
it.
"""

from __future__ import annotations

from fractions import Fraction


class OverflowGuard(ArithmeticError):
    """An evaluation left the safe floating range (radius too large)."""


class WindingAmbiguous(RuntimeError):
    """A boundary integral refused to snap to an integer (zero on or near an edge)."""


class ZeroAtOrigin(ValueError):
    """Jensen's formula needs g(0) != 0."""


class IdenticallyZero(ValueError):
    """The composed target vanishes identically on the curve."""


class NonPolynomialCoefficient(ValueError):
    """A numeric target has a coefficient that is not a polynomial in z."""


class DegenerateCurve(ValueError):
    """Every component of a curve vanishes at the probe points."""


class ZeroCharacteristic(ValueError):
    """T_f vanishes at a radius of a sweep grid, so N_f / (d T_f) is undefined."""


class Expr:
    __slots__ = ()

    def diff(self) -> "Expr":  # pragma: no cover - interface
        raise NotImplementedError

    # Operators build trees through the simplifying constructors below.
    __add__ = lambda a, b: add(a, b)
    __sub__ = lambda a, b: sub(a, b)
    __mul__ = lambda a, b: mul(a, b)
    __pow__ = lambda a, k: pow_(a, k)
    __neg__ = lambda a: neg(a)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = Fraction(value) if not isinstance(value, Fraction) else value

    def diff(self):
        return Const(0)

    def __str__(self):
        return str(self.value)


class Z(Expr):
    __slots__ = ()

    def diff(self):
        return Const(1)

    def __str__(self):
        return "z"


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return add(self.a.diff(), self.b.diff())

    def __str__(self):
        rhs = str(self.b)
        if rhs.startswith("-"):
            return f"{self.a} - {rhs[1:]}"
        return f"{self.a} + {rhs}"


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return add(mul(self.a.diff(), self.b), mul(self.a, self.b.diff()))

    def __str__(self):
        return f"{_paren(self.a)}*{_paren(self.b)}"


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def diff(self):
        return neg(self.a.diff())

    def __str__(self):
        return f"-{_paren(self.a)}"


class Pow(Expr):
    __slots__ = ("a", "k")

    def __init__(self, a, k: int):
        if k < 0:
            raise ValueError("Pow exponent must be a nonnegative integer")
        self.a, self.k = a, k

    def diff(self):
        if self.k == 0:
            return Const(0)
        return mul(mul(Const(self.k), pow_(self.a, self.k - 1)), self.a.diff())

    def __str__(self):
        return f"{_paren(self.a)}^{self.k}"


class Exp(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def diff(self):
        return mul(self.a.diff(), Exp(self.a))

    def __str__(self):
        return f"exp({self.a})"


def _paren(e: Expr) -> str:
    s = str(e)
    if isinstance(e, (Add, Neg)) or (" " in s and not s.startswith("exp(")):
        return f"({s})"
    return s


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def pow_(a: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1)
    if k == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value ** k)
    return Pow(a, k)
