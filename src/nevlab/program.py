"""Expression trees of composed targets, compiled into flat numpy programs.

compose_form writes a form Q(f_0, ..., f_M) on a curve's components as an
expression tree of `expr` (rational constants, z, +, *, -, integer powers,
exp).  There is one evaluator for the numeric side: trees are compiled into
a Program, a flat list of numpy operations with common subtrees shared
across the trees compiled together, and run on a point set.  exp arguments
are guarded, so magnitudes stay below about 1e304.
"""

from __future__ import annotations

import operator

import numpy as np

from .algebra import RATIONAL_FUNCTION, MultiPoly, RationalFunction
from .expr import (
    Add,
    Const,
    Exp,
    Expr,
    Mul,
    Neg,
    NonPolynomialCoefficient,
    OverflowGuard,
    Pow,
    Z,
    add,
    mul,
    pow_,
)

EXP_REAL_CAP = 700.0  # exp argument guard: keeps magnitudes below ~1e304


def _guarded_exp(w):
    mx = np.max(np.real(w)) if np.ndim(w) else float(np.real(w))
    if mx > EXP_REAL_CAP:
        raise OverflowGuard(
            f"exp argument real part {mx:.1f} exceeds the guard {EXP_REAL_CAP}")
    return np.exp(w)


_OPERATORS = {Add: operator.add, Mul: operator.mul, Neg: operator.neg,
              Pow: operator.pow, Exp: _guarded_exp}


class Program:
    """Expression trees compiled into one flat list of numpy operations.

    Structurally equal subtrees are hash-consed across all the trees, so a
    shared exp(z) is computed once per point set.  Constants are converted to
    complex once.  The ops run in the trees' post-order, each applying its
    node's operator (operator.add/mul/neg/pow or _guarded_exp), so the first
    exp argument past the guard, in that order, raises the OverflowGuard.  A
    register is released after its last use.
    """

    def __init__(self, exprs):
        self._init: list = [None]  # register values before a run; register 0 holds z
        self._keys: dict = {}      # structural key -> register
        self._ops: list = []       # (operator, destination, source registers)
        seen: dict[int, int] = {}
        self.outputs = tuple(self._emit(e, seen) for e in exprs)
        last_use = {s: i for i, (_, _, srcs) in enumerate(self._ops) for s in srcs}
        self._ops = [(fn, dst, srcs, tuple(s for s in set(srcs)
                                           if last_use[s] == i and s not in self.outputs))
                     for i, (fn, dst, srcs) in enumerate(self._ops)]

    def _register(self, key, value=None) -> int:
        reg = self._keys.get(key)
        if reg is None:
            reg = self._keys[key] = len(self._init)
            self._init.append(value)
        return reg

    def _emit(self, e: Expr, seen: dict[int, int]) -> int:
        reg = seen.get(id(e))
        if reg is not None:
            return reg
        if isinstance(e, Const):
            reg = self._register(("const", e.value), complex(e.value))
        elif isinstance(e, Z):
            reg = 0
        else:
            srcs = [self._emit(e.a, seen)]
            if isinstance(e, (Add, Mul)):
                srcs.append(self._emit(e.b, seen))
            elif isinstance(e, Pow):
                srcs.append(self._register(("int", e.k), e.k))
            srcs = tuple(srcs)
            key = (type(e), srcs)
            if key not in self._keys:
                self._ops.append((_OPERATORS[type(e)], self._register(key), srcs))
            reg = self._keys[key]
        seen[id(e)] = reg
        return reg

    def eval(self, z) -> list:
        """Values of the compiled trees at z, constants left unbroadcast."""
        regs = list(self._init)
        regs[0] = z
        for fn, dst, srcs, dead in self._ops:
            regs[dst] = fn(*[regs[s] for s in srcs])
            for s in dead:
                regs[s] = None
        return [regs[o] for o in self.outputs]


def rf_to_expr(coeff: RationalFunction) -> Expr:
    """Polynomial-in-z coefficient as an expression tree (Horner form)."""
    if len(coeff.den) != 1 or coeff.den[0] != 1:
        raise NonPolynomialCoefficient(
            f"numeric targets need polynomial coefficients, got {coeff}")
    coeffs = coeff.num
    if not coeffs:
        return Const(0)
    acc: Expr = Const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = add(Const(c), mul(Z(), acc))
    return acc


def compose_form(Q: MultiPoly, curve) -> Expr:
    """Q(f_0,...,f_M) as an expression tree, for a curve (an EntireCurve)
    with components f_i; coefficients must be polynomial in z."""
    if Q.nvars != curve.nvars:
        raise ValueError("variable count of the form does not match the curve")
    total: Expr = Const(0)
    for exp, c in Q.items():
        if Q.field == RATIONAL_FUNCTION:
            term: Expr = rf_to_expr(c)
        else:
            term = Const(c)
        for i, k in enumerate(exp):
            if k:
                term = mul(term, pow_(curve.components[i], k))
        total = add(total, term)
    return total
