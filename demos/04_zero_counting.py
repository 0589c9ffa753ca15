"""Characteristic functions, argument-principle zero location, and Jensen.

The characteristic T_f(r) is the circle average of log of the max-norm of the
curve's components.  Zeros of a composed target are located by subdividing a
bounding box and snapping boundary integrals of g'/g to integers; the
counting function N(r) then discharges its integral definition exactly over
the located zeros.  Jensen's formula ties the two computations together and
serves as the standing cross-check.
"""

import math

from nevlab.expr import Const, Exp, Z, sub
from nevlab.nevanlinna import (
    EntireCurve,
    Program,
    characteristic_T,
    counting_N,
    jensen_check,
    locate_zeros,
)

print("== characteristic of (1 : e^z) ==")
f = EntireCurve(components=(Const(1), Exp(Z())))
for r in (5, 10, 20):
    t = characteristic_T(f, r)
    print(f"T({r:2d}) = {t:.9f}   closed form r/pi = {r / math.pi:.9f}")

print()
print("== zeros of e^z - 1 in |z| < 10 ==")
g = sub(Exp(Z()), Const(1))
zeros = locate_zeros(g, 10, tol=1e-10)
for z, m in zeros.zeros:
    print(f"  {z.real:+.2e} {z.imag:+.12f}i   multiplicity {m}")
print("expected: 0 and +-2*pi*i =", 2 * math.pi)

print()
print("== counting function ==")
n10 = counting_N(zeros, 10)
closed = math.log(10) + 2 * math.log(10 / (2 * math.pi))
print(f"N(10) = {n10:.9f}   three-term closed form = {closed:.9f}")

print()
print("== Jensen residuals (quadrature vs zero list) ==")
for name, h, r in (("e^z - 2", sub(Exp(Z()), Const(2)), 10.0),
                   ("z - 3", sub(Z(), Const(3)), 10.0),
                   ("e^z (zero-free)", Exp(Z()), 5.0)):
    residual = jensen_check(Program([h]), r, [locate_zeros(h, r * (1 + 1e-3) + 1e-6)])
    print(f"  {name:16s} at r = {r:4.1f}: residual {residual:.2e}")

print()
print("== a double zero ==")
from nevlab.expr import Pow

zl = locate_zeros(Pow(Z(), 2), 1.5, tol=1e-10)
print("z^2 in |z| < 1.5:", [(f"{z:.2e}", m) for z, m in zl.zeros])
