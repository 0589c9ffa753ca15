"""Hilbert functions and variety invariants, exactly.

The degree-k slice of a homogeneous ideal is spanned by monomial multiples of
its generators; its codimension in the space of all degree-k forms is the
Hilbert function value H_V(k).  For large k these values follow a polynomial
whose degree is dim V and whose leading coefficient encodes deg V.
"""

from nevlab.algebra import MultiPoly
from nevlab.gradedgeom import HomogeneousIdeal, hilbert_function, variety_invariants

x0, x1, x2 = (MultiPoly.variable(3, i) for i in range(3))

print("== the conic x0*x2 = x1^2 in P^2 ==")
conic = HomogeneousIdeal(3, [x0 * x2 - x1 * x1])
values = [hilbert_function(conic, k) for k in range(11)]
print("H(0..10) =", values)
print("closed form 2N+1 matches:", values[1:] == [2 * k + 1 for k in range(1, 11)])
n, deg = variety_invariants(conic)
print(f"dimension n = {n}, degree = {deg}   (a degree-2 curve)")

print()
print("== the twisted cubic in P^3 ==")
y = [MultiPoly.variable(4, i) for i in range(4)]
cubic = HomogeneousIdeal(4, [y[0] * y[2] - y[1] * y[1],
                             y[1] * y[3] - y[2] * y[2],
                             y[0] * y[3] - y[1] * y[2]])
print("H(1..6) =", [hilbert_function(cubic, k) for k in range(1, 7)])
n, deg = variety_invariants(cubic)
print(f"dimension n = {n}, degree = {deg}   (H(N) = 3N + 1)")

print()
print("== P^1 itself (the zero ideal) ==")
line = HomogeneousIdeal(2, [])
print("H(0..6) =", [hilbert_function(line, k) for k in range(7)])
print("invariants:", variety_invariants(line))
