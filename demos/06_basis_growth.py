"""Growth of the quotient-basis curve: an optional diagnostic.

The degree-N quotient basis (the filtration products) evaluated along the
curve defines a new entire curve F into a projective space of dimension
H_V(N) - 1.  Its characteristic should grow no faster than N times the
original characteristic; the Cartan-style circle sums over the coordinate
targets of F are recorded alongside for comparison but deliberately not
asserted.
"""

from fractions import Fraction

from nevlab.algebra import RATIONAL_FUNCTION, MultiPoly, RationalFunction
from nevlab.filtration import build_table, filtration_basis
from nevlab.gradedgeom import HomogeneousIdeal
from nevlab.expr import Const, Exp, Mul, Z
from nevlab.nevanlinna import EntireCurve, basis_growth_diagnostic

print("== P^1, target x0, curve (1 : e^z), N = 4 ==")
line = HomogeneousIdeal(2, [])
x0 = MultiPoly.variable(2, 0)
table = build_table(line, [x0], 4)
basis = filtration_basis(table)
print("basis forms:", [str(p) for p in basis])

curve = EntireCurve(components=(Const(1), Exp(Z())))
diag = basis_growth_diagnostic(basis, curve, N=4, radii=(5, 10, 20, 30))
print(f"{'r':>4} {'T_f':>10} {'T_F':>10} {'N*T_f':>10} {'cartan sum':>12}")
for r, tf, tF, cs in zip(diag.radii, diag.T_f, diag.T_F, diag.cartan_sums):
    print(f"{r:4.0f} {tf:10.4f} {tF:10.4f} {4 * tf:10.4f} {cs:12.4f}")
print("T_F <= N*T_f + slack holds:", diag.bound_holds)

print()
print("== the conic, moving target, curve (1 : e^z : e^(2z)), N = 4 ==")
x = [MultiPoly.variable(3, i) for i in range(3)]
conic = HomogeneousIdeal(3, [x[0] * x[2] - x[1] * x[1]])
z = RationalFunction.z()
q1 = (x[0] * x[0]).over(RATIONAL_FUNCTION).scale(1 + z * z * Fraction(1, 4))
table = build_table(conic, [q1], 4)
basis = filtration_basis(table)
curve2 = EntireCurve(components=(Const(1), Exp(Z()), Exp(Mul(Const(2), Z()))))
diag = basis_growth_diagnostic(basis, curve2, N=4, radii=(5, 10, 20))
for r, tf, tF, cs in zip(diag.radii, diag.T_f, diag.T_F, diag.cartan_sums):
    print(f"r = {r:4.0f}: T_f = {tf:8.4f}, T_F = {tF:8.4f}, "
          f"N*T_f = {4 * tf:8.4f}, cartan sum = {cs:8.4f}")
print("bound holds:", diag.bound_holds)
