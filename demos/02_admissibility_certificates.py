"""Weakly general position for moving targets, decided with one-sided certainty.

A family of hypersurfaces with coefficients in Q(z) is admissible for V when
no n+1 of them share a zero on V at generic parameter values.  Positive
answers here are sound: the checker specializes at random integer witnesses
and produces exact cofactors writing every x_i^s inside the generated ideal,
which is impossible when a common zero exists.  Negative answers are
heuristic (a stabilized positive quotient dimension) and flagged as such.
"""

from nevlab.algebra import RATIONAL_FUNCTION, MultiPoly, RationalFunction
from nevlab.gradedgeom import HomogeneousIdeal, admissibility_check, nullstellensatz_certificate

z = RationalFunction.z()
x0, x1 = (MultiPoly.variable(2, i, RATIONAL_FUNCTION) for i in range(2))
P1 = HomogeneousIdeal(2, [])

print("== P^1, targets {x0, x1 - z*x0} ==")
reports = admissibility_check(P1, [x0, x1 - x0.scale(z)], n=1, trials=5,
                              s_max=4, seed=1)
rep = reports[0]
print("status:", rep.status)
print("witness points:", [str(w) for w in rep.witnesses_tried])
print("certificate exponents:", [c.s for c in rep.certificates])
cert = rep.certificates[0].certificate
print("cofactors re-verify exactly:", cert.verify())
# The generators printed are the witness's primitive integer forms, which
# generate the same ideal as the specialized targets.
for i, cofs in enumerate(cert.cofactors):
    pieces = " + ".join(f"({c})*({g})" for c, g in zip(cofs, cert.generators)
                        if not c.is_zero)
    print(f"  x{i}^{cert.s} = {pieces}")

print()
print("== P^1, degenerate targets {x0, z*x0} (common zero (0:1)) ==")
reports = admissibility_check(P1, [x0, x0.scale(z)], n=1, trials=3,
                              s_max=4, seed=2)
rep = reports[0]
print("status:", rep.status)
print("stabilized quotient dimension:", rep.evidence_value)
print("warning:", rep.warning)

print()
print("== the conic, fixed pair {x0^2, x2^2} ==")
u0, u1, u2 = (MultiPoly.variable(3, i) for i in range(3))
conic = HomogeneousIdeal(3, [u0 * u2 - u1 * u1])
cert = nullstellensatz_certificate(conic, [u0 * u0, u2 * u2], s_max=6)
print(f"membership exponent s = {cert.s} (x1^4 needs the conic relation)")
print("verifies:", cert.verify())
