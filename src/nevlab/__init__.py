"""nevlab: exact graded-algebra verification plus Nevanlinna-theory numerics
for holomorphic curves meeting moving hypersurface targets.

The exact side (algebra, linear, gradedgeom, filtration) computes Hilbert
functions, admissibility certificates, and the coset filtration that powers
the dimension counts; the numeric side (nevanlinna) evaluates characteristic
and counting functions on concrete entire curves and sweeps the main growth
inequality and the defect relation.  `cli` ties both together behind a
problem-file format; it is imported on its own (``nevlab.cli`` or
``python -m nevlab.cli``), not here, so running it as a module does not
import it twice.
"""

from . import algebra, linear, gradedgeom, filtration, nevanlinna  # noqa: F401

__version__ = "0.1.0"
