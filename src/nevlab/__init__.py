"""nevlab: exact graded-algebra verification plus Nevanlinna-theory numerics
for holomorphic curves meeting moving hypersurface targets.

The exact side (algebra, linear, gradedgeom, filtration) computes Hilbert
functions, admissibility certificates, and the coset filtration that powers
the dimension counts; the numeric side (nevanlinna) evaluates characteristic
and counting functions on concrete entire curves, the expression trees of
`expr`, and sweeps the main growth inequality and the defect relation.
`cli` ties both together behind a problem-file format.  It imports
nevanlinna and numpy only inside the numeric commands, so hilbert,
admissible, filtration, basis and product run without numpy.  Neither is
imported here: ``nevlab.cli`` (or ``python -m nevlab.cli``) is imported on
its own, so running it as a module does not import it twice, and
importing ``nevlab.nevanlinna`` loads the numeric side, numpy with it.
"""

from . import algebra, linear, gradedgeom, filtration, expr  # noqa: F401

__version__ = "0.1.0"
