"""Desk-scale arithmetic of real quadratic fields, Grossencharacters,
dihedral Hecke eigenvalues, Rankin-Selberg central values, quadratic
Gauss sums and the lattice identities feeding moment computations.

Modules:
  quadfield   -- exact arithmetic in Q(sqrt(D)), fundamental unit, angles
  ideals      -- the numpy principal-ideal scan, canonical generators by
                 norm, Grossencharacters, lambda_k and its dense table
  hecke       -- Hecke eigenvalue sources and multiplicative functions
  lattice     -- n_beta and the (a_j, b_j) of the off-diagonal frames, with
                 their identities
  halfint     -- Eisenstein coefficients and residue data, non-split
                 Dirichlet series and their contour reduction
  weights     -- the two smooth windows and their Mellin transforms, the
                 non-split one's read from w_nonsplit_mellin.npy
  lfun        -- gamma factors, AFE weights, L-values, constants, Watson-Ichino
  experiments -- the numeric checks, each run by a `maassqv` command
  report      -- the report type and its serialization
  cli         -- the `maassqv` commands

Every module-level function and class, and every method, is reached from
a command (one named exception, `HeckeSource.lambda_pp`, which the
benchmark's per-layer metrics name), and every dataclass field is read;
the test-only reference routes, and the QUADPACK port that writes the
Mellin table, live under tests/.
"""

from .errors import (
    MaassqvError,
    NotSquarefree,
    NotOneMod4,
    NotTwoPrimeProduct,
    UnitNormNotOne,
    Overflow,
    ZeroElement,
    ScanBoundExceeded,
)
from .quadfield import FieldParams, QuadInt, make_field

__all__ = [
    "MaassqvError",
    "NotSquarefree",
    "NotOneMod4",
    "NotTwoPrimeProduct",
    "UnitNormNotOne",
    "Overflow",
    "ZeroElement",
    "ScanBoundExceeded",
    "FieldParams",
    "QuadInt",
    "make_field",
]
