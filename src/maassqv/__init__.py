"""Desk-scale arithmetic of real quadratic fields, Grossencharacters,
dihedral Hecke eigenvalues, Rankin-Selberg central values, quadratic
Gauss sums and the lattice identities feeding moment computations.

Modules:
  quadfield   -- exact arithmetic in Q(sqrt(D)), fundamental unit, angles
  ideals      -- the numpy principal-ideal scan, canonical generators by
                 norm, Grossencharacters, lambda_k and its dense table
  hecke       -- Hecke eigenvalue sources and multiplicative functions
  lattice     -- n_beta, off-diagonal frames, unit factorization identities
  halfint     -- Gauss sums, Eisenstein residue data, non-split Dirichlet series
  lfun        -- gamma factors, AFE weights, L-values, constants, Watson-Ichino
  experiments -- CLI-driven numeric experiments and report serialization
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
