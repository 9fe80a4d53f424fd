"""The degree-4 archimedean factor of L(s, psi x phi_2k), evaluated
pointwise for the tests; maassqv.lfun only ever needs its log-modulus or
its ratios on the contour nodes."""

from __future__ import annotations

import cmath
import math

from scipy.special import loggamma


def gamma_factor(s: complex, t_psi: float, t_2k: float) -> complex:
    """pi^{-2s} prod over both sign choices of Gamma((s +- i t_psi +- i t_2k)/2)."""
    total = -2.0 * complex(s) * math.log(math.pi)
    for e1 in (1.0, -1.0):
        for e2 in (1.0, -1.0):
            total += loggamma((s + 1j * (e1 * t_psi + e2 * t_2k)) / 2.0)
    return cmath.exp(total)
