"""Reference routes of maassqv.lfun that only the tests use.

`gamma_factor` is the degree-4 archimedean factor of L(s, psi x phi_2k),
evaluated pointwise; maassqv.lfun only ever needs its log-modulus or its
ratios on the contour nodes.  `dirichlet_l_line_per_node` is the
L(2w + 2s, chi_D) contour line summed with one complex exponential per
term and node."""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import loggamma

from maassqv.ideals import kronecker_residues


def gamma_factor(s: complex, t_psi: float, t_2k: float) -> complex:
    """pi^{-2s} prod over both sign choices of Gamma((s +- i t_psi +- i t_2k)/2)."""
    total = -2.0 * complex(s) * math.log(math.pi)
    for e1 in (1.0, -1.0):
        for e2 in (1.0, -1.0):
            total += loggamma((s + 1j * (e1 * t_psi + e2 * t_2k)) / 2.0)
    return cmath.exp(total)


def dirichlet_l_line_per_node(F, s: complex, cfg) -> np.ndarray:
    """L(2w + 2s, chi_D) at the contour nodes w of cfg, 40,000 terms, as
    sum chi_D(n) exp(-(2w + 2s) log n) node by node."""
    n = np.arange(1, 40001)
    chin = kronecker_residues(F)[n % F.D]
    logn = np.log(n)
    s_nodes = 2.0 * cfg.nodes() + 2.0 * s
    out = np.empty(s_nodes.size, dtype=np.complex128)
    for i, sv in enumerate(s_nodes):
        out[i] = np.sum(chin * np.exp(-sv * logn))
    return out
