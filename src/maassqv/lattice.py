"""Integer geometry behind the moment computation: the primitive norm
n_beta and the coordinates (a_j, b_j) of the four off-diagonal frames, with
the exact identities Q(b_j, a_j) = {n_beta, -D n_beta, p1 n_beta, -p2 n_beta}
that `verify-lattice` reports.  The rest of each frame (C_j, ell_j and the
bounded Bezout pair of the SL2 completion gamma_j), gamma_j itself, the
form Q(gamma_j (r, h)), the angle linearization and the fundamental-unit gcd
factorization of D are test oracles (tests/lattice_oracle.py).
"""

from __future__ import annotations

import math

from .errors import HypothesisViolated, ZeroElement
from .quadfield import FieldParams, QuadInt


def _Q(F: FieldParams, m: int, n: int) -> int:
    return m * m + m * n + n * n * F.omega_norm


def n_beta(F: FieldParams, beta: QuadInt) -> tuple[int, int]:
    """(signed, absolute) primitive-part norm: Q of beta/content."""
    if beta.is_zero():
        raise ZeroElement("n_beta of zero")
    g = math.gcd(beta.m, beta.n)
    signed = _Q(F, beta.m // g, beta.n // g)
    return signed, abs(signed)


def offdiag_frame(F: FieldParams, beta: QuadInt, j: int) -> tuple[int, int]:
    """(a_j, b_j) of beta's off-diagonal frame j in 1..4."""
    if beta.is_zero():
        raise ZeroElement("frame of zero")
    if j not in (1, 2, 3, 4):
        raise HypothesisViolated(f"frame index j must be 1, 2, 3 or 4, got {j}")
    M, N = beta.m, beta.n
    g = math.gcd(M, N)
    x, y = F.unit_x, F.unit_y
    wn = F.omega_norm
    if j == 1:
        return N // g, -(M + N) // g
    if j == 2:
        return (2 * M + N) // g, -(M + N - 2 * N * wn) // g
    if j == 3:
        g1 = math.gcd(y, 1 + x)
        return (M * y - N * (1 + x)) // (g * g1), (N * wn * y + (M + N) * (1 + x)) // (g * g1)
    g2 = math.gcd(y, 1 - x)
    return (N * (1 - x) + M * y) // (g * g2), (N * wn * y + (M + N) * (x - 1)) // (g * g2)
