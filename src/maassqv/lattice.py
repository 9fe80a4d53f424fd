"""Integer geometry behind the moment computation: the primitive norm
n_beta and the four linearized-angle frames (C_j, a_j, b_j and the Bezout
pair of the SL2 completion gamma_j), with the exact identities
Q(b_j, a_j) = {n_beta, -D n_beta, p1 n_beta, -p2 n_beta} that
`verify-lattice` reports.  The matrix gamma_j, the frame's quadratic form
Q(gamma_j (r, h)), the angle linearization and the fundamental-unit gcd
factorization of D are test oracles (tests/lattice_oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BezoutRangeImpossible, HypothesisViolated, ZeroElement
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


@dataclass(frozen=True)
class OffDiagFrame:
    j: int
    C: float
    C_tilde: float
    a: int
    b: int
    abar: int | None  # None iff gcd(a_j, b_j) > 1 (only when (N(beta), D) > 1)
    bbar: int | None
    ell: int  # Poisson mode: 0 for j=1,2 and 1 for j=3,4


def _bezout_bounded(a: int, b: int) -> tuple[int, int]:
    """(abar, bbar) with a*abar - b*bbar = 1, |abar| <= |b|, |bbar| <= |a|."""
    if a == 0 or b == 0:
        # a=0 needs bbar=+-1 > |a|; b=0 needs abar=+-1 > |b|: unsatisfiable
        raise BezoutRangeImpossible(f"degenerate frame a={a}, b={b}")
    g = math.gcd(a, b)
    if g != 1:
        raise BezoutRangeImpossible(f"gcd(a,b)={g} != 1")
    u = pow(a, -1, abs(b))  # a*u = 1 mod |b|
    # candidates abar = u + t*b within [-|b|, |b|], nonnegative preferred
    for abar in sorted({u, u - abs(b), u + abs(b)}, key=lambda t: (t < 0, abs(t))):
        if abs(abar) > abs(b):
            continue
        bbar, rem = divmod(a * abar - 1, b)
        if rem == 0 and abs(bbar) <= abs(a):
            return abar, bbar
    raise BezoutRangeImpossible(f"no bounded Bezout pair for a={a}, b={b}")


def offdiag_frame(F: FieldParams, beta: QuadInt, j: int) -> OffDiagFrame:
    if beta.is_zero():
        raise ZeroElement("frame of zero")
    if j not in (1, 2, 3, 4):
        raise HypothesisViolated(f"frame index j must be 1, 2, 3 or 4, got {j}")
    M, N = beta.m, beta.n
    g = math.gcd(M, N)
    x, y = F.unit_x, F.unit_y
    wn = F.omega_norm
    sb = F.embed(beta)
    le = F.log_eps

    if j == 1:
        a = N // g
        b = -(M + N) // g
        C = -g * F.sqrtD / (sb * le)
    elif j == 2:
        a = (2 * M + N) // g
        b = -(M + N - 2 * N * wn) // g
        C = -g / (sb * le)
    elif j == 3:
        g1 = math.gcd(y, 1 + x)
        a = (M * y - N * (1 + x)) // (g * g1)
        b = (N * wn * y + (M + N) * (1 + x)) // (g * g1)
        C = (g / (sb * le)) * (math.gcd(x - 1, x + y * wn) + g1 * F.omega)
    else:
        g2 = math.gcd(y, 1 - x)
        a = (N * (1 - x) + M * y) // (g * g2)
        b = (N * wn * y + (M + N) * (x - 1)) // (g * g2)
        C = -(g / (sb * le)) * (math.gcd(1 + x, y * wn + x) + g2 * F.omega)

    try:
        abar, bbar = _bezout_bounded(a, b)
    except BezoutRangeImpossible:
        # gcd(a,b) > 1 or a degenerate zero entry: (C, a, b) are still
        # valid; only the SL2 completion (abar, bbar) is unavailable.
        abar = bbar = None
    C_tilde = -C / (b + a * F.omega)
    return OffDiagFrame(
        j=j, C=C, C_tilde=C_tilde, a=a, b=b, abar=abar, bbar=bbar,
        ell=0 if j in (1, 2) else 1,
    )
