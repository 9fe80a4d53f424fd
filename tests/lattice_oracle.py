"""Reference routes of maassqv.lattice that only the tests use.

`full_frame` is beta's whole off-diagonal frame j from the paper's lattice
lemma: the package's (a_j, b_j) with the constant C_j, C~_j = -C_j/(b_j +
a_j omega), the Poisson mode ell_j and the bounded Bezout pair (abar_j,
bbar_j) of the SL2 completion, which `bezout_bounded` finds.  `gamma` is
that completion gamma_j, `qgamma` the quadratic form Q composed with it,
`angle_linearization_error` the distance between an angle and its
linearization in the frame j, `lemma_factor_split` the fundamental-unit
gcd factorization of D, and `unit_divisibilities` its two exact
divisibility witnesses.  The package's `verify-lattice` reports only the
frame identities Q(b_j, a_j), which need none of these.
`BezoutRangeImpossible` is the error of a frame with no bounded Bezout pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from maassqv.errors import HypothesisViolated, MaassqvError, ZeroElement
from maassqv.lattice import _Q, offdiag_frame
from maassqv.quadfield import FieldParams, QuadInt, angle, multiply, norm


class BezoutRangeImpossible(MaassqvError):
    pass


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


def bezout_bounded(a: int, b: int) -> tuple[int, int]:
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


def full_frame(F: FieldParams, beta: QuadInt, j: int) -> OffDiagFrame:
    """beta's off-diagonal frame j, on the package's (a_j, b_j)."""
    a, b = offdiag_frame(F, beta, j)
    g = math.gcd(beta.m, beta.n)
    x, y = F.unit_x, F.unit_y
    sb = F.embed(beta)
    le = F.log_eps
    if j == 1:
        C = -g * F.sqrtD / (sb * le)
    elif j == 2:
        C = -g / (sb * le)
    elif j == 3:
        g1 = math.gcd(y, 1 + x)
        C = (g / (sb * le)) * (math.gcd(x - 1, x + y * F.omega_norm) + g1 * F.omega)
    else:
        g2 = math.gcd(y, 1 - x)
        C = -(g / (sb * le)) * (math.gcd(1 + x, y * F.omega_norm + x) + g2 * F.omega)
    try:
        abar, bbar = bezout_bounded(a, b)
    except BezoutRangeImpossible:
        # gcd(a,b) > 1 or a degenerate zero entry: (C, a, b) are still
        # valid; only the SL2 completion (abar, bbar) is unavailable.
        abar = bbar = None
    C_tilde = -C / (b + a * F.omega)
    return OffDiagFrame(
        j=j, C=C, C_tilde=C_tilde, a=a, b=b, abar=abar, bbar=bbar,
        ell=0 if j in (1, 2) else 1,
    )


def gamma(frame: OffDiagFrame) -> tuple[tuple[int, int], tuple[int, int]]:
    """gamma_j = ((b, a), (-abar, -bbar)), of determinant 1."""
    if frame.abar is None or frame.bbar is None:
        raise BezoutRangeImpossible("frame has no SL2 completion")
    return ((frame.b, frame.a), (-frame.abar, -frame.bbar))


def qgamma(F: FieldParams, frame: OffDiagFrame, r: int, h: int) -> int:
    """Q composed with gamma_j: Q(b r - abar h, a r - bbar h), exact."""
    if frame.abar is None or frame.bbar is None:
        raise BezoutRangeImpossible("frame has no SL2 completion")
    return norm(
        F,
        QuadInt(frame.b * r - frame.abar * h, frame.a * r - frame.bbar * h),
    )


def angle_linearization_error(
    F: FieldParams, alpha: QuadInt, beta: QuadInt, j: int
) -> float:
    """|(ell_j - theta_{alpha*beta}/log eps) - (C_j/alpha)(a_j m - b_j n)|."""
    prod = multiply(F, alpha, beta)
    if prod.is_zero():
        raise ZeroElement("zero product")
    npr = norm(F, prod)
    want_pos = j in (1, 3)
    if (npr > 0) != want_pos:
        raise HypothesisViolated(f"sign of N(alpha*beta) wrong for branch {j}")
    fr = full_frame(F, beta, j)
    dev = fr.ell - angle(F, prod) / F.log_eps
    if abs(dev) > 0.1:
        raise HypothesisViolated(f"|deviation| = {abs(dev):.3f} > 1/10")
    lin = (fr.C / F.embed(alpha)) * (fr.a * alpha.m - fr.b * alpha.n)
    return abs(dev - lin)


def lemma_factor_split(F: FieldParams) -> tuple[int, int, int, int]:
    """(p1, p2, g1, g2) with g1=(1+x,y), g2=(1-x,y), g1*g2=y and the
    Q-values of the split coordinates equal to p1 and -p2 exactly."""
    x, y = F.unit_x, F.unit_y
    g1 = math.gcd(1 + x, y)
    g2 = math.gcd(1 - x, y)
    assert g1 * g2 == y
    p1 = _Q(F, (1 + x) // g1, y // g1)
    mp2 = _Q(F, (x - 1) // g2, y // g2)
    assert p1 == F.p1 and mp2 == -F.p2 and p1 * (-mp2) == F.D
    return p1, -mp2, g1, g2


def unit_divisibilities(F: FieldParams) -> tuple[int, int]:
    """The two exact divisibility witnesses: returns (r1/p1, r2/p2) where
    r1 = 2y/g1 * omega_norm + (x+1)/g1 is divisible by p1 and
    r2 = 2y/g2 * omega_norm + (x-1)/g2 by p2 (integers, else assertion)."""
    x, y = F.unit_x, F.unit_y
    g1 = math.gcd(x + 1, y)
    g2 = math.gcd(x - 1, y) if x != 1 else y
    r1 = 2 * y // g1 * F.omega_norm + (x + 1) // g1
    r2 = 2 * y // g2 * F.omega_norm + (x - 1) // g2
    assert r1 % F.p1 == 0 and r2 % F.p2 == 0
    return r1 // F.p1, r2 // F.p2
