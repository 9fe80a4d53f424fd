"""Reference routes of maassqv.lattice that only the tests use.

`gamma` is a frame's SL2 completion gamma_j, `qgamma` the quadratic form
Q composed with it, `angle_linearization_error` the distance between an
angle and its linearization in the frame j, `lemma_factor_split` the
fundamental-unit gcd factorization of D, and `unit_divisibilities` its two
exact divisibility witnesses.  The package's `verify-lattice` reports only the frame
identities Q(b_j, a_j), which need none of these.
"""

from __future__ import annotations

import math

from maassqv.errors import BezoutRangeImpossible, HypothesisViolated, ZeroElement
from maassqv.lattice import OffDiagFrame, _Q, offdiag_frame
from maassqv.quadfield import FieldParams, QuadInt, angle, multiply, norm


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
    fr = offdiag_frame(F, beta, j)
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
