"""Exact arithmetic in Q(sqrt(D)) for squarefree D = p1*p2 = 1 mod 4.

Elements are m + n*omega with omega = (1+sqrt(D))/2, so omega satisfies
omega^2 = omega + (D-1)/4.  The binary quadratic form

    Q(m, n) = m^2 + m*n + n^2*(1-D)/4

is the field norm in these coordinates.  The fundamental unit eps = x+y*omega
is found by brute-force Pell search; fields whose fundamental unit has norm
-1 are rejected because every downstream identity assumes N(eps) = +1.
`factorize` is the package's one integer factorization: trial division,
refused with Overflow above FACTOR_MAX = 10^12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    NotOneMod4,
    NotSquarefree,
    NotTwoPrimeProduct,
    Overflow,
    UnitNormNotOne,
    ZeroElement,
)

_INT_MAX = 2**127 - 1  # checked 128-bit signed arithmetic
FACTOR_MAX = 10**12  # largest n that factorize takes: trial division to 10^6
_UNIT_Y_MAX = 10**6  # make_field looks for the fundamental unit with y <= this


def _chk(v: int) -> int:
    if not -_INT_MAX <= v <= _INT_MAX:
        raise Overflow(f"value exceeds 128-bit signed range: ~2^{v.bit_length()}")
    return v


def factorize(n: int) -> dict[int, int]:
    """{p: v_p(n)} for n >= 1 by trial division, primes ascending; an n
    over FACTOR_MAX raises Overflow before any division."""
    if n > FACTOR_MAX:
        raise Overflow(f"{n} exceeds the trial-division limit {FACTOR_MAX}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


@dataclass(frozen=True)
class QuadInt:
    """m + n*omega with exact integer coordinates."""

    m: int
    n: int

    def __post_init__(self) -> None:
        _chk(self.m)
        _chk(self.n)

    def is_zero(self) -> bool:
        return self.m == 0 and self.n == 0


@dataclass(frozen=True)
class FieldParams:
    D: int
    p1: int  # the factor with Q((1+x)/g1, y/g1) = p1
    p2: int
    unit_x: int
    unit_y: int
    log_eps: float
    omega_norm: int  # omega * conj(omega) = (1-D)/4

    @property
    def sqrtD(self) -> float:
        return math.sqrt(self.D)

    @property
    def omega(self) -> float:
        return (1.0 + self.sqrtD) / 2.0

    @property
    def eps(self) -> QuadInt:
        return QuadInt(self.unit_x, self.unit_y)

    def embed(self, a: QuadInt) -> float:
        """Real embedding sending omega to (1+sqrt(D))/2."""
        return a.m + a.n * self.omega


def norm(F: FieldParams, a: QuadInt) -> int:
    m, n = a.m, a.n
    return _chk(m * m + m * n + n * n * F.omega_norm)


def conjugate(a: QuadInt) -> QuadInt:
    return QuadInt(_chk(a.m + a.n), -a.n)


def multiply(F: FieldParams, a: QuadInt, b: QuadInt) -> QuadInt:
    # (m1 + n1 w)(m2 + n2 w) with w^2 = w + (D-1)/4
    c = (F.D - 1) // 4
    m = _chk(a.m * b.m + a.n * b.n * c)
    n = _chk(a.m * b.n + a.n * b.m + a.n * b.n)
    return QuadInt(m, n)


def angle(F: FieldParams, a: QuadInt) -> float:
    """theta_a = log|a / conj(a)| = 2 log|a| - log|N(a)|.

    The second form avoids cancellation when |a| is large and |conj(a)|
    correspondingly tiny.
    """
    if a.is_zero():
        raise ZeroElement("angle of zero")
    nrm = norm(F, a)
    emb = abs(F.embed(a))
    if emb == 0.0:  # never for nonzero algebraic integer, guard fp underflow
        raise ZeroElement("embedding underflow")
    return 2.0 * math.log(emb) - math.log(abs(nrm))


def unit_power(F: FieldParams, j: int) -> QuadInt:
    """eps^j for j of either sign (inverse via conj since N(eps)=1)."""
    eps = F.eps
    if j < 0:
        eps = conjugate(eps)  # eps^{-1} = conj(eps) when N(eps)=1
        j = -j
    out = QuadInt(1, 0)
    for _ in range(j):
        out = multiply(F, out, eps)
    return out


def canonical_generator(F: FieldParams, a: QuadInt) -> QuadInt:
    """The unit multiple u*a, u = +-eps^j, with angle in [0, 2 log eps)
    and positive real embedding."""
    if a.is_zero():
        raise ZeroElement("canonical_generator of zero")
    period = 2.0 * F.log_eps  # theta shifts by 2 log eps per eps-multiply
    th = angle(F, a)
    j = math.floor(th / period)
    cand = multiply(F, a, unit_power(F, -j))
    # float roundoff can leave us one period off; fix exactly
    for _ in range(3):
        tc = angle(F, cand)
        if tc < -1e-12:
            cand = multiply(F, cand, F.eps)
        elif tc >= period - 1e-12:
            cand = multiply(F, cand, conjugate(F.eps))
        else:
            break
    if F.embed(cand) < 0:
        cand = QuadInt(-cand.m, -cand.n)
    return cand


def make_field(D: int) -> FieldParams:
    if D < 5:
        raise NotTwoPrimeProduct(f"D={D} too small")
    if D % 4 != 1:
        raise NotOneMod4(f"D={D} is {D % 4} mod 4, need 1")
    fac = factorize(D)
    if any(e > 1 for e in fac.values()):
        raise NotSquarefree(f"D={D} is not squarefree")
    if len(fac) != 2:
        raise NotTwoPrimeProduct(f"D={D} has {len(fac)} prime factors, need 2")
    q1, q2 = fac

    # (2x+y)^2 - D y^2 = +-4; scan y ascending so the first unit > 1 is
    # the fundamental one.
    x = y = 0
    for yy in range(1, _UNIT_Y_MAX + 1):
        t = D * yy * yy - 4
        r = math.isqrt(t)
        if r * r == t and (r - yy) % 2 == 0:
            raise UnitNormNotOne(f"D={D}: fundamental unit has norm -1")
        t = D * yy * yy + 4
        r = math.isqrt(t)
        if r * r == t and (r - yy) % 2 == 0:
            x, y = (r - yy) // 2, yy
            break
    else:
        raise Overflow(f"no fundamental unit found with y <= {_UNIT_Y_MAX}")

    if q1 % 4 != 3 or q2 % 4 != 3:
        raise NotTwoPrimeProduct(f"D={D}: prime factors must be 3 mod 4")

    # internal invariants of the unit found above, not checks of input:
    # (2x + y)^2 - D y^2 = 4 with y >= 1 and D >= 21 gives both
    assert x >= 2 and y >= 1
    omega_norm = (1 - D) // 4
    assert x * x + x * y + y * y * omega_norm == 1

    log_eps = math.log(x + y * (1.0 + math.sqrt(D)) / 2.0)

    # orient (p1, p2) by the unit factorization Q((1+x)/g1, y/g1) = p1
    g1 = math.gcd(1 + x, y)
    a1, b1 = (1 + x) // g1, y // g1
    p1 = a1 * a1 + a1 * b1 + b1 * b1 * omega_norm
    if p1 not in (q1, q2):
        raise NotTwoPrimeProduct(f"D={D}: unit factorization gives {p1}")
    p2 = D // p1

    return FieldParams(
        D=D,
        p1=p1,
        p2=p2,
        unit_x=x,
        unit_y=y,
        log_eps=log_eps,
        omega_norm=omega_norm,
    )
