"""Pointwise multiplicative functions of maassqv.hecke that only the tests
use: the sieve weight g, the short Moebius-type mu_2k (by prime powers and
in closed form) and the second Rankin-Selberg Satake coefficient.  Each is
evaluated one n at a time through sympy's factorint; `mu_2k` is the
reference that `maassqv.experiments.mu_2k_table` is checked against.
`synthetic_lambda_p` is the synthetic draw of lambda_psi(p) one prime at a
time, the reference for the batched `HeckeSource.lambda_p_array`.
"""

from __future__ import annotations

import hashlib
import math

from sympy import factorint

from maassqv.hecke import HeckeSource, h_fn
from maassqv.ideals import kronecker_chi, lambda_k
from maassqv.quadfield import FieldParams


def synthetic_lambda_p(seed: int, D: int, p: int) -> float:
    """lambda_psi(p) of the synthetic source with this seed and level D."""
    h = hashlib.sha256(f"{seed}:{p}".encode()).digest()
    u = int.from_bytes(h[:8], "big") / 2**64  # uniform [0,1)
    if D % p == 0:
        return (1.0 if u < 0.5 else -1.0) / math.sqrt(p)
    return 2.0 * math.cos(math.pi * u)


def g_fn(src: HeckeSource, F: FieldParams, n: int) -> float:
    """Multiplicative sieve weight: g(p) = -2h(p), g(p^2) = 3chi(p)+h(p^2),
    g(p^3) = -2chi(p)h(p), g(p^4) = chi(p)^2, zero on higher powers."""
    assert n >= 1
    v = 1.0
    for p, b in factorint(n).items():
        chi = kronecker_chi(F, p)
        if b == 1:
            v *= -2.0 * h_fn(src, F, p)
        elif b == 2:
            v *= 3.0 * chi + h_fn(src, F, p * p)
        elif b == 3:
            v *= -2.0 * chi * h_fn(src, F, p)
        elif b == 4:
            v *= float(chi * chi)
        else:
            return 0.0
    return v


def mu_2k(F: FieldParams, k: int, n: int) -> float:
    """mu_2k(p) = -lambda_2k(p), mu_2k(p^2) = chi_D(p), zero on cubes."""
    assert n >= 1
    v = 1.0
    for p, b in factorint(n).items():
        if b == 1:
            v *= -lambda_k(F, 2 * k, p)
        elif b == 2:
            v *= kronecker_chi(F, p)
        else:
            return 0.0
    return v


def mu_2k_closed(F: FieldParams, k: int, n: int) -> float:
    """Closed form: for n = r^2 s with s squarefree,
    chi_D(r) mu^2(r) mu(s) lambda_2k(s) when (r, s) = 1, else 0."""
    assert n >= 1
    r = 1
    s = 1
    mob_s = 1
    sqfree_r = True
    for p, b in factorint(n).items():
        if b % 2 == 1:
            s *= p
            mob_s = -mob_s
            if b > 1:
                return 0.0  # p | r and p | s
        else:
            r *= p ** (b // 2)
            if b // 2 > 1 or b > 2:
                sqfree_r = False
    if not sqfree_r:
        return 0.0
    return kronecker_chi(F, r) * mob_s * lambda_k(F, 2 * k, s)


def satake_square(src: HeckeSource, F: FieldParams, k: int, p: int) -> float:
    """Second coefficient of the Rankin-Selberg local factor:
    (lambda_psi(p^2) - 1)(lambda_4k(p) + 1 - chi_D(p))."""
    return (src.lambda_pp(p, 2) - 1.0) * (
        lambda_k(F, 4 * k, p) + 1.0 - kronecker_chi(F, p)
    )
