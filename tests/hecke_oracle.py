"""Pointwise multiplicative functions of maassqv.hecke that only the tests
use, each evaluated one n at a time through sympy's factorint with its
local factors multiplied in ascending p:
- `lambda_pp`, lambda_psi(p^b) by the scalar Hecke recursion, the
  reference for `HeckeSource.lambda_pp_array`;
- `lambda_psi`, `vartheta` and `h_pointwise`, the references for the array
  routes `maassqv.hecke.lambda_psi`, `vartheta` and `h_fn` (h over the full
  window of `ideal_oracle.norm_oracle`, each ideal once);
- `local_series`, the local ratio L(s, p^b) in closed form and truncated;
- the sieve weight g, the short Moebius-type mu_2k (by prime powers and in
  closed form; the reference for `maassqv.experiments.mu_2k_table`) and
  the second Rankin-Selberg Satake coefficient;
- `synthetic_lambda_p`, the synthetic draw of lambda_psi(p) one prime at a
  time, the reference for the batched `HeckeSource.lambda_p_array`;
- `dense_fill`, the whole-table multiplicative fill that `fill_segment`
  replaced (numpy, not pointwise), the reference for the dense tables it
  builds;
- `write_table`, the writer of the table files that `hecke.read_table`
  reads (the `--table` of the CLI), from a source's batched draw.
`DivergentDenominator` is the error of `local_series` when the truncated
denominator vanishes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from sympy import factorint

from ideal_oracle import norm_oracle
from maassqv.errors import MaassqvError
from maassqv.hecke import HeckeSource, h_fn, local_factors, primes_upto
from maassqv.ideals import kronecker, lambda_k
from maassqv.quadfield import FieldParams, QuadInt, norm


class DivergentDenominator(MaassqvError):
    pass


def synthetic_lambda_p(seed: int, D: int, p: int) -> float:
    """lambda_psi(p) of the synthetic source with this seed and level D."""
    h = hashlib.sha256(f"{seed}:{p}".encode()).digest()
    u = int.from_bytes(h[:8], "big") / 2**64  # uniform [0,1)
    if D % p == 0:
        return (1.0 if u < 0.5 else -1.0) / math.sqrt(p)
    return 2.0 * math.cos(math.pi * u)


def lambda_pp(src: HeckeSource, p: int, b: int) -> float:
    """lambda_psi(p^b) by the Hecke recursion (ramified: power model)."""
    if b < 0:
        return 0.0
    if b == 0:
        return 1.0
    lp = src.lambda_p(p)
    if src.level % p == 0:
        return lp**b
    prev2, prev1 = 1.0, lp
    for _ in range(b - 1):
        prev2, prev1 = prev1, lp * prev1 - prev2
    return prev1


def lambda_psi(src: HeckeSource, n: int) -> float:
    """Multiplicative extension; lambda(-n) = lambda(n), lambda(0) = 0."""
    n = abs(n)
    if n == 0:
        return 0.0
    v = 1.0
    for p, b in sorted(factorint(n).items()):
        v *= lambda_pp(src, p, b)
    return v


def vartheta(src: HeckeSource, n: int) -> float:
    """Multiplicative; local value = closed local series at s=1."""
    assert n >= 1
    v = 1.0
    for p, b in sorted(factorint(n).items()):
        chi0 = 0 if src.level % p == 0 else 1
        v *= (lambda_pp(src, p, b) - chi0 * lambda_pp(src, p, b - 2) / p) / (1 + chi0 / p)
    return v


def h_pointwise(src: HeckeSource, F: FieldParams, n: int) -> float:
    """h(n) one ideal at a time over the full window of `norm_oracle`: the
    correctly rounded (math.fsum) sum of vartheta(|n_beta|)/sqrt(|n_beta|),
    n_beta the norm of the generator's primitive part."""
    terms = []
    for rep in norm_oracle(F, n):
        g = math.gcd(rep.gen.m, rep.gen.n)
        nb = abs(norm(F, QuadInt(rep.gen.m // g, rep.gen.n // g)))
        terms.append(vartheta(src, nb) / math.sqrt(nb))
    return math.fsum(terms)


def local_series(
    src: HeckeSource, s: complex, p: int, b: int, J: int = 60
) -> tuple[complex, complex]:
    """(closed, truncated) for the local ratio
    sum_j lambda(p^{b+2j}) p^{-js} / sum_j lambda(p^{2j}) p^{-js}; at s = 1
    the closed form is the local value of `maassqv.hecke.vartheta`."""
    assert J >= 1
    chi0 = 0 if src.level % p == 0 else 1
    ps = p ** (-s)
    if b == 0:
        closed = 1.0 + 0.0j  # numerator and denominator series coincide
    else:
        closed = (lambda_pp(src, p, b) - chi0 * lambda_pp(src, p, b - 2) * ps) / (
            1 + chi0 * ps
        )
    num = sum(lambda_pp(src, p, b + 2 * j) * ps**j for j in range(J + 1))
    den = sum(lambda_pp(src, p, 2 * j) * ps**j for j in range(J + 1))
    if abs(den) < 1e-12:
        raise DivergentDenominator(f"local denominator ~0 at p={p}, s={s}")
    return closed, num / den


def g_fn(src: HeckeSource, F: FieldParams, n: int) -> float:
    """Multiplicative sieve weight: g(p) = -2h(p), g(p^2) = 3chi(p)+h(p^2),
    g(p^3) = -2chi(p)h(p), g(p^4) = chi(p)^2, zero on higher powers."""
    assert n >= 1
    v = 1.0
    for p, b in factorint(n).items():
        chi = kronecker(F.D, p)
        if b == 1:
            v *= -2.0 * float(h_fn(src, F, p))
        elif b == 2:
            v *= 3.0 * chi + float(h_fn(src, F, p * p))
        elif b == 3:
            v *= -2.0 * chi * float(h_fn(src, F, p))
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
            v *= kronecker(F.D, p)
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
    return kronecker(F.D, r) * mob_s * lambda_k(F, 2 * k, s)


def satake_square(src: HeckeSource, F: FieldParams, k: int, p: int) -> float:
    """Second coefficient of the Rankin-Selberg local factor:
    (lambda_psi(p^2) - 1)(lambda_4k(p) + 1 - chi_D(p))."""
    return (lambda_pp(src, p, 2) - 1.0) * (
        lambda_k(F, 4 * k, p) + 1.0 - kronecker(F.D, p)
    )


def dense_fill(nmax: int, local) -> np.ndarray:
    """[f(0) .. f(nmax)] in one table: each small prime (p^2 <= nmax) by
    stride over all its multiples, then each prime p > sqrt(nmax) through
    its cofactors j = 1, 2, .. one at a time, local factors in ascending p."""
    out = np.ones(nmax + 1)
    out[0] = 0.0
    primes, loc = local_factors(nmax, local)
    if not primes.size:
        return out
    n_small = loc[1].size if len(loc) > 1 else 0  # the primes with p^2 <= nmax
    for i, p in enumerate(primes[:n_small].tolist()):
        fac = np.full(nmax // p, loc[0][i])
        q, b = p, 1
        while q * p <= nmax:
            b += 1
            fac[q - 1 :: q] = loc[b - 1][i]
            q *= p
        out[p::p] *= fac
    big, lbig = primes[n_small:], loc[0][n_small:]
    j = 1
    while big.size:
        cnt = int(np.searchsorted(big, nmax // j, side="right"))
        big, lbig = big[:cnt], lbig[:cnt]
        out[j * big] *= lbig
        j += 1
    return out


def write_table(src: HeckeSource, path: str, pmax: int) -> None:
    """The table file of src's lambda_psi(p) for the primes p <= pmax."""
    eta = "+1" if src.eta_D > 0 else "-1"
    with open(path, "w") as fh:
        fh.write(f"# D={src.level} t_psi={src.t_psi!r} eta={eta} parity={src.parity}\n")
        primes = primes_upto(pmax)
        for p, lam in zip(primes.tolist(), src.lambda_p_array(primes).tolist()):
            fh.write(f"{p} {lam:.17g}\n")
