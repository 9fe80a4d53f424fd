"""Reference routes of maassqv.halfint that only the tests use.

`c_assembled` builds c(n, s) from the closed Gauss sums and the
Chinese-remainder sign factors, the third route checked against the brute
`c_series` and the merged `c_closed`.  `d_series` is the plain partial sum
of the shifted Dirichlet series D_{psi,chi,t}(s, Delta) with a crude tail
bound, one term at a time, reading lambda through `lambda_psi_at`'s float
test rather than the exact congruence of `halfint._d_psi_coefficients`.
`contour_value_per_node` is the reduction contour with one N-term complex
exp per tau-node, the nodes sorted before summing; `halfint._contour_value`
takes one exp per tau >= 0 and conjugates it for -tau.  `chi_mod2k` and
`chi_modpk` build the characters of the closed Gauss sums, each one period
array chi with chi(n) = chi[n % chi.size].
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from hecke_oracle import lambda_psi
from maassqv.errors import TruncationInsufficient
from maassqv.halfint import (
    LevelData,
    QuadPoly,
    _contour_t,
    _d_psi_coefficients,
    _decompose,
    gauss_closed,
)
from maassqv.hecke import HeckeSource
from maassqv.ideals import kronecker
from maassqv.weights import W_NONSPLIT


def chi_mod2k(k: int, with_m4: bool) -> np.ndarray:
    """chi_8^k (times chi_{-4} if asked) restricted mod 2^k."""
    r = max(2**k, 1)
    vals = []
    for d in range(r):
        if k and d % 2 == 0:
            vals.append(0.0)
            continue
        v = kronecker(8, d) ** (k % 2) if k else 1
        if with_m4:
            v *= kronecker(-4, d)
        vals.append(float(v))
    return np.array(vals, dtype=complex)


def chi_modpk(p: int, k: int) -> np.ndarray:
    """chi_{-p}^k restricted mod p^k."""
    r = max(p**k, 1)
    vals = []
    for d in range(r):
        if k and math.gcd(d, p) != 1:
            vals.append(0.0)
        else:
            vals.append(float(kronecker(-p, d)) if k % 2 else 1.0)
    return np.array(vals, dtype=complex)


def parity(chi: np.ndarray) -> int:
    """nu in {0, 1} with chi(-1) = chi[-1] = (-1)^nu."""
    return 0 if abs(chi[-1] - 1) < 1e-9 else 1


def lambda_psi_at(src: HeckeSource, x: float) -> float:
    """lambda_psi extended by zero off the integers."""
    r = round(x)
    if abs(x - r) > 1e-9:
        return 0.0
    return lambda_psi(src, r)


def c_assembled(n: int, L: LevelData, s: complex) -> complex:
    """c(n, s) assembled from the closed Gauss sums and the Chinese-remainder
    sign factors; a finite exact sum for n >= 1 of admissible shape."""
    primes = tuple(p for p, _ in L.odd_primes)
    a0, alphas = _decompose(n, primes)  # BadDecomposition if shape fails
    plist = L.odd_primes
    k0max = 2 * a0 + 3
    total = 0.0 + 0.0j
    k_ranges = [range(beta, 2 * alphas[p] + 2) for p, beta in plist]

    def _piece(k0: int, ks: tuple[int, ...], e: int) -> complex:
        par = (sum(ks) + e) % 2
        g2 = gauss_closed(n, "Gneg8" if par else "G8", k0, odd_primes=primes)
        if g2 == 0:
            return 0.0
        val = g2
        P = 1
        for (p, _), kp in zip(plist, ks):
            P *= p**kp
        # sign factors from pulling inverses out of each Gauss sum
        sign = kronecker(-4, P) ** par * kronecker(8, P) ** (k0 % 2)
        for i, ((p, _), kp) in enumerate(zip(plist, ks)):
            gp = gauss_closed(n, "Gp", kp, p=p, odd_primes=primes)
            if gp == 0:
                return 0.0
            val *= gp
            other = 2**k0
            for j, ((q, _), kq) in enumerate(zip(plist, ks)):
                if j != i:
                    other *= q**kq
            sign *= kronecker(-p, other) ** (kp % 2)
        mp = 2**k0 * P
        pref = (1 + 1j) / 2 if e == 0 else (1 - 1j) / 2
        return pref * sign * val * mp ** (-2 * s)

    def _loop(idx: int, ks: tuple[int, ...]) -> None:
        nonlocal total
        if idx == len(plist):
            for k0 in range(L.beta0, k0max + 1):
                for e in (0, 1):
                    total += _piece(k0, ks, e)
            return
        for kp in k_ranges[idx]:
            _loop(idx + 1, ks + (kp,))

    _loop(0, ())
    return total


_THETA_ENV = 0.25  # generous |lambda(x)| <= 18 x^theta envelope for tails


def d_series(
    src: HeckeSource,
    chi: np.ndarray,
    t: int,
    s: complex,
    Delta: int,
    a: int,
    N: int,
) -> tuple[complex, float]:
    """Partial sum to N of the shifted series
    sum_{n>=0} lambda((t n^2 - Delta)/4a)(2-delta)chi(n)n^nu
    / (t n^2 + Delta + |t n^2 - Delta|)^{s+nu/2} * phase(t_psi),
    plus a crude analytic tail bound; chi is one period array."""
    nu = parity(chi)
    sigma = complex(s).real
    if 2 * sigma - 2 * _THETA_ENV <= 1:
        raise TruncationInsufficient(f"no convergent tail bound at Re(s)={sigma}")
    it = 1j * src.t_psi
    total = 0.0 + 0.0j
    for n in range(N + 1):
        lam = lambda_psi_at(src, (t * n * n - Delta) / (4 * a))
        if lam == 0.0:
            continue
        cv = chi[n % chi.size]
        if cv == 0:
            continue
        q = t * n * n - Delta
        u = t * n * n + Delta + abs(q)
        weight = 1.0 if n == 0 else 2.0
        npow = 1.0 if nu == 0 else float(n)
        total += (
            lam * weight * cv * npow * u ** (-(s + nu / 2))
            * cmath.exp(it * (math.log(2 * abs(q)) - math.log(u)))
            if q != 0
            else 0.0
        )
    expo = 0.5 + 2 * _THETA_ENV - 2 * sigma  # per-term n-exponent bound
    c0 = 18.0 * float(t) ** (_THETA_ENV - sigma - nu / 2) * (4 * a) ** (-_THETA_ENV)
    tail = c0 * float(max(N, 1)) ** (expo + 1) / (-expo - 1)
    return total, tail


def contour_value_per_node(
    src: HeckeSource,
    Q: QuadPoly,
    Y: float,
    dtau: float,
    second_form: bool,
) -> complex:
    """`halfint._contour_value` with D_psi evaluated afresh at every node."""
    t = _contour_t(Q, second_form)
    N = max(2000, int(2.0 * math.sqrt(W_NONSPLIT.x1 * 8 * Q.a * Y / t)) + 10)

    log8aY = math.log(8 * Q.a * Y)
    P = W_NONSPLIT.sharpness
    T = 10.0 * P * math.log(max(Y, math.e))

    amp, logu = _d_psi_coefficients(src, Q, N, second_form)

    def D_psi(sv: complex) -> complex:
        return complex(np.sum(amp * np.exp(-sv * logu)))

    taus = [0.0]
    tau = dtau
    while tau <= T:
        taus.append(tau)
        taus.append(-tau)
        tau += dtau
    taus.sort()

    total = 0.0 + 0.0j
    prev = None
    for tau in taus:
        sv = 1 + 1j * tau
        f = D_psi(sv) * W_NONSPLIT.mellin(sv) * cmath.exp(sv * log8aY)
        if prev is not None:
            total += 0.5 * (f + prev[1]) * (tau - prev[0])
        prev = (tau, f)
    return total / (4 * math.pi)
