"""Principal ideals of Q(sqrt(D)) by norm, Grossencharacters, and the
dihedral eigenvalues lambda_k(n) = sum over ideals of norm n of Xi_k.

One enumerator serves everything: `ideal_scan` walks the rows of the
(m, n)-coordinate lattice with numpy and keeps, for each principal ideal,
the one generator with positive real embedding y and angle
theta = 2 log y - log|N| in [0, 2 log eps).  It returns the sorted norms
and the angles, cached per field.  `elements_of_norm` cuts one norm out
of that scan and recovers each canonical generator exactly from (N, theta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScanBoundExceeded
from .quadfield import FieldParams, QuadInt, angle

_SCAN_MAX = 10**7  # largest norm bound elements_of_norm will scan to


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), all integers, via quadratic reciprocity."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out 2s: (a/2) = 0 for even a, +1 for a = +-1 mod 8, else -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    # Jacobi loop for odd n > 0
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        # reciprocity flip: both odd
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def kronecker_chi(F: FieldParams, n: int) -> int:
    """The real character chi_D(n) = (D/n)."""
    return kronecker(F.D, n)


def r_D(F: FieldParams, n: int) -> int:
    """Ideal-counting function sum_{d|n} chi_D(d)."""
    assert n >= 1
    total = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            total += kronecker_chi(F, d)
            if d != n // d:
                total += kronecker_chi(F, n // d)
    return total


@dataclass(frozen=True)
class IdealRep:
    gen: QuadInt  # canonical generator, theta in [0, 2 log eps)
    norm_abs: int
    theta: float


_SCAN_CACHE: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}


def ideal_scan(F: FieldParams, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(norms, thetas) over all principal ideals with 1 <= |N| <= nmax.

    Enumerates one generator per ideal directly: the generator with
    positive real embedding y and theta = 2 log y - log|N| in [0, 2 log eps).
    Results are cached per field with power-of-two rounding of nmax.
    """
    bound = 1 << max(nmax - 1, 1).bit_length()
    hit = _SCAN_CACHE.get(F.D)
    if hit is not None and hit[0] >= bound:
        norms, thetas = hit[1], hit[2]
        if hit[0] == nmax:
            return norms, thetas
        cut = int(np.searchsorted(norms, nmax, side="right"))
        return norms[:cut], thetas[:cut]

    eps_val = math.exp(F.log_eps)
    B = math.sqrt(bound) * eps_val * (1.0 + 1e-12)
    om = F.omega
    c_norm = F.omega_norm  # n^2 coefficient of the norm form
    n_hi = int((eps_val + 1.0) * math.sqrt(bound) / F.sqrtD) + 2

    norm_parts: list[np.ndarray] = []
    theta_parts: list[np.ndarray] = []
    width = int(B) + 2
    chunk = max(1, (1 << 24) // width)
    rows = np.arange(-n_hi, n_hi + 1, dtype=np.int64)
    for i0 in range(0, rows.size, chunk):
        nn = rows[i0 : i0 + chunk, None]
        m_start = np.ceil(-nn * om).astype(np.int64)
        mm = m_start + np.arange(width, dtype=np.int64)[None, :]
        y = mm + nn * om
        q = mm * mm + mm * nn + c_norm * nn * nn
        aq = np.abs(q)
        y2 = y * y
        ok = (
            (y > 0.0)
            & (aq >= 1)
            & (aq <= bound)
            & (y2 >= aq * (1.0 - 1e-9))
            & (y2 < aq * (eps_val * eps_val) * (1.0 - 1e-9))
        )
        if ok.any():
            norm_parts.append(aq[ok])
            theta_parts.append(np.log(y2[ok] / aq[ok]))
    norms = np.concatenate(norm_parts) if norm_parts else np.empty(0, np.int64)
    thetas = np.concatenate(theta_parts) if theta_parts else np.empty(0, np.float64)
    order = np.argsort(norms, kind="stable")
    norms, thetas = norms[order], thetas[order]
    _SCAN_CACHE[F.D] = (bound, norms, thetas)
    if bound == nmax:
        return norms, thetas
    cut = int(np.searchsorted(norms, nmax, side="right"))
    return norms[:cut], thetas[:cut]


def elements_of_norm(F: FieldParams, n: int, nmax_hint: int = 0) -> list[IdealRep]:
    """All distinct principal ideals with |N| = n, canonical representatives,
    ordered by theta.

    Each generator m + k*omega is recovered exactly from its scan entry
    (n, theta): y = sqrt(n) e^{theta/2} is the real embedding and
    sigma*n/y the conjugate one, so k = (y - sigma*n/y)/sqrt(D) and
    m = y - k*omega; the sign sigma of the norm is the one whose rounded
    (m, k) has norm exactly sigma*n and reproduces theta.
    """
    assert n >= 1
    bound = max(n, nmax_hint)
    # round the cache key up so nearby queries share one scan
    bound = 1 << max(bound - 1, 1).bit_length()
    if bound > _SCAN_MAX:
        raise ScanBoundExceeded(f"norm bound {bound} exceeds scan limit")
    norms, thetas = ideal_scan(F, bound)
    lo = int(np.searchsorted(norms, n, side="left"))
    hi = int(np.searchsorted(norms, n, side="right"))
    reps = []
    for th in thetas[lo:hi].tolist():
        y = math.sqrt(n) * math.exp(0.5 * th)
        found = []
        for sigma in (1, -1):
            k = round((y - sigma * n / y) / F.sqrtD)
            m = round(y - k * F.omega)
            if m * m + m * k + F.omega_norm * k * k != sigma * n:
                continue
            gen = QuadInt(m, k)
            theta = angle(F, gen)
            if abs(theta - th) <= 1e-9:
                found.append(IdealRep(gen=gen, norm_abs=n, theta=theta))
        if len(found) != 1:
            raise RuntimeError(
                f"norm {n}, theta {th!r}: {len(found)} generators recovered"
            )
        reps.append(found[0])
    reps.sort(key=lambda r: (r.theta, r.gen.m, r.gen.n))
    return reps


def grossenchar(F: FieldParams, k: int, a: IdealRep) -> complex:
    """Xi_k(ideal) = e(k * theta / (2 log eps)), unit modulus."""
    return cmath.exp(1j * math.pi * k * a.theta / F.log_eps)


def lambda_k(F: FieldParams, k: int, n: int, nmax_hint: int = 0) -> float:
    """Dihedral Hecke eigenvalue: sum of Xi_k over ideals of norm n."""
    total = 0.0 + 0.0j
    for a in elements_of_norm(F, n, nmax_hint):
        total += grossenchar(F, k, a)
    assert abs(total.imag) <= 1e-9 * max(1.0, abs(total.real)) + 1e-9
    return total.real


def lambda_k_table(F: FieldParams, k: int, nmax: int) -> np.ndarray:
    """Dense numpy table [lambda_k(0) .. lambda_k(nmax)] of the index-k
    dihedral Hecke eigenvalues (index 0 unused, 0.0)."""
    norms, thetas = ideal_scan(F, nmax)
    out = np.zeros(nmax + 1)
    # Xi_k(ideal) = exp(i pi k theta / log eps); the n-sums are real
    np.add.at(out, norms, np.cos((math.pi * k / F.log_eps) * thetas))
    return out
