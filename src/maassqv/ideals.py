"""Principal ideals of Q(sqrt(D)) by norm, Grossencharacters, and the
dihedral eigenvalues lambda_k(n) = sum over ideals of norm n of Xi_k.

One enumerator serves everything: `ideal_chunks` keeps, for each
principal ideal, the one generator y = m + n*omega with positive real
embedding y and angle theta = 2 log y - log|N| in the fundamental domain
[0, 2 log eps) of the unit group.  On a row n of the (m, n)-lattice the
difference c = y - ybar = n sqrt(D) is fixed, so the window and the norm
bound cut the row to at most two m-intervals, one on each side of the
band around y = c that the window excludes; rows n < 0 are empty.  Only
those strips are tested with numpy, and their ends are widened well past
the floating-point error of the test, so no ideal is lost.

The enumerator has two views.  `ideal_chunks` yields the kept ideals
chunk by chunk, unsorted and uncached, at the exact bound: a sum over
all ideals (L(1, phi_m)) reads it in O(chunk) memory.  `ideal_scan`
collects the same chunks, sorts them stably by norm and caches the
result per field as read-only arrays, for consumers that cut norm
ranges.  `elements_of_norm` cuts one norm out of that scan and recovers
each canonical generator exactly from (N, theta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ALLOC_BYTES_MAX, ScanBoundExceeded
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


def kronecker_residues(F: FieldParams) -> np.ndarray:
    """chi_D(r) for r = 0 .. D-1 as floats, so chi_D(n) = table[n % D]."""
    return np.array([kronecker(F.D, r) for r in range(F.D)], dtype=np.float64)


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


# Not a functools.cache: one entry per field serves every smaller bound as a
# prefix of the largest scan built so far, and a larger scan replaces it.
_SCAN_CACHE: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
_SCAN_CHUNK = 1 << 20  # candidates evaluated per numpy pass


def _scan_bytes(F: FieldParams, bound: int) -> float:
    """Estimated peak bytes of an `ideal_scan` build to norm `bound`.

    The kept generators y = m + n*omega are the lattice points, of covolume
    sqrt(D) in the (y, ybar) plane, of the region |y ybar| <= bound,
    1 <= y/|ybar| < eps^2, whose area is 2 log(eps) bound.  Each costs 16
    bytes in the norm and angle buffers, 8 in the sort order and 16 in the
    sorted copies."""
    return 40.0 * 2.0 * F.log_eps / F.sqrtD * bound


def ideal_chunks(F: FieldParams, bound: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(norms, thetas) of all principal ideals with 1 <= |N| <= bound, one
    chunk of about `_SCAN_CHUNK` candidates at a time, unsorted.

    Enumerates one generator per ideal directly: the generator with
    positive real embedding y and theta = 2 log y - log|N| in [0, 2 log eps).
    Only the at most two m-intervals per row n that `_row_intervals` admits
    are tested, in row-major order, so the chunks concatenated are the
    kept points of a scan of the whole bounding rectangle in its order.
    The bound is used as given, and nothing is cached: a consumer that
    needs no norm order reads the ideals in O(chunk) memory.
    """
    starts, counts, row_of, ends = _candidate_pieces(F, bound)
    eps_val = math.exp(F.log_eps)
    om = F.omega
    c_norm = F.omega_norm  # n^2 coefficient of the norm form
    i0 = 0
    while i0 < counts.size:
        done = int(ends[i0] - counts[i0])
        i1 = int(np.searchsorted(ends, done + _SCAN_CHUNK, side="right"))
        i1 = max(i1, i0 + 1)
        cnt = counts[i0:i1]
        total = int(cnt.sum())
        first = np.cumsum(cnt) - cnt
        mm = np.arange(total, dtype=np.int64) + np.repeat(starts[i0:i1] - first, cnt)
        nn = np.repeat(row_of[i0:i1], cnt)
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
        norms = aq[ok]
        thetas = np.log(y2[ok] / norms)
        del mm, nn, y, q, aq, y2, ok  # the consumer works on the kept points only
        yield norms, thetas
        i0 = i1


def ideal_scan(F: FieldParams, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(norms, thetas) over all principal ideals with 1 <= |N| <= nmax,
    sorted by norm: the `ideal_chunks` scan, stably sorted and cached.

    The stable sort keeps the row-major order of the chunks within a norm,
    so the result is that of a scan of the whole bounding rectangle bit for
    bit.  Results are cached per field with power-of-two rounding of nmax,
    and the cached arrays are read-only.  A scan whose `_scan_bytes`
    estimate exceeds 8 GiB raises ScanBoundExceeded before anything is
    allocated.
    """
    bound = 1 << max(nmax - 1, 1).bit_length()
    hit = _SCAN_CACHE.get(F.D)
    if hit is not None and hit[0] >= bound:
        norms, thetas = hit[1], hit[2]
        if hit[0] == nmax:
            return norms, thetas
        cut = int(np.searchsorted(norms, nmax, side="right"))
        return norms[:cut], thetas[:cut]

    need = _scan_bytes(F, bound)
    if need > ALLOC_BYTES_MAX:
        raise ScanBoundExceeded(
            f"ideal scan to norm {bound} needs about {need / 2**30:.1f} GiB, "
            f"over the {ALLOC_BYTES_MAX / 2**30:.0f} GiB limit"
        )
    # kept points go straight into buffers sized by the candidate count, an
    # upper bound: chunk parts freed after a concatenate would stay resident
    # in the C heap and raise the build peak.  ideal_chunks recomputes the
    # pieces, which costs O(sqrt(bound)).
    size = int(_candidate_pieces(F, bound)[3][-1])
    norms = np.empty(size, np.int64)
    thetas = np.empty(size, np.float64)
    kept = 0
    for chunk_norms, chunk_thetas in ideal_chunks(F, bound):
        k = chunk_norms.size
        norms[kept : kept + k] = chunk_norms
        thetas[kept : kept + k] = chunk_thetas
        kept += k
    del chunk_norms, chunk_thetas  # not kept alive through the sort
    order = np.argsort(norms[:kept], kind="stable")
    norms = norms[order]
    thetas = thetas[order]
    del order
    norms.flags.writeable = False
    thetas.flags.writeable = False
    _SCAN_CACHE[F.D] = (bound, norms, thetas)
    if bound == nmax:
        return norms, thetas
    cut = int(np.searchsorted(norms, nmax, side="right"))
    return norms[:cut], thetas[:cut]


def _candidate_pieces(
    F: FieldParams, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(starts, counts, rows, ends) of the m-intervals a scan to `bound`
    tests, per row the lower piece and then the upper one: interval i holds
    m = starts[i] .. starts[i] + counts[i] - 1 on row rows[i], and ends is
    the running total of counts.  The rows number O(sqrt(bound))."""
    eps_val = math.exp(F.log_eps)
    # Rows n < 0 hold no ideal: there |ybar| > y, so y^2 >= |N|(1 - 1e-9)
    # forces y >= sqrt(D)(1 - 1e-9)/1e-9 > 4e9, while y < eps sqrt(bound)
    # stays below that for every admitted field up to bound 10^14.
    n_hi = int((eps_val + 1.0) * math.sqrt(bound) / F.sqrtD) + 2
    rows = np.arange(0, n_hi + 1, dtype=np.int64)
    lo1, hi1, lo2, hi2 = _row_intervals(rows, F.sqrtD, F.omega, eps_val, bound)
    starts = np.stack([lo1, lo2], axis=1).ravel()
    counts = np.maximum(np.stack([hi1 - lo1, hi2 - lo2], axis=1).ravel() + 1, 0)
    return starts, counts, np.repeat(rows, 2), np.cumsum(counts)


def _row_intervals(
    rows: np.ndarray, sqrtD: float, om: float, eps_val: float, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integer m-ranges [lo1, hi1] < [lo2, hi2] per row n >= 0 that contain
    every m which `ideal_scan`'s test can keep.

    With y = m + n*omega, ybar = y - c and c = n sqrt(D) >= 0 the test asks
    y >= (1 - 1e-9)|ybar|, y|ybar| <= bound and |ybar| > y/eps^2.  So
    y >= c(1 - 1e-9)/(2 - 1e-9); y <= (c + sqrt(c^2 + 4 bound))/2; below
    y = c also y >= (c + sqrt(c^2 - 4 bound))/2 when c^2 > 4 bound; and the
    band c eps^2/(eps^2 + 1) <= y <= c eps^2/(eps^2 - 1) around y = c is
    empty.  The test computes in floating point with relative errors near
    1e-15; each end is widened by 1e-6 relative and 2 lattice steps, far
    more than those errors move it.  Empty ranges have hi < lo.
    """
    c = rows * sqrtD
    e2 = eps_val * eps_val
    disc = c * c - 4.0 * bound
    lo_y1 = np.maximum(
        c * ((1.0 - 1e-9) / (2.0 - 1e-9)),
        np.where(disc > 0.0, 0.5 * (c + np.sqrt(np.maximum(disc, 0.0))), 0.0),
    )
    hi_y1 = c * (e2 / (e2 + 1.0))
    lo_y2 = c * (e2 / (e2 - 1.0))
    hi_y2 = 0.5 * (c + np.sqrt(c * c + 4.0 * bound))
    shift = rows * om
    lo1 = np.floor(lo_y1 * (1.0 - 1e-6) - 2.0 - shift).astype(np.int64)
    hi1 = np.ceil(hi_y1 * (1.0 + 1e-6) + 2.0 - shift).astype(np.int64)
    lo2 = np.floor(lo_y2 * (1.0 - 1e-6) - 2.0 - shift).astype(np.int64)
    hi2 = np.ceil(hi_y2 * (1.0 + 1e-6) + 2.0 - shift).astype(np.int64)
    # lo1 <= lo2 and hi1 <= hi2 always; where the widened pieces meet, the
    # overlap stays in the upper piece so no m is visited twice
    hi1 = np.minimum(hi1, lo2 - 1)
    return lo1, hi1, lo2, hi2


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
    bound = max(n, nmax_hint)  # ideal_scan rounds it up to share one scan
    if bound > _SCAN_MAX:
        raise ScanBoundExceeded(f"norm bound {bound} exceeds scan limit {_SCAN_MAX}")
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
