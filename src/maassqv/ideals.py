"""Principal ideals of Q(sqrt(D)) by norm, Grossencharacters, and the
dihedral eigenvalues lambda_k(n) = sum over ideals of norm n of Xi_k.

One enumerator serves everything: each principal ideal is kept as its one
generator y = m + n*omega with positive real embedding y and angle
theta = 2 log y - log|N| in the fundamental domain [0, 2 log eps) of the
unit group, by the one window test `_in_window`, on the rows
n = 0 .. `_last_row` of the (m, n)-lattice; rows n < 0 are empty.

Conjugation maps theta to 2 log eps - theta, so Xi_k of a conjugate ideal
is the complex conjugate of Xi_k, and every sum over ideals this package
takes is even under conjugation: cos(k phi) in
`experiments.central_values_bulk`, cos(m x) in `lfun._l_one_phi_bulk`,
`lambda_k_table` and `experiments.moment_bound_check` (the weights
lambda_psi(n)/sqrt(n), e^{-N/X}/N, 1/sqrt(p) depend on the norm only).
So `ideal_chunks` scans the closed half window theta in [0, log eps] and
gives each ideal a multiplicity: 1 on the self-conjugate lines theta = 0
and theta = log eps, decided exactly in (m, n), and 2 elsewhere.  The
multiplicity-1 ideals are one per norm a m^2, a in {1, p1, p2, D}.

`ideal_chunks` scans every norm of a band lo < |N| <= hi; the band
(0, hi] is every norm up to hi.  On a row n the difference
c = y - ybar = n sqrt(D) is fixed, and |N| falls with y on one side of the
stretch around y = c that the window excludes and rises with y on the
other, so the window and the two norm bounds cut the row to at most two
m-intervals: the difference of the intervals of the bounds hi and lo.
Only those strips are tested with numpy, and their ends are widened well
past the floating-point error of the test, so no ideal is lost; the exact
integer test lo < |N| <= hi decides the band.  The kept ideals come chunk
by chunk, unsorted, in O(chunk) memory; `ideal_scan` collects the same
chunks and sorts them stably by norm, so the bands (0, n1], (n1, n2], ..
of a scan, sorted one at a time and concatenated, are the scan of
(0, n_max] bit for bit, and a consumer holds one band at a time.  Nothing
is cached.

`elements_of_norm` solves one norm exactly instead, over the full window:
on row k the norm form is +-n at m = (-k +- s)/2 with s^2 = D k^2 +- 4n,
so it costs O(sqrt(n)) and builds no scan, and the window test keeps the
canonical generator.

Every array of a real character chi(n) = (a/n) in the package is one
cached period of `kronecker_table(a)`, built in O(|a|) from the scalar
`kronecker`, the one evaluator of the symbol.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ALLOC_BYTES_MAX, HypothesisViolated, ScanBoundExceeded, TableBoundExceeded
from .quadfield import FieldParams, QuadInt, angle

_SCAN_MAX = 10**7  # largest norm elements_of_norm solves for
_KRONECKER_TABLE_MAX = 10**7  # longest period kronecker_table builds


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


@functools.cache
def kronecker_table(a: int) -> np.ndarray:
    """One period of n -> (a/n) as read-only floats for a != 0, so
    (a/n) = tab[n % tab.size]: the period is |a| when a = 0, 1 mod 4, and
    then it holds for every n >= 0; otherwise it is 4|a|, and it holds for
    odd n only.  Built from `kronecker` in O(|a|); a period over
    `_KRONECKER_TABLE_MAX` raises TableBoundExceeded first."""
    size = abs(a) if a % 4 in (0, 1) else 4 * abs(a)
    if size > _KRONECKER_TABLE_MAX:
        raise TableBoundExceeded(
            f"Kronecker table of {a} has period {size}, over {_KRONECKER_TABLE_MAX}"
        )
    out = np.array([kronecker(a, n) for n in range(size)], dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IdealRep:
    gen: QuadInt  # canonical generator, theta in [0, 2 log eps)
    theta: float


_SCAN_CHUNK = 1 << 16  # candidates evaluated per numpy pass: cache-sized temporaries

_IDEAL_BYTES = 42  # peak bytes per kept ideal of an ideal_scan build


def _scan_bytes(F: FieldParams, hi: int, lo: int = 0) -> float:
    """Estimated peak bytes of an `ideal_scan` build of the band
    lo < |N| <= hi.

    The kept generators y = m + n*omega are the lattice points, of covolume
    sqrt(D) in the (y, ybar) plane, of the region lo < |y ybar| <= hi,
    1 <= y/|ybar| <= eps, whose area is log(eps) (hi - lo).  The area counts
    half of the points on its two closed edges, the self-conjugate ideals,
    one for each norm a m^2 in the band with a in {1, p1, p2, D}; the other
    half is added.  Each ideal costs 17 bytes in the norm, angle and
    multiplicity buffers, 8 in the sort order and 17 in the sorted copies.
    The per-row arrays come on top (`_check_scan`)."""

    def edges(bound: int) -> float:
        return sum(math.sqrt(bound / a) for a in (1, F.p1, F.p2, F.D))

    return _IDEAL_BYTES * (F.log_eps * (hi - lo) / F.sqrtD + 0.5 * (edges(hi) - edges(lo)))


_ROW_BYTES = 128  # peak bytes per row of _row_intervals and _candidate_pieces


def _check_scan(F: FieldParams, bound: int, kept_bytes: float) -> None:
    """Raise ScanBoundExceeded before a scan of a band up to `bound`
    allocates anything: when `kept_bytes` plus the per-row arrays of
    `_row_intervals` and `_candidate_pieces` (about 16 float or int64
    values on each of the `_last_row` + 1 rows) pass 8 GiB, or when an
    int64 product of `ideal_chunks` could pass 2^63: the norm form
    m^2 + m n + omega_norm n^2, or the multiplicity test m b - n a against
    the lines of `_fixed_lines`.

    The rows grow like sqrt(eps bound)/sqrt(D), so on fields with large
    units they, not the ideals, set the size at small bounds.  A tested m is
    y - n*omega with -3 <= y <= (n sqrt(D) + sqrt(bound))(1 + 1e-6) + 3, the
    widened ends of `_row_intervals`, so |m| <= (n omega + sqrt(bound))
    (1 + 1e-6) + 3 bounds every term."""
    rows = _last_row(F, bound, math.exp(F.log_eps)) + 1
    need = kept_bytes + _ROW_BYTES * rows
    if need > ALLOC_BYTES_MAX:
        raise ScanBoundExceeded(
            f"ideal scan to norm {bound} needs about {need / 2**30:.1f} GiB, "
            f"over the {ALLOC_BYTES_MAX / 2**30:.0f} GiB limit"
        )
    m_abs = (rows * F.omega + math.sqrt(bound)) * (1.0 + 1e-6) + 3.0
    v_abs = float(max(abs(c) for line in _fixed_lines(F) for c in line))
    form = m_abs * m_abs + m_abs * rows + abs(F.omega_norm) * rows * rows
    if max(form, (m_abs + rows) * v_abs) >= 2.0**63:
        raise ScanBoundExceeded(
            f"ideal scan to norm {bound} leaves int64: |m| reaches {m_abs:.3g} "
            f"on {rows} rows"
        )


def _last_row(F: FieldParams, bound: int, ratio: float) -> int:
    """The last row n_hi of the (m, n)-lattice that can hold a generator of
    norm at most `bound` in the window 1 <= y/|ybar| <= ratio: eps for the
    half window of the scan, eps^2 for the full window of `elements_of_norm`.

    Such a y has y - ybar = n sqrt(D) <= y + |ybar| = (sqrt(t) + 1/sqrt(t))
    sqrt(|N|) with t = y/|ybar|, so n sqrt(D) < (sqrt(ratio) + 1) sqrt(bound).
    Rows n < 0 hold no ideal: there |ybar| > y, so y^2 >= |N|(1 - 1e-9)
    forces y >= sqrt(D)(1 - 1e-9)/1e-9 > 4e9, while y < eps sqrt(bound)
    stays below that for every admitted field up to bound 10^14."""
    return int((math.sqrt(ratio) + 1.0) * math.sqrt(bound) / F.sqrtD) + 2


def _in_window(y, y2, aq, end: float):
    """The window test of y = m + n*omega, with y2 = y*y and aq = |N(y)|:
    y > 0 and 1 - 1e-9 <= y^2/|N| < end, where `end` is the window's upper
    ratio with its margin: eps (1 + 1e-9) for the closed half window
    theta in [0, log eps] of `ideal_chunks`, eps^2 (1 - 1e-9) for the
    half-open full window [0, 2 log eps) of `elements_of_norm`.

    The margins decide only the points on an end's line: off the line
    theta = 0, |y - |ybar|| >= 1 (it is |n| sqrt(D) or |2m + n|), and off
    theta = j log eps, z = y -+ eps^j ybar has |z|^2 = eps^j |N(z)| >= eps^j,
    so y^2/|N| is at least 1/sqrt(|N|) relative away from each end.
    Elementwise on numpy arrays."""
    return (y > 0.0) & (y2 >= aq * (1.0 - 1e-9)) & (y2 < aq * end)


def _fixed_lines(F: FieldParams) -> tuple[tuple[int, int], tuple[int, int]]:
    """Primitive (m, n) on the lines y = eps ybar and y = -eps ybar, the
    angle theta = log eps: 1 + eps and 1 - eps lie on them, since eps
    conj(1 +- eps) = eps +- 1."""
    lines = []
    for a, b in ((1 + F.unit_x, F.unit_y), (1 - F.unit_x, -F.unit_y)):
        g = math.gcd(a, b)
        lines.append((a // g, b // g))
    return lines[0], lines[1]


def ideal_chunks(
    F: FieldParams, hi: int, lo: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(norms, thetas, mults) of the principal ideals with lo < |N| <= hi
    and theta in the closed half window [0, log eps], one chunk of about
    `_SCAN_CHUNK` candidates at a time, unsorted.

    Enumerates one generator per ideal directly: the generator with
    positive real embedding y and theta = 2 log y - log|N| in [0, log eps].
    Conjugation maps theta to 2 log eps - theta, so the other half of the
    fundamental domain holds the conjugates: mults (int8) is 1 on the two
    self-conjugate lines theta = 0 and theta = log eps and 2 everywhere
    else.  The lines are decided exactly in (m, n): theta = 0 where n = 0
    (y = ybar) or 2m + n = 0 (y = -ybar), theta = log eps where (m, n) lies
    on a line of `_fixed_lines` (y = +-eps ybar).
    Only the at most two m-intervals per row n that `_row_intervals` admits
    are tested, in row-major order, so the chunks concatenated are the
    kept points of a scan of the whole bounding rectangle in its order.
    A consumer that needs no norm order reads the ideals in O(chunk) memory.
    """
    starts, counts, row_of = _candidate_pieces(F, hi, lo)
    end = math.exp(F.log_eps) * (1.0 + 1e-9)
    (a1, b1), (a2, b2) = _fixed_lines(F)
    om = F.omega
    c_norm = F.omega_norm  # n^2 coefficient of the norm form
    for mm, nn in interval_chunks(starts, counts, row_of, _SCAN_CHUNK):
        y = mm + nn * om
        q = mm * mm + mm * nn + c_norm * nn * nn
        aq = np.abs(q)
        y2 = y * y
        ok = (aq > lo) & (aq <= hi) & _in_window(y, y2, aq, end)
        m, n = mm[ok], nn[ok]
        norms = aq[ok]
        thetas = np.log(y2[ok] / norms)
        del mm, nn, y, q, aq, y2, ok  # the consumer works on the kept points only
        fixed = (n == 0) | (2 * m + n == 0) | (m * b1 == n * a1) | (m * b2 == n * a2)
        yield norms, thetas, np.where(fixed, np.int8(1), np.int8(2))


def interval_chunks(
    starts: np.ndarray, counts: np.ndarray, labels: np.ndarray, chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(values, labels) of the integer intervals starts[i] ..
    starts[i] + counts[i] - 1 (int64, counts >= 0) in order, each value
    with the label of its interval, whole intervals of about `chunk` values
    at a time: one interval longer than `chunk` comes alone."""
    ends = np.cumsum(counts)
    i0 = 0
    while i0 < counts.size:
        done = int(ends[i0] - counts[i0])
        i1 = max(i0 + 1, int(np.searchsorted(ends, done + chunk, side="right")))
        cnt = counts[i0:i1]
        first = np.cumsum(cnt) - cnt
        values = np.arange(int(cnt.sum()), dtype=np.int64) + np.repeat(starts[i0:i1] - first, cnt)
        yield values, np.repeat(labels[i0:i1], cnt)
        i0 = i1


def ideal_scan(
    F: FieldParams, hi: int, lo: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(norms, thetas, mults) of the principal ideals with lo < |N| <= hi
    and theta in [0, log eps], sorted by norm: the `ideal_chunks` scan of
    the band, stably sorted.

    The stable sort keeps the row-major order of the chunks within a norm,
    so the result is that of a scan of the whole bounding rectangle bit for
    bit: a scan to a larger bound cut to the band is this scan, and
    consecutive bands concatenated are the scan of their union.  A band
    whose kept ideals (`_scan_bytes`) and rows together are estimated above
    8 GiB raises ScanBoundExceeded before anything is allocated.
    """
    _check_scan(F, hi, _scan_bytes(F, hi, lo))
    # kept points go straight into buffers sized by the candidate count, an
    # upper bound: chunk parts freed after a concatenate would stay resident
    # in the C heap and raise the build peak.  ideal_chunks recomputes the
    # pieces, which costs O(sqrt(hi)).
    size = int(_candidate_pieces(F, hi, lo)[1].sum())
    bufs = (np.empty(size, np.int64), np.empty(size, np.float64), np.empty(size, np.int8))
    kept = 0
    for chunk in ideal_chunks(F, hi, lo):
        k = chunk[0].size
        for buf, part in zip(bufs, chunk):
            buf[kept : kept + k] = part
        kept += k
    del chunk  # not kept alive through the sort
    norms, thetas, mults = bufs
    del bufs
    order = np.argsort(norms[:kept], kind="stable")
    norms = norms[order]  # frees the unsorted buffer before thetas[order]
    return norms, thetas[order], mults[order]


def _candidate_pieces(
    F: FieldParams, hi: int, lo: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, counts, rows) of the m-intervals a scan of the band
    lo < |N| <= hi tests, per row the lower piece and then the upper one:
    interval i holds m = starts[i] .. starts[i] + counts[i] - 1 on row
    rows[i].  The rows number
    O(sqrt(eps hi)/sqrt(D)); a scan whose rows `_check_scan` refuses
    raises ScanBoundExceeded here, before they are allocated, for
    `ideal_chunks` and `ideal_scan` alike."""
    _check_scan(F, hi, 0.0)
    eps_val = math.exp(F.log_eps)
    rows = np.arange(0, _last_row(F, hi, eps_val) + 1, dtype=np.int64)
    lo1, hi1, lo2, hi2 = _row_intervals(rows, F.sqrtD, F.omega, eps_val, hi, lo)
    starts = np.stack([lo1, lo2], axis=1).ravel()
    counts = np.maximum(np.stack([hi1 - lo1, hi2 - lo2], axis=1).ravel() + 1, 0)
    return starts, counts, np.repeat(rows, 2)


def _row_intervals(
    rows: np.ndarray, sqrtD: float, om: float, ratio: float, hi: int, lo: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integer m-ranges [lo1, hi1] < [lo2, hi2] per row n >= 0 that contain
    every m which `ideal_chunks`' test keeps in the window
    1 <= y/|ybar| <= ratio and the band lo < |N| <= hi.

    With y = m + n*omega, ybar = y - c and c = n sqrt(D) >= 0 the test asks
    y >= (1 - 1e-9)|ybar|, lo < y|ybar| <= hi and |ybar| >= y/ratio.  The
    stretch c ratio/(ratio + 1) < y < c ratio/(ratio - 1) around y = c is
    empty.  Below it, y >= c(1 - 1e-9)/(2 - 1e-9) and |N| = y(c - y) falls
    as y rises past c/2, so (c + sqrt(c^2 - 4 hi))/2 <= y, when c^2 > 4 hi,
    and y < (c + sqrt(c^2 - 4 lo))/2, or y <= c/2 when c^2 <= 4 lo; the
    points left of c/2 lie in [c(1 - 1e-9)/(2 - 1e-9), c/2].  Above it,
    |N| = y(y - c) rises with y, so (c + sqrt(c^2 + 4 lo))/2 < y <=
    (c + sqrt(c^2 + 4 hi))/2.  Each range is the difference of the ranges
    of the bounds hi and lo.  The test computes in floating point with
    relative errors near 1e-15 and a margin of 1e-9; each end is widened
    outward by 1e-6 relative and 2 lattice steps, far more than those move
    it.  Empty ranges have hi < lo.
    """
    c = rows * sqrtD
    disc = c * c - 4.0 * hi
    lo_y1 = np.maximum(
        c * ((1.0 - 1e-9) / (2.0 - 1e-9)),
        np.where(disc > 0.0, 0.5 * (c + np.sqrt(np.maximum(disc, 0.0))), 0.0),
    )
    hi_y1 = np.minimum(
        c * (ratio / (ratio + 1.0)), 0.5 * (c + np.sqrt(np.maximum(c * c - 4.0 * lo, 0.0)))
    )
    lo_y2 = np.maximum(c * (ratio / (ratio - 1.0)), 0.5 * (c + np.sqrt(c * c + 4.0 * lo)))
    hi_y2 = 0.5 * (c + np.sqrt(c * c + 4.0 * hi))
    shift = rows * om
    lo1 = np.floor(lo_y1 * (1.0 - 1e-6) - 2.0 - shift).astype(np.int64)
    hi1 = np.ceil(hi_y1 * (1.0 + 1e-6) + 2.0 - shift).astype(np.int64)
    lo2 = np.floor(lo_y2 * (1.0 - 1e-6) - 2.0 - shift).astype(np.int64)
    hi2 = np.ceil(hi_y2 * (1.0 + 1e-6) + 2.0 - shift).astype(np.int64)
    # lo1 <= lo2 and hi1 <= hi2 always; where the widened pieces meet, the
    # overlap stays in the upper piece so no m is visited twice
    hi1 = np.minimum(hi1, lo2 - 1)
    return lo1, hi1, lo2, hi2


def elements_of_norm(F: FieldParams, n: int) -> list[IdealRep]:
    """All distinct principal ideals with |N| = n, canonical representatives,
    ordered by theta.

    On each row k = 0 .. `_last_row` the norm form
    m^2 + m k + k^2 (1 - D)/4 equals +-n exactly at m = (-k +- s)/2 with
    s^2 = D k^2 +- 4n (s = k mod 2 always, as D = 1 mod 4); of those (m, k)
    `_in_window` keeps the generator with theta in the full window
    [0, 2 log eps), by the test that cuts `ideal_chunks` to its half.  The
    square test runs in int64 and is exact while D k^2 + 4n < 2^53;
    n > 10^7, or a unit so large that the last row passes that, raises
    ScanBoundExceeded.
    """
    if n < 1:
        raise HypothesisViolated(f"ideal norms are >= 1, got {n}")
    eps_val = math.exp(F.log_eps)
    k_hi = _last_row(F, n, eps_val * eps_val)
    if n > _SCAN_MAX or F.D * k_hi * k_hi + 4 * n >= 2**53:
        raise ScanBoundExceeded(f"norm {n} exceeds the exact-solve limit {_SCAN_MAX}")
    k = np.arange(k_hi + 1, dtype=np.int64)
    ms, ks = [], []
    for sign in (1, -1):
        t = F.D * k * k + sign * 4 * n
        s = np.rint(np.sqrt(np.maximum(t, 0))).astype(np.int64)
        hit = (t >= 0) & (s * s == t)
        kh, sh = k[hit], s[hit]
        pos = sh > 0  # s = 0 gives one root, not two
        ms += [(sh - kh) // 2, (-sh[pos] - kh[pos]) // 2]
        ks += [kh, kh[pos]]
    m, k = np.concatenate(ms), np.concatenate(ks)
    y = m + k * F.omega
    keep = _in_window(y, y * y, n, eps_val * eps_val * (1.0 - 1e-9))
    gens = map(QuadInt, m[keep].tolist(), k[keep].tolist())
    reps = [IdealRep(gen=g, theta=angle(F, g)) for g in gens]
    return sorted(reps, key=lambda r: (r.theta, r.gen.m, r.gen.n))


def grossenchar(F: FieldParams, k: int, a: IdealRep) -> complex:
    """Xi_k(ideal) = e(k * theta / (2 log eps)), unit modulus."""
    return cmath.exp(1j * math.pi * k * a.theta / F.log_eps)


def lambda_k(F: FieldParams, k: int, n: int) -> float:
    """Dihedral Hecke eigenvalue: sum of Xi_k over ideals of norm n."""
    total = 0.0 + 0.0j
    for a in elements_of_norm(F, n):
        total += grossenchar(F, k, a)
    # an internal invariant, not a check of input: the ideals of norm n are
    # closed under conjugation, so the sum is real up to rounding
    assert abs(total.imag) <= 1e-9 * max(1.0, abs(total.real)) + 1e-9
    return total.real


def check_table(nmax: int) -> None:
    """Raise TableBoundExceeded before a dense lambda_k table to nmax, of 8
    bytes per entry, is allocated past 8 GiB."""
    need = 8.0 * (nmax + 1)
    if need > ALLOC_BYTES_MAX:
        raise TableBoundExceeded(
            f"lambda_k table to {nmax} needs {need / 2**30:.1f} GiB, "
            f"over the {ALLOC_BYTES_MAX / 2**30:.0f} GiB limit"
        )


def lambda_k_table(F: FieldParams, k: int, nmax: int) -> np.ndarray:
    """Dense numpy table [lambda_k(0) .. lambda_k(nmax)] of the index-k
    dihedral Hecke eigenvalues (index 0 unused, 0.0).

    Xi_k of a conjugate ideal is the complex conjugate, so each norm's sum
    is real and each half-window ideal adds its multiplicity times
    cos(pi k theta/log eps).  One np.add.at per `ideal_chunks` chunk: it
    adds into each bin in index order, so each norm's terms are summed in
    row-major order, as over the stably sorted `ideal_scan`, and the table
    is that sum bit for bit.  A table over 8 GiB raises TableBoundExceeded
    (`check_table`) before anything is allocated."""
    check_table(nmax)
    out = np.zeros(nmax + 1)
    for norms, thetas, mults in ideal_chunks(F, nmax):
        np.add.at(out, norms, mults * np.cos((math.pi * k / F.log_eps) * thetas))
    return out
