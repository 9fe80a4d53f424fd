"""Reference enumerations of principal ideals for the tests.

`_ideal_table` is a pure-Python scan of the box of (m, n)-coordinates
whose two real embeddings are bounded by sqrt(norm)*eps, deduplicated
through canonical_generator; for a canonical-window generator both
embeddings obey that bound, so the scan is exhaustive.  It is slow and
independent of the numpy scan in maassqv.ideals, which is checked
against it.

`norm_oracle` finds the ideals of one norm n in the same box without a
table: on each row it takes every integer root m of the norm form = +-n
(exact, by math.isqrt) and deduplicates through canonical_generator, so
it is independent of the window test that maassqv.ideals.elements_of_norm
keeps its generator by.

`rectangle_scan` is a masked numpy scan of the full window
theta in [0, 2 log eps): it tests every lattice point of the rectangle
0 < y <= eps sqrt(nmax), |ybar| <= sqrt(nmax) of the (y, ybar) plane, row
by row, where maassqv.ideals enumerates only the admissible strips of the
half window.  `half_window` cuts it to theta <= log eps and gives each
ideal its multiplicity from the angle alone (1 within 1e-9 of theta = 0
or theta = log eps, else 2), independent of the exact (m, n) test of
maassqv.ideals; `ideal_scan` must match the cut bit for bit.
`lambda_table_from_scan` sums the table of lambda_k in one np.add.at over
the norm-sorted `ideal_scan`; `lambda_k_table`, which sums chunk by chunk,
must match it bit for bit.

`r_D` counts the ideals of norm n as the divisor sum of chi_D, the count
`elements_of_norm` and `lambda_k(0, n)` are checked against.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from maassqv.errors import ScanBoundExceeded
from maassqv.ideals import _SCAN_MAX, IdealRep, ideal_scan, kronecker
from maassqv.quadfield import FieldParams, QuadInt, angle, canonical_generator


def r_D(F: FieldParams, n: int) -> int:
    """Ideal-counting function sum_{d|n} chi_D(d)."""
    assert n >= 1
    total = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            total += kronecker(F.D, d)
            if d != n // d:
                total += kronecker(F.D, n // d)
    return total


@lru_cache(maxsize=32)
def _ideal_table(F: FieldParams, nmax: int) -> tuple[dict[int, tuple[IdealRep, ...]], ...]:
    """Map |norm| -> sorted tuple of canonical ideals, for all norms <= nmax."""
    if nmax > _SCAN_MAX:
        raise ScanBoundExceeded(f"norm bound {nmax} exceeds scan limit")
    eps_val = math.exp(F.log_eps)
    B = math.sqrt(nmax) * eps_val + 1e-9
    om = F.omega
    omc = (1.0 - F.sqrtD) / 2.0
    seen: set[tuple[int, int]] = set()
    table: dict[int, list[IdealRep]] = {}
    kmax = int((2 * B) / F.sqrtD) + 2
    for k in range(-kmax, kmax + 1):
        lo = max(-B - k * om, -B - k * omc)
        hi = min(B - k * om, B - k * omc)
        for m in range(math.ceil(lo), math.floor(hi) + 1):
            if m == 0 and k == 0:
                continue
            q = m * m + m * k + k * k * F.omega_norm
            if not 1 <= abs(q) <= nmax:
                continue
            c = canonical_generator(F, QuadInt(m, k))
            key = (c.m, c.n)
            if key in seen:
                continue
            seen.add(key)
            table.setdefault(abs(q), []).append(IdealRep(gen=c, theta=angle(F, c)))
    for v in table.values():
        v.sort(key=lambda r: (r.theta, r.gen.m, r.gen.n))
    return ({n: tuple(v) for n, v in table.items()},)


def oracle_elements(F: FieldParams, n: int, nmax: int) -> list[IdealRep]:
    """The canonical ideals of norm n from the reference table up to nmax."""
    (table,) = _ideal_table(F, nmax)
    return list(table.get(n, ()))


def norm_oracle(F: FieldParams, n: int) -> list[IdealRep]:
    """The canonical ideals of norm n, sorted as elements_of_norm sorts them:
    every element of norm +-n whose embeddings are both at most
    sqrt(n)*eps, mapped to its canonical generator."""
    B = math.sqrt(n) * math.exp(F.log_eps) + 1e-9
    kmax = int((2 * B) / F.sqrtD) + 2
    gens = set()
    for k in range(-kmax, kmax + 1):
        for sign in (1, -1):
            t = F.D * k * k + sign * 4 * n
            s = math.isqrt(t) if t >= 0 else -1
            if s * s != t:
                continue
            for m in {(-k + s) // 2, (-k - s) // 2}:
                gens.add(canonical_generator(F, QuadInt(m, k)))
    reps = [IdealRep(gen=g, theta=angle(F, g)) for g in gens]
    return sorted(reps, key=lambda r: (r.theta, r.gen.m, r.gen.n))


def rectangle_scan(F: FieldParams, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(norms, thetas) over all principal ideals with 1 <= |N| <= nmax and
    theta in [0, 2 log eps), sorted by norm, from a masked scan of the
    rectangle 0 < y <= eps sqrt(nmax), |ybar| <= sqrt(nmax): a kept y has
    y^2 < eps^2 |N| and |ybar|^2 = N^2/y^2 <= |N|(1 + 1e-9), so it lies in
    the rectangle.  Rows n = (y - ybar)/sqrt(D) run in ascending order and m
    ascending within a row, over m-ranges of width 2 sqrt(nmax) + 4 that
    hold the row's part of the rectangle."""
    eps_val = math.exp(F.log_eps)
    om = F.omega
    c_norm = F.omega_norm  # n^2 coefficient of the norm form
    side = math.sqrt(nmax) * (1.0 + 1e-6) + 1.0  # bound on |ybar|
    top = math.sqrt(nmax) * eps_val * (1.0 + 1e-6) + 1.0  # bound on y
    n_lo = -int(side / F.sqrtD) - 1
    n_hi = int((top + side) / F.sqrtD) + 1

    norm_parts: list[np.ndarray] = []
    theta_parts: list[np.ndarray] = []
    width = int(2.0 * side) + 4
    chunk = max(1, (1 << 22) // width)
    rows = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    for i0 in range(0, rows.size, chunk):
        nn = rows[i0 : i0 + chunk, None]
        # y from max(0, c - side) - 1 up, with c = n sqrt(D) = y - ybar
        y_lo = np.maximum(nn * F.sqrtD - side, 0.0) - 1.0
        m_start = np.floor(y_lo - nn * om).astype(np.int64)
        mm = m_start + np.arange(width, dtype=np.int64)[None, :]
        y = mm + nn * om
        q = mm * mm + mm * nn + c_norm * nn * nn
        aq = np.abs(q)
        y2 = y * y
        ok = (
            (y > 0.0)
            & (aq >= 1)
            & (aq <= nmax)
            & (y2 >= aq * (1.0 - 1e-9))
            & (y2 < aq * (eps_val * eps_val) * (1.0 - 1e-9))
        )
        if ok.any():
            norm_parts.append(aq[ok])
            theta_parts.append(np.log(y2[ok] / aq[ok]))
    norms = np.concatenate(norm_parts) if norm_parts else np.empty(0, np.int64)
    thetas = np.concatenate(theta_parts) if theta_parts else np.empty(0, np.float64)
    order = np.argsort(norms, kind="stable")
    return norms[order], thetas[order]


def half_window(
    F: FieldParams, norms: np.ndarray, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(norms, thetas, mults) of a full-window scan cut to theta <= log eps,
    with multiplicity 1 on the self-conjugate angles 0 and log eps (within
    1e-9; a lattice point off them is at least 1/sqrt(|N|) away) and 2
    elsewhere."""
    keep = thetas <= F.log_eps + 1e-9
    norms, thetas = norms[keep], thetas[keep]
    fixed = (np.abs(thetas) <= 1e-9) | (np.abs(thetas - F.log_eps) <= 1e-9)
    return norms, thetas, np.where(fixed, 1, 2).astype(np.int8)


def lambda_table_from_scan(F: FieldParams, k: int, nmax: int) -> np.ndarray:
    """[lambda_k(0) .. lambda_k(nmax)] by one np.add.at over the norm-sorted
    half-window ideal scan, each cosine times its multiplicity."""
    norms, thetas, mults = ideal_scan(F, nmax)
    out = np.zeros(nmax + 1)
    np.add.at(out, norms, mults * np.cos((math.pi * k / F.log_eps) * thetas))
    return out
