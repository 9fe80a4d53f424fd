"""Reference enumerations of principal ideals for the tests.

`_ideal_table` is a pure-Python scan of the box of (m, n)-coordinates
whose two real embeddings are bounded by sqrt(norm)*eps, deduplicated
through canonical_generator; for a canonical-window generator both
embeddings obey that bound, so the scan is exhaustive.  It is slow and
independent of the numpy scan in maassqv.ideals, which is checked
against it.

`rectangle_scan` is the numpy scan that maassqv.ideals.ideal_scan used
before it enumerated only the admissible strips of each row: it tests
every point of the bounding rectangle of (m, n)-coordinates, uncached.
`ideal_scan` must match it bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from maassqv.errors import ScanBoundExceeded
from maassqv.ideals import _SCAN_MAX, IdealRep
from maassqv.quadfield import FieldParams, QuadInt, angle, canonical_generator


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
            table.setdefault(abs(q), []).append(
                IdealRep(gen=c, norm_abs=abs(q), theta=angle(F, c))
            )
    for v in table.values():
        v.sort(key=lambda r: (r.theta, r.gen.m, r.gen.n))
    return ({n: tuple(v) for n, v in table.items()},)


def oracle_elements(F: FieldParams, n: int, nmax: int) -> list[IdealRep]:
    """The canonical ideals of norm n from the reference table up to nmax."""
    (table,) = _ideal_table(F, nmax)
    return list(table.get(n, ()))


def rectangle_scan(F: FieldParams, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(norms, thetas) over all principal ideals with 1 <= |N| <= nmax, from
    a masked scan of the whole rectangle |n| <= n_hi, 0 <= y < width."""
    bound = 1 << max(nmax - 1, 1).bit_length()
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
    cut = int(np.searchsorted(norms, nmax, side="right"))
    return norms[:cut], thetas[:cut]
