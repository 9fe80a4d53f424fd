"""Reference enumeration of principal ideals for the tests.

A pure-Python scan of the box of (m, n)-coordinates whose two real
embeddings are bounded by sqrt(norm)*eps, deduplicated through
canonical_generator; for a canonical-window generator both embeddings obey
that bound, so the scan is exhaustive.  It is slow and independent of the
numpy scan in maassqv.ideals, which is checked against it.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
