"""Hecke eigenvalue sources for the fixed even newform psi of level D with
trivial nebentypus, plus the multiplicative functions built on top of them:
the local series L(s, p^b) and its closed form, vartheta = L(1, .) and
the ideal-weighted h.

Sources are either table-backed (one lambda_psi(p) per prime, extended by
the Hecke recursion) or synthetic: lambda_psi(p) = 2 cos(theta_p) with
theta_p uniform in [0, pi] for p not dividing D, and lambda_psi(p) =
+-p^{-1/2} with lambda(p^b) = lambda(p)^b at the two ramified primes.
`HeckeSource.lambda_p_array` draws the synthetic values of a whole array
of primes in one batch (one sha256 digest per prime, then one vectorised
map); `lambda_p` and `lambda_pp_array` read it, so the draw is written once.

The package's one prime sieve, `primes_upto`, and one dense multiplicative
fill, `multiplicative_fill`, live here; every arithmetic table is a fill.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ALLOC_BYTES_MAX,
    DivergentDenominator,
    MalformedTable,
    MissingPrime,
    TableBoundExceeded,
)
from .ideals import elements_of_norm
from .lattice import n_beta
from .quadfield import FieldParams, factorize


def _chi0(D: int, p: int) -> int:
    """Principal character mod D at p."""
    return 0 if D % p == 0 else 1


@dataclass(frozen=True)
class HeckeSource:
    """A Hecke eigenvalue source, compared and hashed by value: the spectral
    data, the seed, and for a table-backed source a digest of its table.
    prime_values holds the table (a synthetic source leaves it empty and
    draws lambda_psi(p) afresh from its seed, a batch of primes at a time);
    it takes no part in the comparison."""

    level: int  # = D
    t_psi: float
    eta_D: int  # Atkin-Lehner eigenvalue in {-1, +1}
    parity: str  # "even" | "odd"
    prime_values: dict[int, float] = field(compare=False)  # p -> lambda_psi(p)
    seed: int | None = None  # synthetic mode when not None
    _table_digest: str = field(default="", init=False, repr=False)

    def __post_init__(self):
        if self.seed is None:  # (p, lambda(p)) rows: primes are exact in float64
            table = np.array(sorted(self.prime_values.items()), dtype=np.float64)
            digest = hashlib.sha256(table.tobytes()).hexdigest()
            object.__setattr__(self, "_table_digest", digest)

    def lambda_p(self, p: int) -> float:
        return float(self.lambda_p_array(np.array([p], dtype=np.int64))[0])

    def lambda_p_array(self, primes: np.ndarray) -> np.ndarray:
        """lambda_psi(p) for an array of primes, in one batch.

        A table-backed source reads its table and raises MissingPrime past
        its end.  A synthetic source draws every prime at once: u(p) is the
        first 8 bytes of sha256(b"<seed>:<p>"), big-endian, over 2^64, and
        lambda_psi(p) is 2 cos(pi u) for p not dividing D and
        +-p^{-1/2} (+ when u < 1/2) at the ramified primes.  This is the one
        hash-to-lambda map; `lambda_p` reads it for a single prime."""
        plist = primes.tolist()
        if self.seed is None:
            try:
                return np.array([self.prime_values[p] for p in plist], dtype=np.float64)
            except KeyError as exc:
                raise MissingPrime(f"p={exc.args[0]} beyond table range") from None
        seed, sha = self.seed, hashlib.sha256
        raw = b"".join([sha(b"%d:%d" % (seed, p)).digest()[:8] for p in plist])
        u = np.frombuffer(raw, dtype=">u8") / 2.0**64  # uniform [0, 1)
        out = 2.0 * np.cos(np.pi * u)
        ram = self.level % primes == 0
        if ram.any():
            out[ram] = np.where(u[ram] < 0.5, 1.0, -1.0) / np.sqrt(primes[ram])
        return out

    def lambda_pp(self, p: int, b: int) -> float:
        """lambda_psi(p^b) by the Hecke recursion (ramified: power model)."""
        if b < 0:
            return 0.0
        if b == 0:
            return 1.0
        lp = self.lambda_p(p)
        if self.level % p == 0:
            return lp**b
        prev2, prev1 = 1.0, lp
        for _ in range(b - 1):
            prev2, prev1 = prev1, lp * prev1 - prev2
        return prev1

    def lambda_pp_array(self, primes: np.ndarray, b: int) -> np.ndarray:
        """lambda_psi(p^b), b >= 1, for an array of primes: the Hecke
        recursion and ramified power model of `lambda_pp` run elementwise on
        the lambda_psi(p) values, so each value equals lambda_pp(p, b) bit
        for bit."""
        lp = self.lambda_p_array(primes)
        prev2, prev1 = np.ones_like(lp), lp
        for _ in range(b - 1):
            prev2, prev1 = prev1, lp * prev1 - prev2
        for i in np.flatnonzero(self.level % primes == 0).tolist():
            prev1[i] = float(lp[i]) ** b
        return prev1


def primes_upto(n: int) -> np.ndarray:
    """The primes p <= n in ascending order (sieve of Eratosthenes)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def multiplicative_fill(
    nmax: int, local: Callable[[np.ndarray, int], np.ndarray]
) -> np.ndarray:
    """Dense table [f(0) .. f(nmax)] of the multiplicative f with f(0) = 0
    and f(p^b) = local(primes, b)[i] for the ascending primes with p^b <= nmax.
    Each f(n) is the product of its local factors in ascending p, with no
    division (zero local values are safe); primes p > sqrt(nmax) divide n
    at most once and go in one vectorised step per cofactor j = n/p.
    A fill whose table (8 bytes per integer) and prime sieve (1 byte)
    together exceed 8 GiB raises TableBoundExceeded before anything is
    allocated."""
    need = 9.0 * (nmax + 1)
    if need > ALLOC_BYTES_MAX:
        raise TableBoundExceeded(
            f"table fill to {nmax} needs about {need / 2**30:.1f} GiB, "
            f"over the {ALLOC_BYTES_MAX / 2**30:.0f} GiB limit"
        )
    out = np.ones(nmax + 1)
    out[0] = 0.0
    primes = primes_upto(nmax)
    if not primes.size:
        return out
    loc = []  # loc[b - 1][i]: f at primes[i]^b, for the primes with p^b <= nmax
    pb = primes
    while pb.size:
        loc.append(np.asarray(local(primes[: pb.size], len(loc) + 1), dtype=np.float64))
        pb = pb * primes[: pb.size]
        pb = pb[pb <= nmax]
    n_small = loc[1].size if len(loc) > 1 else 0  # the primes with p^2 <= nmax
    for i, p in enumerate(primes[:n_small].tolist()):
        # out[p::p] holds n = j p; p^b divides n exactly when p^{b-1} | j
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


def make_source(
    *,
    table: str | None = None,
    synthetic: int | None = None,
    D: int | None = None,
    t_psi: float = 1.0,
    eta: int = 1,
    parity: str = "even",
) -> HeckeSource:
    if (table is None) == (synthetic is None):
        raise ValueError("exactly one of table=, synthetic= required")
    if table is not None:
        return read_table(table)
    assert D is not None
    return HeckeSource(
        level=D, t_psi=t_psi, eta_D=eta, parity=parity,
        prime_values={}, seed=synthetic,
    )


def read_table(path: str) -> HeckeSource:
    """The source of a `write_table` file.  Its primes are checked against
    one sieve, of 1 byte per integer up to the last prime."""
    header = None
    values: dict[int, float] = {}
    linenos: list[int] = []  # the line of each row, in row order
    last_p = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header is None:
                    header = line
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MalformedTable(f"{path}:{lineno}: need '<prime> <lambda>'")
            try:
                p, lam = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise MalformedTable(f"{path}:{lineno}: {exc}") from exc
            if p <= last_p:
                raise MalformedTable(f"{path}:{lineno}: primes must ascend")
            if p >= ALLOC_BYTES_MAX:
                raise TableBoundExceeded(f"{path}:{lineno}: {p} is past the sieve limit")
            last_p = p
            values[p] = lam
            linenos.append(lineno)
    if header is None:
        raise MalformedTable(f"{path}: missing header line")
    listed = np.fromiter(values, dtype=np.int64, count=len(values))
    bad = np.flatnonzero(~np.isin(listed, primes_upto(last_p)))
    if bad.size:
        raise MalformedTable(f"{path}:{linenos[bad[0]]}: {listed[bad[0]]} is not prime")
    meta: dict[str, str] = {}
    for tok in header.lstrip("#").split():
        if "=" not in tok:
            raise MalformedTable(f"{path}: bad header token {tok!r}")
        k, v = tok.split("=", 1)
        meta[k] = v
    try:
        return HeckeSource(
            level=int(meta["D"]),
            t_psi=float(meta["t_psi"]),
            eta_D={"+1": 1, "1": 1, "-1": -1}[meta["eta"]],
            parity=meta["parity"],
            prime_values=values,
        )
    except KeyError as exc:
        raise MalformedTable(f"{path}: header missing {exc}") from exc


def write_table(src: HeckeSource, path: str, pmax: int) -> None:
    eta = "+1" if src.eta_D > 0 else "-1"
    with open(path, "w") as fh:
        fh.write(f"# D={src.level} t_psi={src.t_psi!r} eta={eta} parity={src.parity}\n")
        for p in primes_upto(pmax).tolist():
            fh.write(f"{p} {src.lambda_p(p):.17g}\n")


@functools.cache
def lambda_psi(src: HeckeSource, n: int) -> float:
    """Multiplicative extension; lambda(-n) = lambda(n), lambda(0) = 0."""
    n = abs(n)
    if n == 0:
        return 0.0
    v = 1.0
    for p, b in factorize(n).items():
        v *= src.lambda_pp(p, b)
    return v


def local_series(
    src: HeckeSource, s: complex, p: int, b: int, J: int = 60
) -> tuple[complex, complex]:
    """(closed, truncated) for the local ratio
    sum_j lambda(p^{b+2j}) p^{-js} / sum_j lambda(p^{2j}) p^{-js}."""
    assert J >= 1
    chi0 = _chi0(src.level, p)
    ps = p ** (-s)
    if b == 0:
        closed = 1.0 + 0.0j  # numerator and denominator series coincide
    else:
        closed = (src.lambda_pp(p, b) - chi0 * src.lambda_pp(p, b - 2) * ps) / (
            1 + chi0 * ps
        )
    num = sum(src.lambda_pp(p, b + 2 * j) * ps**j for j in range(J + 1))
    den = sum(src.lambda_pp(p, 2 * j) * ps**j for j in range(J + 1))
    if abs(den) < 1e-12:
        raise DivergentDenominator(f"local denominator ~0 at p={p}, s={s}")
    return closed, num / den


def vartheta(src: HeckeSource, n: int) -> float:
    """Multiplicative; local value = closed local series at s=1."""
    assert n >= 1
    v = 1.0
    for p, b in factorize(n).items():
        chi0 = _chi0(src.level, p)
        v *= (src.lambda_pp(p, b) - chi0 * src.lambda_pp(p, b - 2) / p) / (
            1 + chi0 / p
        )
    return v


def h_fn(src: HeckeSource, F: FieldParams, n: int) -> float:
    """sum over principal ideals of norm n of vartheta(|n_beta|)/sqrt(|n_beta|)."""
    assert n >= 1
    total = 0.0
    for rep in elements_of_norm(F, n):
        _, nb = n_beta(F, rep.gen)
        total += vartheta(src, nb) / math.sqrt(nb)
    return total
