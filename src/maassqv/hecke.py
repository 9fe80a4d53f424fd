"""Hecke eigenvalue sources for the fixed even newform psi of level D with
trivial nebentypus, and the multiplicative functions built on them:
lambda_psi(n), vartheta = L(1, .) and the ideal-weighted h.

Sources are either table-backed (one lambda_psi(p) per prime, extended by
the Hecke recursion) or synthetic: lambda_psi(p) = 2 cos(theta_p) with
theta_p uniform in [0, pi] for p not dividing D, and lambda_psi(p) =
+-p^{-1/2} with lambda(p^b) = lambda(p)^b at the two ramified primes.
`HeckeSource.lambda_p_array` draws the synthetic values of a whole array
of primes in one batch (one sha256 digest per prime, then one vectorised
map) and `lambda_pp_array` runs the Hecke recursion on them; `lambda_p`
and `lambda_pp` read those for one prime.

A multiplicative function is one callback, local(primes, b) = f(p^b), and
one of two engines over it: `fill_segment`, the table of f on a segment
[lo, hi] of the integers, or `multiplicative_at`, f at scattered n
(`lambda_psi`, `vartheta`).  `local_factors` takes the local values once,
so a run that fills many segments draws each lambda_psi(p) once, and
`multiplicative_fill`, the dense table that every arithmetic table is, is
the segment [0, nmax].  Both engines multiply the local factors in
ascending p, so they agree bit for bit, and a value does not depend on the
segment that holds it.  The one prime sieve, `primes_upto`, is here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ALLOC_BYTES_MAX,
    STREAM_BLOCK,
    HypothesisViolated,
    MalformedTable,
    MissingPrime,
    Overflow,
    TableBoundExceeded,
)
from .ideals import elements_of_norm, interval_chunks
from .quadfield import FACTOR_MAX, FieldParams


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
        if self.seed is None:
            try:
                return np.array([self.prime_values[p] for p in primes.tolist()], dtype=np.float64)
            except KeyError as exc:
                raise MissingPrime(f"p={exc.args[0]} beyond table range") from None
        prefix = hashlib.sha256(b"%d:" % self.seed)  # hashed once, copied per prime
        raw = bytearray()
        for i0 in range(0, primes.size, STREAM_BLOCK):  # bounds the Python ints
            for p in primes[i0 : i0 + STREAM_BLOCK].tolist():
                h = prefix.copy()
                h.update(b"%d" % p)
                raw += h.digest()[:8]
        u = np.frombuffer(raw, dtype=">u8") / 2.0**64  # uniform [0, 1)
        out = 2.0 * np.cos(np.pi * u)
        ram = self.level % primes == 0
        if ram.any():
            out[ram] = np.where(u[ram] < 0.5, 1.0, -1.0) / np.sqrt(primes[ram])
        return out

    def lambda_pp(self, p: int, b: int) -> float:
        return float(self.lambda_pp_array(np.array([p], dtype=np.int64), b)[0])

    def lambda_pp_array(self, primes: np.ndarray, b: int) -> np.ndarray:
        """lambda_psi(p^b) for an array of primes: 1 at b = 0 and 0 at
        b < 0 (no draw); for b >= 1 the one Hecke recursion, run elementwise
        on the lambda_psi(p) values, and the power model at ramified p."""
        if b <= 0:
            return np.full(primes.shape, float(b == 0))
        lp = self.lambda_p_array(primes)
        prev2, prev1 = np.ones_like(lp), lp
        for _ in range(b - 1):
            prev2, prev1 = prev1, lp * prev1 - prev2
        for i in np.flatnonzero(self.level % primes == 0).tolist():
            prev1[i] = float(lp[i]) ** b
        return prev1


def primes_upto(n: int) -> np.ndarray:
    """The primes p <= n in ascending order (sieve of Eratosthenes).  A sieve
    of n + 1 bytes past ALLOC_BYTES_MAX raises TableBoundExceeded first."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    if n + 1 > ALLOC_BYTES_MAX:
        raise TableBoundExceeded(
            f"prime sieve to {n} needs {(n + 1) / 2**30:.1f} GiB, "
            f"over the {ALLOC_BYTES_MAX / 2**30:.0f} GiB limit"
        )
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


def _local_values(primes: np.ndarray, nmax: int, local: Callable) -> list[np.ndarray]:
    """loc[b - 1][i] = f(primes[i]^b) for the primes with p^b <= nmax."""
    loc = []
    pb = primes
    while pb.size:
        loc.append(np.asarray(local(primes[: pb.size], len(loc) + 1), dtype=np.float64))
        pb = pb * primes[: pb.size]
        pb = pb[pb <= nmax]
    return loc


_PRIME_BYTES = 48  # peak bytes per prime of local_factors: primes, f(p), the draw
_SEGMENT_BYTES = 12  # bytes per integer of a segment: the table and p = 2's factors


def check_fill(nmax: int, width: int) -> None:
    """Raise TableBoundExceeded before a fill allocates anything: when the
    prime sieve to nmax (1 byte per integer), the per-prime arrays of
    `local_factors` to nmax (`_PRIME_BYTES` for each of the at most
    1.25506 nmax/log nmax primes, Rosser-Schoenfeld) and a segment of
    `width` integers (`_SEGMENT_BYTES` each) together pass 8 GiB."""
    primes = 1.25506 * nmax / math.log(nmax) if nmax > 1 else 0.0
    need = (nmax + 1) + _PRIME_BYTES * primes + _SEGMENT_BYTES * width
    if need > ALLOC_BYTES_MAX:
        raise TableBoundExceeded(
            f"table fill to {nmax} needs about {need / 2**30:.1f} GiB, "
            f"over the {ALLOC_BYTES_MAX / 2**30:.0f} GiB limit"
        )


def local_factors(
    nmax: int, local: Callable[[np.ndarray, int], np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(primes, loc): the primes p <= nmax in ascending order and
    loc[b - 1][i] = f(primes[i]^b) = local(primes, b)[i] for the primes with
    p^b <= nmax, the local values every segment of `fill_segment` up to
    nmax reads.  Refused by `check_fill` before the sieve allocates."""
    check_fill(nmax, 0)
    primes = primes_upto(nmax)
    return primes, _local_values(primes, nmax, local)


def fill_segment(
    factors: tuple[np.ndarray, list[np.ndarray]], lo: int, hi: int
) -> np.ndarray:
    """Table [f(lo) .. f(hi)] of the multiplicative f with f(0) = 0 whose
    `local_factors` to a bound >= hi are `factors`.

    Each f(n) is the product of its local factors in ascending p, with no
    division (zero local values are safe): first the primes with p^2 <= hi,
    by stride over their multiples in the segment, then the at most one
    prime p > sqrt(hi) that divides n, last, through its cofactor j = n/p:
    every pair (j, p) with lo <= j p <= hi, `errors.STREAM_BLOCK` pairs per
    numpy pass.  So f(n) is the same bits in every segment that holds n."""
    primes, loc = factors
    out = np.ones(hi - lo + 1)
    if lo == 0:
        out[0] = 0.0
    n_small = int(np.searchsorted(primes, math.isqrt(hi), side="right"))
    for i, p in enumerate(primes[:n_small].tolist()):
        t0 = max(1, -(-lo // p))  # the multiples t p of p in the segment
        if t0 > hi // p:
            continue
        fac = np.full(hi // p - t0 + 1, loc[0][i])
        q, b = p, 1
        while q * p <= hi:
            # p^b divides t p exactly when p^{b-1} = q divides t
            b += 1
            fac[-t0 % q :: q] = loc[b - 1][i]
            q *= p
        out[t0 * p - lo :: p] *= fac
        del fac  # not alive next to the next prime's
    top = int(np.searchsorted(primes, hi, side="right"))
    if top == n_small:
        return out
    big, lbig = primes[n_small:top], loc[0][n_small:top]
    js = np.arange(1, hi // int(big[0]) + 1)
    first = np.searchsorted(big, -(-lo // js))  # the primes with lo <= j p <= hi
    counts = np.maximum(np.searchsorted(big, hi // js, side="right") - first, 0)
    for idx, j in interval_chunks(first, counts, js, STREAM_BLOCK):
        out[j * big[idx] - lo] *= lbig[idx]
    return out


def multiplicative_fill(
    nmax: int, local: Callable[[np.ndarray, int], np.ndarray]
) -> np.ndarray:
    """Dense table [f(0) .. f(nmax)] of the multiplicative f with f(0) = 0
    and f(p^b) = local(primes, b)[i] for an ascending array of primes: the
    segment [0, nmax] of `fill_segment`.  A fill that `check_fill` estimates
    above 8 GiB raises TableBoundExceeded before anything is allocated."""
    check_fill(nmax, nmax + 1)
    return fill_segment(local_factors(nmax, local), 0, nmax)


def multiplicative_at(ns, local: Callable[[np.ndarray, int], np.ndarray]) -> np.ndarray:
    """The f of `multiplicative_fill` at every n >= 0 of the array ns, by
    vectorised trial division with the primes p <= sqrt(max n), each n
    dropping out once its cofactor is below p^2; the local factors multiply
    in ascending p as in the fill, so the values are the fill's bit for
    bit.  An n over FACTOR_MAX raises Overflow at once."""
    ns = np.asarray(ns)
    nmax = int(ns.max()) if ns.size else 0
    if nmax > FACTOR_MAX:
        raise Overflow(f"{nmax} exceeds the trial-division limit {FACTOR_MAX}")
    rest = ns.astype(np.int64).ravel()
    out = np.where(rest == 0, 0.0, 1.0)
    primes = primes_upto(math.isqrt(nmax))
    loc = _local_values(primes, nmax, local)
    live = np.flatnonzero(rest > 1)
    for i, p in enumerate(primes.tolist()):
        live = live[rest[live] >= p * p]  # below p^2, rest is 1 or a prime
        if not live.size:
            break
        hit = live[rest[live] % p == 0]
        b = np.zeros(hit.size, dtype=np.int64)  # the exponent of p in n
        while (more := np.flatnonzero(rest[hit] % p == 0)).size:
            rest[hit[more]] //= p
            b[more] += 1
        out[hit] *= np.array([1.0] + [loc[e][i] for e in range(b.max(initial=0))])[b]
    last = np.flatnonzero(rest > 1)  # the largest prime factor, left over: last
    if last.size:
        q, where = np.unique(rest[last], return_inverse=True)
        out[last] *= np.asarray(local(q, 1), dtype=np.float64)[where]
    return out.reshape(ns.shape)


def make_source(
    *,
    table: str | None = None,
    synthetic: int | None = None,
    D: int | None = None,
) -> HeckeSource:
    """The source of a table file (`read_table`), or the synthetic source of
    level D with this seed: t_psi = 1, root number eta_D = +1 and even
    parity."""
    if (table is None) == (synthetic is None):
        raise ValueError("exactly one of table=, synthetic= required")
    if table is not None:
        return read_table(table)
    if D is None:
        raise HypothesisViolated(f"the synthetic source of seed {synthetic} needs its level D")
    return HeckeSource(
        level=D, t_psi=1.0, eta_D=1, parity="even", prime_values={}, seed=synthetic,
    )


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not finite")
    return value


def read_table(path: str) -> HeckeSource:
    """The source of a table file: a header line
    `# D=<integer> t_psi=<finite> eta=<+1|-1> parity=<even|odd>`, then one
    `<prime> <finite lambda_psi(p)>` row per prime, ascending.  Its primes
    are checked against one sieve, of 1 byte per integer up to the last
    prime.  A value outside these, a file that cannot be opened, or one
    that is not UTF-8 text, is a MalformedTable naming the file, and the
    line and token at fault."""
    header = header_line = None
    values: dict[int, float] = {}
    linenos: list[int] = []  # the line of each row, in row order
    last_p = 0
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise MalformedTable(f"{path}: {exc.strerror}") from exc
    try:
        with fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if header is None:
                        header, header_line = line, lineno
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise MalformedTable(f"{path}:{lineno}: need '<prime> <lambda>'")
                try:
                    p, lam = int(parts[0]), _finite(parts[1])
                except ValueError as exc:
                    raise MalformedTable(f"{path}:{lineno}: {exc}") from exc
                if p <= last_p:
                    raise MalformedTable(f"{path}:{lineno}: primes must ascend")
                if p >= ALLOC_BYTES_MAX:
                    raise TableBoundExceeded(f"{path}:{lineno}: {p} is past the sieve limit")
                last_p = p
                values[p] = lam
                linenos.append(lineno)
    except UnicodeDecodeError as exc:
        raise MalformedTable(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if header is None:
        raise MalformedTable(f"{path}: missing header line")
    listed = np.fromiter(values, dtype=np.int64, count=len(values))
    bad = np.flatnonzero(~np.isin(listed, primes_upto(last_p)))
    if bad.size:
        raise MalformedTable(f"{path}:{linenos[bad[0]]}: {listed[bad[0]]} is not prime")
    meta: dict[str, str] = {}
    for tok in header.lstrip("#").split():
        if "=" not in tok:
            raise MalformedTable(f"{path}:{header_line}: bad header token {tok!r}")
        k, v = tok.split("=", 1)
        meta[k] = v
    parse = {  # each raises ValueError or KeyError on a value it does not take
        "D": int,
        "t_psi": _finite,
        "eta": {"+1": 1, "1": 1, "-1": -1}.__getitem__,
        "parity": {"even": "even", "odd": "odd"}.__getitem__,
    }
    got = {}
    for key, read in parse.items():
        if key not in meta:
            raise MalformedTable(f"{path}:{header_line}: header missing {key!r}")
        try:
            got[key] = read(meta[key])
        except (ValueError, KeyError):
            raise MalformedTable(
                f"{path}:{header_line}: bad header token '{key}={meta[key]}'"
            ) from None
    return HeckeSource(
        level=got["D"],
        t_psi=got["t_psi"],
        eta_D=got["eta"],
        parity=got["parity"],
        prime_values=values,
    )


def lambda_psi(src: HeckeSource, ns) -> np.ndarray:
    """lambda_psi(n) for an array of integers: the multiplicative extension
    of the Hecke values, lambda(-n) = lambda(n) and lambda(0) = 0."""
    return multiplicative_at(np.abs(np.asarray(ns)), src.lambda_pp_array)


def vartheta(src: HeckeSource, ns) -> np.ndarray:
    """vartheta(n) for an array of n >= 1: multiplicative, its local value
    the closed local series at s = 1."""

    def local(primes: np.ndarray, b: int) -> np.ndarray:
        chi0 = (src.level % primes != 0).astype(np.float64)
        lam, lam2 = src.lambda_pp_array(primes, b), src.lambda_pp_array(primes, b - 2)
        return (lam - chi0 * lam2 / primes) / (1 + chi0 / primes)

    return multiplicative_at(ns, local)


def h_fn(src: HeckeSource, F: FieldParams, ns) -> np.ndarray:
    """h(n) for an array of n >= 1: the sum over the principal ideals of
    norm n of vartheta(|n_beta|)/sqrt(|n_beta|).  |n_beta| = n/gcd(m, k)^2
    for a generator m + k*omega is a conjugate ideal's too, so each
    half-window ideal of `elements_of_norm` adds its multiplicity times its
    term."""
    ns = np.asarray(ns)
    sols = [elements_of_norm(F, n) for n in ns.ravel().tolist()]
    row_of = np.repeat(np.arange(len(sols)), [s[0].size for s in sols])
    m, k, mults = np.concatenate([np.zeros((3, 0), np.int64), *sols], axis=1)  # ns may be empty
    nbs = ns.ravel()[row_of] // np.gcd(m, k) ** 2
    out = np.zeros(len(sols))
    np.add.at(out, row_of, mults * (vartheta(src, nbs) / np.sqrt(nbs)))  # one vartheta call
    return out.reshape(ns.shape)
