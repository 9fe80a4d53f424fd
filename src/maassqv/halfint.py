"""Half-integral weight Eisenstein arithmetic and the quadratic Dirichlet
series it controls.

Contents: the theta multiplier epsilon_d, the two Fourier-coefficient
factors b(n,s) and c(n,s) of the weight-1/2 Eisenstein series at levels
M = 2^b0 p1^b1 p2^b2 (c(n, s) as a brute-force series and in closed form),
the explicit residue constant at s = 3/4, and the non-split quadratic sum S
and its contour reduction through the shifted Dirichlet series
D_psi(s, Delta).  The brute-force and closed quadratic Gauss sums and the
symmetric-square Euler factorization check are test oracles
(tests/halfint_oracle.py).

The character sums in the coefficients of D_psi are taken by orthogonality
as two congruence tests mod a', so no character group is built; both
contour forms share that one coefficient formula.  One `reduction_check`
runs either form on one contour per Y, and its dtau-halving check reads
the coarse trapezoid off every other node of that contour: one D_psi pass
per form, the lower height reading a prefix of the higher's exps.  Each
sum reads lambda_psi in one `hecke.lambda_psi` call, with no dense table.

Every real character array here (the Legendre symbols (d/p) of b_direct,
the symbols (p/d) of c(n, s) and the characters omega_t of b(n, s)) is
one period of `ideals.kronecker_table`, and b(n, s)'s two L_M series run
on one array of the l <= `_B_TRUNC` coprime to M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    STREAM_BLOCK,
    BadDecomposition,
    EvenInput,
    HypothesisViolated,
    PoleInput,
    QuadratureNonconvergent,
    TruncationInsufficient,
    WindowViolation,
)
from .hecke import HeckeSource, lambda_psi
from .ideals import kronecker, kronecker_table
from .quadfield import factorize
from .report import ExperimentReport, timed
from .weights import W_NONSPLIT


_EPSILON = np.array([0, 1, 0, 1j])  # epsilon_d = _EPSILON[d % 4] at odd d


def epsilon_d(d: int) -> complex:
    """Theta multiplier: 1 for d = 1 mod 4, i for d = 3 mod 4, negative odd
    d included, which keeps epsilon_d^2 = chi_{-4}(d)."""
    if d % 2 == 0:
        raise EvenInput(f"epsilon_d needs odd d, got {d}")
    return complex(_EPSILON[d % 4])


@dataclass(frozen=True)
class LevelData:
    M: int
    beta0: int  # 2-exponent, >= 2
    p1: int  # odd primes (0 if absent)
    p2: int
    beta1: int
    beta2: int

    @property
    def odd_primes(self) -> tuple[tuple[int, int], ...]:
        out = []
        if self.beta1:
            out.append((self.p1, self.beta1))
        if self.beta2:
            out.append((self.p2, self.beta2))
        return tuple(out)


def make_level(M: int) -> LevelData:
    fac = factorize(M)
    beta0 = fac.pop(2, 0)
    if beta0 < 2:
        raise BadDecomposition(f"M={M} must be divisible by 4")
    odd = sorted(fac.items(), key=lambda kv: -kv[0])  # larger prime first
    if len(odd) > 2 or any(p % 4 != 3 for p, _ in odd):
        raise BadDecomposition(f"M={M} must be 2^b0 p1^b1 p2^b2, p_j = 3 mod 4")
    p1, beta1 = odd[0] if len(odd) >= 1 else (0, 0)
    p2, beta2 = odd[1] if len(odd) == 2 else (0, 0)
    return LevelData(M, beta0, p1, p2, beta1, beta2)


def _decompose(n: int, odd_primes: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    """n = 2^{2a0} prod p^{2a_p} n0 with n0 an odd square coprime to the p's.
    Returns (a0, {p: a_p}); raises BadDecomposition otherwise."""
    if n <= 0:
        raise BadDecomposition(f"need n >= 1, got {n}")
    v2 = (n & -n).bit_length() - 1
    if v2 % 2:
        raise BadDecomposition(f"odd 2-adic valuation {v2} in n={n}")
    rest = n >> v2
    alphas = {}
    for p in odd_primes:
        vp = 0
        while rest % p == 0:
            rest //= p
            vp += 1
        if vp % 2:
            raise BadDecomposition(f"odd {p}-adic valuation {vp} in n={n}")
        alphas[p] = vp // 2
    r = math.isqrt(rest)
    if r * r != rest:
        raise BadDecomposition(f"cofactor {rest} of n={n} is not a square")
    return v2 // 2, alphas


def _inner_sum_weights(mp: int, d: np.ndarray) -> np.ndarray:
    """epsilon_d * (mp/d) on the odd-d grid, via multiplicativity in the top
    argument: (mp/d) = prod_p (p/d)^{kp}.  An odd power is (p/d) from
    `kronecker_table(p)`, which holds at odd d; an even power is 1 where p
    does not divide d."""
    w = _EPSILON[d % 4]
    for p, k in factorize(mp).items():
        if k % 2:
            tab = kronecker_table(p)
            w = w * tab[d % tab.size]
        elif p != 2:
            w = w * (d % p != 0)
    return w


def _level_divisors(L: LevelData, bound: int) -> list[int]:
    """All M' with M | M' | M^infty and M' <= bound, by exponent triples."""
    out = []
    k0 = L.beta0
    while 2**k0 <= bound:
        vals = [2**k0]
        for p, beta in L.odd_primes:
            nxt = []
            for v in vals:
                pv = v * p**beta
                while pv <= bound:
                    nxt.append(pv)
                    pv *= p
            vals = nxt
        out.extend(vals)
        k0 += 1
    return sorted(out)


def c_series(n: int, s: complex, L: LevelData, bound: int) -> complex:
    """Brute-force c(n, s): sum over M | M' | M^infty, M' <= bound, of the
    twisted theta Gauss sum times (M')^{-2s}. Only odd d contribute since
    (M'/d) = 0 for even d.  Each M' sums its odd d in blocks of
    `errors.STREAM_BLOCK`, the block sums added in order, so temporaries
    are the size of a block."""
    total = 0.0 + 0.0j
    for mp in _level_divisors(L, bound):
        gauss = 0.0 + 0.0j
        for d0 in range(1, mp + 1, 2 * STREAM_BLOCK):
            d = np.arange(d0, min(d0 + 2 * STREAM_BLOCK, mp + 1), 2, dtype=np.int64)
            phase = np.exp(2j * np.pi * ((n * d) % mp) / mp)
            gauss += complex(np.sum(_inner_sum_weights(mp, d) * phase))
        total += gauss * mp ** (-2 * s)
    return total


def _max_nonzero_mprime(n: int, L: LevelData) -> int:
    """Largest M' that can contribute to c(n, s) for n >= 1 of admissible
    shape, per the closed Gauss-sum support (verified independently)."""
    primes = tuple(p for p, _ in L.odd_primes)
    a0, alphas = _decompose(n, primes)
    m = 2 ** (2 * a0 + 3)
    for p, _ in L.odd_primes:
        m *= p ** (2 * alphas[p] + 1)
    return m


def c_closed(m: int, L: LevelData, s: complex = 0.75) -> complex:
    """Closed form of c(m^2, s) (m >= 1) or c(0, s) (m = 0).

    For m >= 1 this is the merged product display (exact for 2 | m; the
    brute-force series is authoritative at odd m where the merged display's
    k0-range is not derived). At s = 3/4 it reduces to
    (1+i)/2 * prod_j p_j^{-[(beta_j+1)/2]}.
    """
    if m == 0:
        return _c_closed_zero(L, s)
    fac = factorize(m)
    a0 = fac.pop(2, 0)
    f2 = sum(
        2.0 ** (-k0 * (2 * s - 1))
        for k0 in range(L.beta0 + (L.beta0 % 2), 2 * a0 + 3, 2)
    ) + math.sqrt(2) * 2.0 ** (-(2 * a0 + 3) * (2 * s - 1))
    total = (1 + 1j) / 4 * f2
    for p, beta in L.odd_primes:
        ap = fac.pop(p, 0)
        if 2 * ap + 1 < beta:
            return 0.0
        fp = sum(
            (1 - 1 / p) * float(p) ** (-k * (2 * s - 1))
            for k in range(beta + (beta % 2), 2 * ap + 1, 2)
        ) + p**-0.5 * float(p) ** (-(2 * ap + 1) * (2 * s - 1))
        total *= fp
    return total


def _c_closed_zero(L: LevelData, s: complex) -> complex:
    """c(0, s): only square M' contribute phi(M') each; geometric series in
    each exponent, starting at the smallest even exponent >= beta_j."""
    sigma = complex(s).real
    if sigma <= 0.5:
        raise PoleInput(f"c(0, s) diverges for Re(s) <= 1/2, got {s}")
    total = (1 + 1j) / 2
    for p, beta in ((2, L.beta0),) + L.odd_primes:
        e = 2 * ((beta + 1) // 2)
        ratio = float(p) ** (2 * (1 - 2 * s))
        # sum_k phi(p^{e+2k}) p^{-(e+2k)2s}, phi(p^j) = p^j (1-1/p) for j >= 1
        total *= (1 - 1 / p) * float(p) ** (e * (1 - 2 * s)) / (1 - ratio)
    return total


# ---------------------------------------------------------------------------
# b(n, s): the coprime-to-M part of the Eisenstein Fourier coefficient


def _square_part(n: int) -> tuple[int, int]:
    """n = t m^2 with t squarefree; returns (t, m)."""
    t, m = 1, 1
    for p, e in factorize(n).items():
        if e % 2:
            t *= p
        m *= p ** (e // 2)
    return t, m


def zeta_factor_at_M(L: LevelData) -> float:
    """zeta_{(M)}(1) = prod_{p|M} (1 - p^{-1})^{-1}."""
    v = 1.0
    for p, _ in ((2, L.beta0),) + L.odd_primes:
        v /= 1 - 1 / p
    return v


def zeta_away_from_M(L: LevelData) -> float:
    """zeta_M(2) = pi^2/6 prod_{p|M} (1 - p^{-2}) in closed form."""
    v = math.pi**2 / 6.0
    for p, _ in ((2, L.beta0),) + L.odd_primes:
        v *= 1 - p**-2
    return v


_B_TRUNC = 40000  # b_series' L_M sums run over l <= this
_B_QMAX = 2001  # b_direct's sum runs over odd q <= this


def b_series(n: int, s: complex, L: LevelData) -> complex:
    """Closed-form b(n, s) with the two L_M factors evaluated as truncated
    sums over the integers l <= `_B_TRUNC` coprime to M; n = 0 uses the
    ratio formula."""
    sigma = complex(s).real
    if 4 * sigma - 1 <= 1:
        raise TruncationInsufficient(f"denominator L-series diverges at s={s}")
    ell = np.arange(1, _B_TRUNC + 1)
    ell = ell[np.gcd(ell, L.M) == 1]  # the l of the L_M sums, coprime to M
    l2 = np.sum(ell ** (1.0 - 4 * s))
    if n == 0:
        if 4 * sigma - 2 <= 1:
            raise PoleInput(f"b(0, s) has a pole/divergence at s={s}")
        return (np.sum(ell ** (2.0 - 4 * s)) / l2).item()
    t, m = _square_part(n)
    if t == 1 and 2 * sigma - 0.5 <= 1:
        raise PoleInput(f"b(m^2, s) has a pole at s={s}")
    # omega_t, the primitive character of squarefree t: (disc/l) with the
    # fundamental discriminant disc = t or 4t, of period |disc|
    omega = kronecker_table(t if t % 4 == 1 else 4 * t)
    l1 = np.sum(omega[ell % omega.size] * ell ** (0.5 - 2 * s))
    mobius = {1: 1}  # mu(d) for every divisor d of m
    for p, e in factorize(m).items():
        pk = [(p**k, (1, -1, 0)[min(k, 2)]) for k in range(e + 1)]
        mobius = {d * q: mu * v for d, mu in mobius.items() for q, v in pk}
    divs = sorted(mobius)
    div = 0.0
    for l1l2 in divs:
        if math.gcd(l1l2, L.M) != 1:
            continue
        for ell1 in divs:
            mu = mobius[ell1]
            if l1l2 % ell1 or mu == 0:
                continue
            w1 = mu * omega[ell1 % omega.size] * float(ell1) ** (0.5 - 2 * s)
            div += w1 * float(l1l2 // ell1) ** (2 - 4 * s)
    return (l1 / l2 * div).item()


def b_direct(n: int, s: complex, L: LevelData) -> complex:
    """b(n, s) straight from its definition: sum over q odd coprime to M,
    q <= `_B_QMAX`, of (-1/q) epsilon_q q^{-2s} G_n((./q)). Absolutely
    convergent Re(s) > 3/4."""
    total = 0.0 + 0.0j
    for q in range(1, _B_QMAX + 1, 2):
        if math.gcd(q, L.M) != 1:
            continue
        d = np.arange(1, q + 1, dtype=np.int64)
        kr = np.ones(q, dtype=np.float64)
        for p, e in factorize(q).items():
            if e % 2:  # (d/p) = (p*/d), p* = +-p = 1 mod 4: a table of period p
                kr *= kronecker_table(p if p % 4 == 1 else -p)[d % p]
            else:
                kr *= d % p != 0
        g = complex(np.sum(kr * np.exp(2j * np.pi * ((n * d) % q) / q)))
        total += kronecker(-1, q) * epsilon_d(q) * g * float(q) ** (-2 * s)
    return total


def b_residue(n: int, L: LevelData) -> float:
    """Residue at s = 3/4: 1/(4 zeta_{(M)}(1) zeta_M(2)) for n = 0, twice
    that for square n >= 1, zero otherwise."""
    denom = 4 * zeta_factor_at_M(L) * zeta_away_from_M(L)
    if n == 0:
        return 1.0 / denom
    t, _ = _square_part(n)
    return 2.0 / denom if t == 1 else 0.0


def eisenstein_residue_const(L: LevelData) -> float:
    """pi/(4 zeta_{(M)}(1) zeta_M(2)) * prod_{j=0..2} p_j^{-[(beta_j+1)/2]}."""
    v = math.pi / (4 * zeta_factor_at_M(L) * zeta_away_from_M(L))
    for p, beta in ((2, L.beta0),) + L.odd_primes:
        v *= float(p) ** (-((beta + 1) // 2))
    return v


# ---------------------------------------------------------------------------
# The shifted Dirichlet series and the non-split sum


@dataclass(frozen=True)
class QuadPoly:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0:
            raise HypothesisViolated("need a > 0 (negate the polynomial if needed)")
        if self.Delta <= 0:
            raise HypothesisViolated(f"need Delta > 0, got {self.Delta}")

    @property
    def Delta(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def d(self) -> int:
        return math.gcd(2 * self.a, self.b)

    @property
    def a_prime(self) -> int:
        return 2 * self.a // self.d

    @property
    def b_prime(self) -> int:
        return self.b // self.d

    def value(self, n: int) -> int:
        return self.a * n * n + self.b * n + self.c


def nonsplit_sum(src: HeckeSource, Q: QuadPoly, Y: float) -> float:
    """Direct sum of lambda(Q(n)) W(Q(n)/Y) over n >= 1, W = `W_NONSPLIT`."""
    if Q.Delta > 10.0 * math.sqrt(Y):
        raise WindowViolation(f"Delta={Q.Delta} too large for Y={Y}")
    top = W_NONSPLIT.x1 * Y
    disc = Q.b * Q.b + 4 * Q.a * (top - Q.c)
    if disc < 0:
        return 0.0
    nmax = int((-Q.b + math.sqrt(disc)) / (2 * Q.a)) + 2
    vs = [Q.value(n) for n in range(1, nmax + 1)]
    ws = np.array([W_NONSPLIT(v / Y) for v in vs])
    return math.fsum((lambda_psi(src, vs) * ws)[ws != 0.0].tolist())


def _contour_t(Q: QuadPoly, second_form: bool) -> int:
    """The square t of D_psi(s, Delta): a^2 in the second form, d^2 in the first."""
    if second_form:
        if Q.b % Q.a != 0 or Q.a % 2 == 0:
            raise WindowViolation("second form needs odd a with a | b")
        return Q.a * Q.a
    return Q.d * Q.d


def _d_psi_coefficients(
    src: HeckeSource, Q: QuadPoly, N: int, second_form: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(amp, log u) with D_psi(s, Delta) = sum_{n <= N} amp_n u_n^{-s}.

    The sum over the characters chi mod a', split by parity nu, collapses by
    orthogonality (gcd(a', b') = 1) to two congruence tests:
    (1/phi(a')) sum_{chi(-1) = (-1)^nu} conj chi(b') chi(n)
    = ([n = b'] + (-1)^nu [n = -b']) / 2  (mod a').
    The second form is the first at (a', b', d) = (1, 0, 1), where both
    tests hold for every n, n = 0 included."""
    a, Delta = Q.a, Q.Delta
    t = _contour_t(Q, second_form)
    r, bp, d = (1, 0, 1) if second_form else (Q.a_prime, Q.b_prime, Q.d)

    nint = np.arange(N + 1, dtype=np.int64)
    v = t * nint * nint - Delta
    lam = np.where(v % (4 * a) == 0, lambda_psi(src, v // (4 * a)), 0.0)
    ns = nint.astype(np.float64)
    q = t * ns * ns - Delta
    u = t * ns * ns + Delta + np.abs(q)
    weight = np.full(N + 1, 2.0)
    weight[0] = 1.0
    qa = np.where(q == 0, 1.0, np.abs(q))
    phase = np.exp(1j * src.t_psi * (np.log(2 * qa) - np.log(u)))
    base = lam * weight * phase
    base[q == 0] = 0.0
    plus = (ns % r == bp % r).astype(np.float64)
    minus = (ns % r == -bp % r).astype(np.float64)
    odd_weight = ns * (math.sqrt(2) * d) / np.sqrt(u)  # n^nu (sqrt2 d)^nu u^{-nu/2}, nu = 1
    amp = base * ((plus + minus) + (plus - minus) * odd_weight) / 2
    return amp, np.log(u)


_DTAU = 0.2  # tau-step of the second form's contour; the first form's is _DTAU / 2
_HALVING_TOL = 1e-3  # a contour's move under dtau halving, relative to max(1, |value|)
_THETA = 7.0 / 64.0  # exponent of the error envelope P Delta / Y^(1/2 - theta)
_TAU_BLOCK = 8  # tau-nodes per 2-D exp of D_psi; 64 raised nonsplit's peak by 6 MB


def _contour_taus(Y: float, dtau: float) -> list[float]:
    """The contour's tau-nodes >= 0: 0, dtau, 2 dtau, ... by repeated
    addition, up to T = 10 P log Y."""
    T = 10.0 * W_NONSPLIT.sharpness * math.log(max(Y, math.e))
    taus, tau = [], 0.0
    while tau <= T:
        taus.append(tau)
        tau += dtau
    return taus


def _times(ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray):
    """The real and imaginary parts of (ar + i ai)(br + i bi), rounded as
    Python's complex product rounds them."""
    return ar * br - ai * bi, ar * bi + ai * br


def _trapezoid(nodes: list[float], values: list[complex]) -> complex:
    """The trapezoid sum of values over nodes, added in node order."""
    total = 0.0 + 0.0j
    for (tau0, f0), (tau1, f1) in itertools.pairwise(zip(nodes, values)):
        total += 0.5 * (f1 + f0) * (tau1 - tau0)
    return total


def _contour_value(
    src: HeckeSource, Q: QuadPoly, Ys: tuple, dtau: float, second_form: bool, mellin: np.ndarray
) -> list[tuple[complex, complex]]:
    """1/(4 pi i) int_(1) D_psi(s, Delta) Wtilde(s) (8aY)^s ds at each Y of
    the ascending Ys, W = `W_NONSPLIT`, by trapezoid on Re(s) = 1 at the
    tau-nodes 0, +-dtau, +-2 dtau, ... up to T = 10 P log Y (the integrand
    is not negligible there: the truncation at T is not bounded).  D_psi is
    truncated at the N with t N^2 past the W window, at least 2000.  Returns
    (fine, coarse) per Y: the trapezoid on every node, and the one on every
    other node from tau = 0 out, the same integral at step 2 dtau.

    One D_psi pass serves every Y: the exps are taken on the nodes and the
    N of the highest Y, and a lower Y reads a prefix of both (its row sums
    are the highest's where the N agree).  One N-term exp per tau >= 0
    gives D_psi at +-tau, the -tau sum as conj(sum conj(amp) e).  The exps
    run `_TAU_BLOCK` tau at a time as one 2-D array, each row summed as the
    1-D sum of its tau would be.  mellin holds Wtilde(1 + i tau) on the
    tau >= 0 nodes of the highest contour or of a higher one at the same
    dtau (Wtilde at -tau is its conjugate).  The integrand's products round
    as Python's do, and the nodes are summed in ascending tau."""
    t = _contour_t(Q, second_form)
    # terms with t n^2 beyond the W window only feed the quadrature tail
    Ns = [max(2000, int(2.0 * math.sqrt(W_NONSPLIT.x1 * 8 * Q.a * y / t)) + 10) for y in Ys]
    amp, logu = _d_psi_coefficients(src, Q, Ns[-1], second_form)
    amp_conj = np.conj(amp)
    taus = [_contour_taus(y, dtau) for y in Ys]
    plus = 1.0 + 1j * np.array(taus[-1])  # the highest's nodes tau >= 0

    # D_psi at +tau and at -tau; a Y with the highest's N reads its rows
    own = [h for h, N in enumerate(Ns) if N != Ns[-1]] + [len(Ys) - 1]
    d = {h: np.empty((2, len(taus[h])), dtype=complex) for h in own}
    for i in range(0, len(plus), _TAU_BLOCK):
        e = np.exp(-plus[i : i + _TAU_BLOCK, None] * logu)
        for h in own:
            k, n = min(_TAU_BLOCK, len(taus[h]) - i), Ns[h] + 1
            if k > 0:
                block = e[:k, :n]
                d[h][0, i : i + k] = (amp[:n] * block).sum(axis=1)
                d[h][1, i : i + k] = np.conj((amp_conj[:n] * block).sum(axis=1))

    out = []
    for h, (y, ts) in enumerate(zip(Ys, taus)):
        d_plus, d_minus = d.get(h, d[len(Ys) - 1])[:, : len(ts)]
        nodes = [-tau for tau in ts[:0:-1]] + ts
        d_psi = np.concatenate([d_minus[:0:-1], d_plus])

        # d_psi Wtilde(s) exp(s log 8aY); numpy's complex multiply may fuse
        # its products and round differently
        wt = mellin[: len(ts)]
        wt = np.concatenate([wt[:0:-1].conj(), wt])
        log8aY = math.log(8 * Q.a * y)
        theta = np.array(nodes) * log8aY
        scale = math.exp(log8aY)
        re, im = _times(d_psi.real, d_psi.imag, wt.real, wt.imag)
        re, im = _times(re, im, scale * np.cos(theta), scale * np.sin(theta))
        values = [complex(x, y) for x, y in zip(re.tolist(), im.tolist())]

        even = (len(ts) - 1) % 2  # nodes[len(ts) - 1] is tau = 0
        fine = _trapezoid(nodes, values)
        coarse = _trapezoid(nodes[even::2], values[even::2])
        out.append((fine / (4 * math.pi), coarse / (4 * math.pi)))
    return out


def reduction_check(
    src: HeckeSource, Q: QuadPoly, Y: float, second_form: bool
) -> ExperimentReport:
    """Compare the direct non-split sum against its contour representation:
    the first form at dtau/2, or the trivial-character second form (odd a
    with a | b) at dtau.  The deviation at Y is held to 3x the envelope
    c P Delta / Y^(1/2 - theta), P the sharpness of `W_NONSPLIT`, with c
    fitted to the deviation at y_ref = Y/4.  At both heights the contour
    read at twice its step must agree within `_HALVING_TOL`.  One
    `_contour_value` pass gives both heights, and Wtilde is read once from
    the Mellin table of `weights`, on the tau >= 0 nodes of the contour at
    Y (a prefix at y_ref); a Y past the table's reach is refused there,
    before any D_psi pass."""
    name = "reduction_check_second_form" if second_form else "reduction_check"
    dtau = _DTAU if second_form else _DTAU / 2
    P = W_NONSPLIT.sharpness

    def deviation(y: float, contour: tuple[complex, complex]) -> tuple[float, complex]:
        direct = nonsplit_sum(src, Q, y)
        integ, coarse = contour
        move, bound = abs(coarse - integ), _HALVING_TOL * max(1.0, abs(integ))
        if move > bound:
            raise QuadratureNonconvergent(
                f"{name} at Y = {y:g}: dtau halving moved the integral by "
                f"{move:.2e}, past the bound {bound:.2e}"
            )
        return abs(direct - integ.real), integ

    with timed() as elapsed:
        mellin = W_NONSPLIT.mellin(1.0 + 1j * np.array(_contour_taus(Y, dtau)))
        y_ref = Y / 4
        at_ref, at_Y = _contour_value(src, Q, (y_ref, Y), dtau, second_form, mellin)
        dev_ref, _ = deviation(y_ref, at_ref)
        cfit = dev_ref / (P * Q.Delta / y_ref ** (0.5 - _THETA))
        dev, integ = deviation(Y, at_Y)
        envelope = 3.0 * cfit * P * Q.Delta / Y ** (0.5 - _THETA)
    return ExperimentReport.build(
        name=name,
        parameters={"a": Q.a, "b": Q.b, "c": Q.c, "Y": Y, "y_ref": y_ref},
        computed=dev,
        reference=0.0,
        tolerance=envelope,
        runtime_seconds=elapsed(),
        mode="abs",
        envelope=envelope,
        fitted_constant=cfit,
        imag_part=abs(integ.imag),
    )
