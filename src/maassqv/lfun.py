"""Gamma factors, approximate-functional-equation weights, auxiliary
values at s=1, the leading constants of the variance asymptotics and the
Watson-Ichino assembly.

Each L-value on the variance path has one route: L(1, phi_m) is
`_l_one_phi_bulk` (one Richardson-weighted pass over the chunked view
`ideals.ideal_chunks` of the one ideal enumerator, every m at once from
the angle moments of `harmonic_sums`),
C_{D,psi} is `c_d_psi`, and the central values L(1/2, psi x phi_2k) come
in bulk from `experiments.central_values_bulk`, which reads the
norm-sorted view `ideals.ideal_scan` one norm band at a time; the
pointwise AFE sum and the sorted-scan L(1, phi_m) sum are test oracles.
Both scans hold the half window theta in [0, log eps] with a multiplicity
per ideal; the sums they feed are even under conjugation, so the values
are those of the full window up to rounding (within 2e-13 relative for
L(1, phi_m), m <= 800).

The tables lambda_psi(n), lambda_psi(a m^2) are `hecke` fills: a
segment lo <= n <= hi of lambda_psi (`lambda_psi_table`) reads the local
values that `lambda_psi_factors` draws once, so the central values fill
one norm band at a time, and the dense tables are the segments from 0.
L(1, chi_D) sums its character series in blocks of `_SUM_BLOCK` terms.
C' reads vartheta(p) and h(p^2) in one `hecke` call each;
every AFE contour (degree 4 for W, degree 2 for L(1/2, psi) and
L(1/2, psi x chi_D)) is built by `_contour_nodes` at the centre s = 1/2 on
the nodes of `_afe_line` on the line Re w = 1 (only the contour-shift
tests move it), and summed by `_contour_sum` in blocks: with
j = 32 m + r, e^{x w_j} = e^{x w_{32m}} e^{x (w_r - w_0)}, so a point costs
32 + 6 exact complex exps on the 161 nodes, and the sum stays within
1.1e-15 of sum_j |g_j| e^{x Re w_j} of the one-exp-cos-sin-per-node sum
(a test oracle).  A sum of many harmonics e^{i m x} of one coefficient
set (L(1, phi_m) in `_l_one_phi_bulk`, the s_k of the moment check of
`experiments`, n^{-it} on the line L(2w + 1, chi_D) of
`_dirichlet_l_line`) is one type-1 non-uniform FFT, `harmonic_sums`:
binned Taylor moments of the angles and one rfft per moment, so its pass
over the terms does not grow with the number of m.  The central values'
cos(k phi), whose weight changes with k, comes from the one recurrence
`phase_steps`.
log Gamma is `loggamma`, numpy on arrays for Re z > 0 (Stirling past
|z| = 10, one shift product below it), one call per contour build and per
Watson-Ichino assembly; the package imports no scipy here.
Reused values (contour nodes, the L(s, chi_D) line, L-values) are memoized by
`functools.cache` on value arguments; cached arrays are read-only.

Numeric conventions used throughout:
  - t_m = pi*m/log(eps_D) is the spectral parameter of the index-m
    dihedral form; the index passed around is m = 2k.
  - gamma(s) = pi^{-2s} prod_{+-,+-} Gamma((s +- i t_psi +- i t_2k)/2).
  - All truncated Dirichlet series use a smooth exponential cutoff
    e^{-n/X}; the cutoff's Mellin corrections are applied where the
    shifted values are available in closed form and reported otherwise.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    PoleInput,
    QuadratureNonconvergent,
    TruncationInsufficient,
)
from .hecke import (
    HeckeSource,
    check_fill,
    fill_segment,
    h_fn,
    local_factors,
    multiplicative_fill,
    primes_upto,
    vartheta,
)
from .ideals import ideal_chunks, kronecker_table
from .quadfield import FieldParams, factorize


_LG_SHIFT = 10  # |z| below which `loggamma` shifts z by the recurrence
# B_2n / (2n (2n - 1)), n = 1..8: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def loggamma(z) -> np.ndarray:
    """log Gamma(z) for Re z > 0, elementwise over an array (complex128).

    Where |z| >= `_LG_SHIFT` this is the Stirling series
    (z - 1/2) log z - z + log(2 pi)/2 + sum_n B_2n / (2n (2n - 1) z^(2n-1)),
    n <= 8, whose next term is below 2e-18 there; below it, z + 10 takes the
    series and log(z (z + 1) .. (z + 9)) is subtracted.  Only the small
    points are shifted: the product's log costs phase accuracy at large
    |Im z|.  The imaginary part can differ from the principal branch by a
    multiple of 2 pi; every caller takes a real part or an exp.  Against
    `scipy.special.loggamma` on Re z in [0.25, 1.5], |Im z| <= 2000 the
    real part agrees to 1.2e-14 and the phase to 4.7e-15, relative to
    max(1, |value|); scipy agrees with mpmath to the same size."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _LG_SHIFT
    zs = np.where(small, z + _LG_SHIFT, z)
    r = 1.0 / zs
    r2 = r * r
    series = np.full_like(zs, _STIRLING[-1])
    for coef in _STIRLING[-2::-1]:
        series = series * r2 + coef
    out = (zs - 0.5) * np.log(zs) - zs + 0.5 * math.log(2.0 * math.pi) + r * series
    if small.any():
        zsm = z[small]
        prod = zsm.copy()
        for j in range(1, _LG_SHIFT):
            prod *= zsm + j
        out[small] -= np.log(prod)
    return out


def spectral_parameter(F: FieldParams, m: int) -> float:
    """t_m = pi * m / log eps_D for the index-m dihedral form."""
    return math.pi * m / F.log_eps


def classical_variance(t_psi: float) -> float:
    """|Gamma(1/4 + i t_psi/2)|^4 / (2 pi |Gamma(1/2 + i t_psi)|^2)."""
    lg_quarter, lg_half = loggamma([0.25 + 0.5j * t_psi, 0.5 + 1j * t_psi]).real.tolist()
    return math.exp(4.0 * lg_quarter - 2.0 * lg_half) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Dense lambda_psi tables (numpy): multiplicative fills.


def lambda_psi_factors(
    src: HeckeSource, nmax: int, F: FieldParams | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The `hecke.local_factors` of lambda_psi to nmax: lambda_psi(p^b) by
    the Hecke recursion on one draw of lambda_psi(p) per prime.

    With F, the factors of lambda_psi(n) [n is an ideal norm of F]: an
    inert p (chi_D(p) = -1) divides an ideal norm to an even power only, so
    its odd powers get 0 and are not drawn.  lambda_psi(p) is then drawn for
    every p <= sqrt(nmax) and for the p above it that are not inert, and
    each ideal norm keeps its value bit for bit."""
    local = src.lambda_pp_array
    if F is not None:
        chi = kronecker_table(F.D)

        def local(primes: np.ndarray, b: int) -> np.ndarray:
            out = np.zeros(primes.size)
            keep = chi[primes % F.D] != -1.0 if b % 2 else slice(None)
            out[keep] = src.lambda_pp_array(primes[keep], b)
            return out

    return local_factors(nmax, local)


def lambda_psi_table(
    src: HeckeSource,
    nmax: int,
    lo: int = 0,
    factors: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> np.ndarray:
    """Table [lambda_psi(lo) .. lambda_psi(nmax)]: a segment of the
    multiplicative fill of the Hecke values lambda_psi(p^b), dense from 0
    by default.  `factors` are those of `lambda_psi_factors` to a bound
    >= nmax, drawn once for many segments; without them every prime to
    nmax is drawn here, after `hecke.check_fill` admits the fill."""
    if factors is None:
        check_fill(nmax, nmax - lo + 1)
        factors = lambda_psi_factors(src, nmax)
    return fill_segment(factors, lo, nmax)


def lambda_square_table(src: HeckeSource, m_max: int, a: int = 1) -> np.ndarray:
    """Dense table [lambda_psi(a * 0^2) .. lambda_psi(a * m_max^2)] (index 0
    unused, 0.0): the fill of lambda_psi(p^{v_p(a) + 2b}) over m, times
    lambda_psi(p^{v_p(a)}) where p | a does not divide m."""
    a_exp = factorize(a)

    def local(primes: np.ndarray, b: int) -> np.ndarray:
        v = src.lambda_pp_array(primes, 2 * b)
        for q, e in a_exp.items():
            i = int(np.searchsorted(primes, q))
            if i < primes.size:
                v[i] = src.lambda_pp_array(primes[i : i + 1], e + 2 * b)[0]
        return v

    out = multiplicative_fill(m_max, local)
    m = np.arange(m_max + 1)
    for q, e in a_exp.items():
        out[m % q != 0] *= src.lambda_pp_array(np.array([q]), e)[0]
    return out


# ---------------------------------------------------------------------------
# Approximate functional equation weight.


_SUM_BLOCK = 1 << 16  # terms per block of the L(1, chi_D) series
_EULER_P_MAX = 30000  # the C' Euler product of `constants` runs over p <= this

_AFE_IM_CUTOFF = 8.0
_AFE_STEP = 0.05
_RESEED = 32  # steps between re-seeds of `phase_steps`; `_contour_sum`'s block


def phase_steps(x: np.ndarray, ms: range) -> Iterator[np.ndarray]:
    """Yield cos(m x) for each m of the unit-step range ms: the cos(k phi)
    that `experiments.central_values_bulk` weights with the k-dependent AFE
    weight.  Sums of many m with one coefficient set are `harmonic_sums`.

    f(m + 1) = 2 cos(x) f(m) - f(m - 1); the first two m of ms, and two in
    every `_RESEED`, are np.cos(m x).  A recurrence step writes into the
    array of two steps before (a seed is a new array), so a yielded array
    holds through the next step only.  Against np.cos(m x) the values differ
    by at most 5e-11 absolute at m <= 1600: the seeds' argument rounding,
    carried across up to `_RESEED` steps."""
    prev = cur = nxt = two_cos = None
    for j, m in enumerate(ms):
        if j % _RESEED < 2:
            nxt = np.cos(m * x)
        else:
            if j == 2:
                two_cos = 2.0 * np.cos(x)
            nxt = np.multiply(two_cos, cur, out=nxt)  # out=None on the first one
            np.subtract(nxt, prev, out=nxt)
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _afe_line(c: float) -> np.ndarray:
    """The trapezoid nodes w = c + i tau, tau = 0, 0.05, .., 8, on the upper
    half of the contour Re w = c.  Lines right of 1 lose accuracy (the
    contour self-check is 4e-7 at c = 1.5), so 0 < c <= 1."""
    if not 0.0 < c <= 1.0:
        raise ValueError("the contour line needs 0 < c <= 1")
    return c + 1j * np.arange(0.0, _AFE_IM_CUTOFF + _AFE_STEP / 2, _AFE_STEP)


@functools.cache
def _dirichlet_l_line(F: FieldParams, c: float) -> np.ndarray:
    """L(2w + 1, chi_D), Re(2w + 1) >= 2, at the contour nodes w of the line
    c: 40,000 terms, tail << |2w + 1| D / 40000^2 by partial summation.  It
    does not depend on k, so one cached line serves every AFE weight at
    (F, c).  The nodes share one real part sigma, so chi_D(n) n^{-sigma} is
    formed once; node j sits at t = Im(2w + 1) = 2 j `_AFE_STEP`, so n^{-it}
    is e^{-i j x}, x = 2 `_AFE_STEP` log n in [0, pi], and the line is the
    conjugate of the `harmonic_sums` of the real coefficients at m = j."""
    n = np.arange(1, 40001)
    logn = np.log(n)
    s_nodes = 2.0 * _afe_line(c) + 1.0
    coef = kronecker_table(F.D)[n % F.D] * np.exp(-s_nodes[0].real * logn)
    out = harmonic_sums([(2.0 * _AFE_STEP * logn, coef)], range(s_nodes.size)).conj()
    out.setflags(write=False)
    return out


def _contour_nodes(
    shifts: Sequence[complex],
    l_field: FieldParams | None = None,
    c: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(w_nodes, g_nodes) on the upper half of the contour Re w = c, where
    g(w) = gamma(s+w)/gamma(s) * e^{w^2} * trapezoid weight / w at the
    centre s = 1/2, times L(2w+1, chi_D) when l_field is given, and
    gamma(s) = pi^{-ds/2} prod_j Gamma((s + mu_j)/2) over the d shifts mu_j.
    The x-dependence x^w of the weight is applied by `_contour_sum`."""
    s = 0.5
    w = _afe_line(c)
    pi_pow = -0.5 * len(shifts)
    ln_pi = math.log(math.pi)
    log_g0 = pi_pow * complex(s) * ln_pi
    lg = pi_pow * (s + w) * ln_pi
    # one log Gamma call: per shift, the centre and then every node
    at = s + np.concatenate(([0.0], w))
    for row in loggamma((at[None, :] + np.asarray(shifts)[:, None]) / 2.0):
        log_g0 += row[0]
        lg += row[1:]
    g = np.exp(lg - log_g0 + w * w) / w
    if l_field is not None:
        g *= _dirichlet_l_line(l_field, c)
    # endpoint must be negligible for the trapezoid tail to be safe
    ref = max(abs(g[0]), 1.0)
    if abs(g[-1]) > 1e-10 * ref:
        raise QuadratureNonconvergent(
            f"contour tail {abs(g[-1]):.2e} not below 1e-10 x {ref:.2e}"
        )
    g[0] *= 0.5
    g[-1] *= 0.5
    return w, g * (_AFE_STEP / math.pi)


def _contour_sum(logx: np.ndarray, w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Re sum_j e^{x w_j} g_j for each entry x of logx, on the equally spaced
    nodes w_j = w_0 + j (w_1 - w_0) of a contour line.

    With j = R m + r, R = `_RESEED` (or the node count, when smaller), and
    g padded with zeros to a whole number of blocks,
        e^{x w_j} = S_m(x) B_r(x),  S_m = e^{x w_{Rm}},  B_r = e^{x (w_r - w_0)},
    so the sum is Re sum_m S_m sum_r B_r g_{Rm+r}: R + ceil(n/R) complex
    np.exp per point (38 on the 161-node line of `_afe_line`), each exact,
    with no recurrence.  Both contractions are `np.einsum` (a fixed order,
    where a BLAS product's order follows its thread count), and the rows run
    in chunks that bound the temporaries.  The product S_m B_r carries the
    phase x (tau_{Rm} + tau_r) in place of x tau_{Rm+r}; against one exp, cos
    and sin per node (`tests/lfun_oracle.contour_sum_per_node`) the values
    differ by at most 1.1e-15 of sum_j |g_j| e^{x Re w_j}, observed on the W
    lines of D = 21, 33, 77, k = 3..1000, c = 0.5, 1 and
    log x in [-20, 1.5 log D + 2]."""
    R = min(_RESEED, w.size)
    blocks = -(-w.size // R)
    padded = np.zeros(blocks * R, dtype=np.complex128)
    padded[: g.size] = g
    gb = padded.reshape(blocks, R).T  # gb[r, m] = g_{Rm + r}
    seeds, steps = w[::R], w[:R] - w[0]
    out = np.empty(logx.size)
    chunk = max(1, (1 << 22) // padded.size)
    for i0 in range(0, logx.size, chunk):
        lx = logx[i0 : i0 + chunk, None]
        inner = np.einsum("nr,rm->nm", np.exp(lx * steps), gb)
        out[i0 : i0 + chunk] = np.einsum("nm,nm->n", np.exp(lx * seeds), inner).real
    return out


@functools.cache
def _afe_nodes(F: FieldParams, k: int, t_psi: float) -> tuple[np.ndarray, np.ndarray]:
    """The contour nodes of the AFE weight W on the line Re w = 1: the four
    Gamma shifts i(+-t_psi +- t_2k) and the line L(2w+1, chi_D)."""
    t2k = spectral_parameter(F, 2 * k)
    shifts = [1j * (e1 * t_psi + e2 * t2k) for e1 in (1.0, -1.0) for e2 in (1.0, -1.0)]
    w, g = _contour_nodes(shifts, F)
    w.setflags(write=False)
    g.setflags(write=False)
    return w, g


def afe_weight_many(xis: np.ndarray, F: FieldParams, k: int, t_psi: float) -> np.ndarray:
    """W(xi), the smoothed-cutoff weight of the AFE at the centre s = 1/2,
    for an array of positive xi: W(xi) -> L(1, chi_D) as xi -> 0, rapid
    decay once xi k^2 >> D^{3/2}."""
    if k == 0:
        raise PoleInput("k = 0 has no cuspidal dihedral form")
    w, g = _afe_nodes(F, abs(k), t_psi)
    xis = np.asarray(xis, dtype=np.float64)
    if np.any(xis <= 0):
        raise ValueError("xi must be positive")
    logx = 1.5 * math.log(F.D) - np.log(xis) - 2.0 * math.log(abs(k))
    return _contour_sum(logx, w, g)


# ---------------------------------------------------------------------------
# Values at s = 1 and on the central line for the constants.


def zeta_d_two(F: FieldParams) -> float:
    """zeta_D(2) = zeta(2) (1 - p1^{-2})(1 - p2^{-2}) in closed form."""
    return (math.pi**2 / 6.0) * (1.0 - F.p1**-2) * (1.0 - F.p2**-2)


@functools.cache
def dirichlet_l_one(F: FieldParams) -> float:
    """L(1, chi_D) by smoothed character sum at the cutoff X = 20,000; the
    exponential cutoff's Mellin corrections vanish to O(X^{-4}) for even
    chi_D except the X^{-2} L(-1, chi_D)/2 term, which is added in closed
    form.  The sum converges outright, so this cutoff is exact to machine
    precision.  Its 800,000 terms are summed in blocks of `_SUM_BLOCK`,
    the block sums added in order, so temporaries are the size of a
    block."""
    X = 20000.0
    N = int(40 * X)
    chi = kronecker_table(F.D)
    S = 0.0
    for n0 in range(1, N + 1, _SUM_BLOCK):
        n = np.arange(n0, min(n0 + _SUM_BLOCK, N + 1))
        terms = chi[n % F.D]
        terms /= n
        cut = np.divide(n, -X)
        terms *= np.exp(cut, out=cut)
        S += float(np.sum(terms))
        del n, terms, cut  # not alive next to the next block's
    # L(-1, chi) = -B_{2,chi}/2 with B_{2,chi} = D sum_a chi(a) B_2(a/D)
    a = np.arange(F.D)
    b2 = (a / F.D) ** 2 - (a / F.D) + 1.0 / 6.0
    l_minus1 = -0.5 * F.D * float(np.sum(chi[a % F.D] * b2))
    return S - 0.5 * l_minus1 / X**2


_BINS_MAX = 1 << 13  # most bins of `harmonic_sums`: a bincount costs O(bins) per chunk
# pi = _PI_1 + _PI_2 to 4.1e-21 (fdlibm's pio2_1 and pio2_2, doubled); each
# has at most 33 significant bits, so its product with a bin centre over pi
# (at most 15 bits) is exact
_PI_1, _PI_2 = 3.1415926534682512, 1.2154201012607932e-10


def harmonic_sums(chunks: Iterable[tuple[np.ndarray, np.ndarray]], ms: Sequence[int]) -> np.ndarray:
    """sum_i coef_i e^{i m x_i} (complex) for each signed m of ms (any
    order, repeats allowed) over the (x, coef) chunks, x in [0, pi]: every m
    from one set of angle moments, a type-1 non-uniform FFT (Dutt-Rokhlin).

    [0, pi] is cut into B bins of width h = pi/B with centres
    c_b = (b + 1/2) h, B the least power of two past 16 max|m| and at most
    `_BINS_MAX`; x = pi falls in the last bin.  Chunk by chunk, in order,
    one `np.bincount` per p adds M_p[b] = sum_{x_i in bin b} coef_i u_i^p
    with u = (x - c_b)/(h/2) in [-1, 1], p = 0..P, where P is the least
    order whose Taylor remainder r^{P+1}/(P+1)!, r = max|m| h/2, is at most
    2^-53.  One `np.fft.rfft` of length 2B per p gives
    sum_b M_p[b] e^{i m b h} = conj(rfft_p[m]) (m modulo 2B, read by
    conjugate symmetry past B), and
        sum_i coef_i e^{i m x_i} = e^{i m h/2} sum_p (i m h/2)^p/p! conj(rfft_p[m]).
    So the work is O(terms P + P B log B), not O(terms #m).  x - c_b is
    taken against the two-part pi _PI_1 + _PI_2, so each term's angle is x
    itself to an ulp of h, whatever m (one e^{i m x} of the rounded m x is
    off by an ulp of m x).  Every sum runs in a fixed order, so a
    recomputation is bit-identical."""
    m = np.asarray(ms, dtype=np.int64)
    m_max = int(np.abs(m).max())
    bins = min(_BINS_MAX, 1 << (16 * m_max).bit_length())
    half = 0.5 * math.pi / bins  # h/2
    r = m_max * half
    order, remainder = 0, r
    while remainder > 2.0**-53:
        order += 1
        remainder *= r / (order + 1)
    moments = np.zeros((order + 1, bins))
    for x, coef in chunks:  # in place: a chunk holds three arrays of its own
        b = (x * (bins / math.pi)).astype(np.int64)
        np.minimum(b, bins - 1, out=b)
        centre = b + 0.5
        centre /= bins  # c_b / pi
        u = centre * _PI_1
        np.subtract(x, u, out=u)
        centre *= _PI_2
        u -= centre
        del centre
        u /= half
        w = np.array(coef, dtype=float)
        for p in range(order + 1):
            if p:
                w *= u
            moments[p] += np.bincount(b, w, minlength=bins)
        del x, coef, b, u, w  # nothing of this chunk is held while the next is made
    spec = np.fft.rfft(moments, 2 * bins)
    j = m % (2 * bins)
    far = j > bins
    vals = spec[:, np.where(far, 2 * bins - j, j)]
    vals = np.where(far, vals, vals.conj())
    z = 1j * half * m
    acc = vals[order]
    for p in range(order - 1, -1, -1):  # Horner in z = i m h/2
        acc = vals[p] + acc * z / (p + 1)
    return np.exp(z) * acc


@functools.cache
def _l_one_phi_bulk(
    F: FieldParams, ms: tuple[int, ...], X: float = 4.0e5
) -> Mapping[int, float]:
    """{m: L(1, phi_m)} (read-only) for the m in ms, from one unsorted pass
    over the ideals with |N| <= 25 X.

    L(1, phi_m) is the sum over ideals of (2 e^{-N/X} - e^{-2N/X}) cos(m x)/N
    with x = pi theta/log eps (the Richardson weight of `l_one_phi`).
    Conjugation maps x to 2 pi - x and leaves cos(m x) as it is, so the sum
    runs over the half window of `ideal_chunks`, x in [0, pi], each ideal's
    weight times its multiplicity.  The ideals come chunk by chunk, in
    row-major order, each chunk's weight is formed once, and
    `harmonic_sums` takes every m from the one pass."""
    distinct = sorted(set(ms))

    def terms() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for norms, thetas, mults in ideal_chunks(F, int(25 * X)):
            w = np.exp(-norms / X)
            coef = (2.0 * w - w * w) / norms * mults
            del w
            yield thetas * (math.pi / F.log_eps), coef
            del coef

    return MappingProxyType(dict(zip(distinct, harmonic_sums(terms(), distinct).real.tolist())))


def l_one_phi(F: FieldParams, m: int) -> float:
    """L(1, phi_m) = sum lambda_m(n)/n, smoothed; m = 2k, k != 0.

    The exponential cutoff leaves Mellin corrections X^{-j} L(1-j, phi_m)/j!
    with |L(1-j)| of size (t_m sqrt(D)/2pi)^{2j-1}; the j=1 term is removed
    by Richardson extrapolation between cutoffs X and X/2 (the weight
    2 e^{-n/X} - e^{-2n/X} of `_l_one_phi_bulk`), and X is scaled with the
    conductor, X = max(20000, 8 (t_m sqrt(D)/2pi)^2), so the j>=2 terms
    stay small."""
    if m == 0:
        raise PoleInput("phi_0 is not cuspidal: L(1, phi_0) has a pole")
    scale = (spectral_parameter(F, abs(m)) * math.sqrt(F.D) / (2.0 * math.pi)) ** 2
    return _l_one_phi_bulk(F, (abs(m),), max(20000.0, 8.0 * scale))[abs(m)]


@functools.cache
def l_one_sym2(src: HeckeSource, F: FieldParams, X: float) -> float:
    """L(1, sym^2 psi) = zeta_D(2) * sum_n lambda_psi(n^2)/n (smoothed).

    The identity sum lambda(n^2) n^{-s} = L(s, sym^2 psi)/zeta_D(2s) holds
    with the ramified model lambda_psi(p) = +-p^{-1/2} at p | D, whose
    squares give the local factor (1 - p^{-s-1})^{-1} on the sym^2 side.
    """
    if X < 100:
        raise TruncationInsufficient("cutoff X too small")
    N = int(math.isqrt(int(40 * X)))
    m = np.arange(1, N + 1)
    vals = lambda_square_table(src, N)[1:]
    return zeta_d_two(F) * float(np.sum(vals / m * np.exp(-m * m / X)))


@functools.cache
def _gl2_central(src: HeckeSource, F: FieldParams, twist_by_chi: bool) -> float:
    """Desk-scale L(1/2, psi) (or L(1/2, psi x chi_D)): one-sided
    approximate functional equation 2 sum lambda(n) chi(n) n^{-1/2} V(n)
    assuming root number +1 (a -1 root number drives the sum itself to 0),
    V on the line Re w = 1."""
    q = float(F.D * F.D) if twist_by_chi else float(F.D)
    t = src.t_psi
    w, g = _contour_nodes((1j * t, -1j * t))
    N = int(200.0 * math.sqrt(q) * max(1.0, t))
    lpsi = lambda_psi_table(src, N)
    if twist_by_chi:
        lpsi = lpsi * kronecker_table(F.D)[np.arange(N + 1) % F.D]
    n = np.arange(1, N + 1)
    V = _contour_sum(0.5 * math.log(q) - np.log(n), w, g)
    return 2.0 * float(np.sum(lpsi[1:] / np.sqrt(n) * V))


def ramified_sum_factor(src: HeckeSource, F: FieldParams) -> float:
    """1 + lambda(p1)/sqrt(p1) + lambda(p2)/sqrt(p2) + lambda(D)/sqrt(D);
    equals (1 + lambda(p1)/sqrt(p1))(1 + lambda(p2)/sqrt(p2)) under the
    multiplicative ramified model."""
    l1 = src.lambda_p(F.p1)
    l2 = src.lambda_p(F.p2)
    return (
        1.0
        + l1 / math.sqrt(F.p1)
        + l2 / math.sqrt(F.p2)
        + l1 * l2 / math.sqrt(F.D)
    )


def c_d_psi(src: HeckeSource, F: FieldParams, X: float) -> float:
    """C_{D,psi} = 2 L(1, chi_D)/zeta_D(2) L(1, sym^2 psi) (1 + ramified sums),
    with L(1, sym^2 psi) at the cutoff X."""
    return (
        2.0
        * dirichlet_l_one(F)
        / zeta_d_two(F)
        * l_one_sym2(src, F, X)
        * ramified_sum_factor(src, F)
    )


def constants(F: FieldParams, src: HeckeSource) -> dict:
    """The two leading constants of the variance asymptotics:
      C_Dpsi_prime = Euler product over p <= `_EULER_P_MAX` coprime to D
                     times prod_{p|D}(1-1/p)^2
      A_h          = L(1/2,psi) L(1/2,psi x chi_D) pi log(eps)
                     / (2 D^2 zeta_D(2) L(1,chi_D)) * (1 + ramified sums)
    The C' Euler product truncation error is reported under
    'C_Dpsi_prime_tail' (relative)."""
    l1chi = dirichlet_l_one(F)
    zd2 = zeta_d_two(F)
    ram = ramified_sum_factor(src, F)

    # at a prime p coprime to D, r_D(p) = 1 + chi_D(p)
    primes = primes_upto(_EULER_P_MAX)
    primes = primes[F.D % primes != 0]
    chis = kronecker_table(F.D)[primes % F.D]
    ths = vartheta(src, primes)
    rds = 1.0 + chis
    hs = np.zeros(primes.size)  # h(p^2), dropped above p = 500: |h(p^2)| <= 6/p^{...}
    hs[primes <= 500] = h_fn(src, F, primes[primes <= 500] ** 2)
    log_prod = 0.0
    for p, th, rd, chi, h in zip(*(v.tolist() for v in (primes, ths, rds, chis, hs))):
        term = -2.0 * th * rd * p**-1.5 + 2.0 * th * rd * chi * p**-2.5 + p**-5.0
        term += (3.0 * chi + h) / p**3
        log_prod += math.log1p(term)
    c_prime = math.exp(log_prod) * (1.0 - 1.0 / F.p1) ** 2 * (1.0 - 1.0 / F.p2) ** 2
    tail = 16.0 / (math.sqrt(_EULER_P_MAX) * math.log(_EULER_P_MAX))

    a_h = (
        _gl2_central(src, F, False)
        * _gl2_central(src, F, True)
        * math.pi
        * F.log_eps
        / (2.0 * F.D**2 * zd2 * l1chi)
        * ram
    )
    return {"C_Dpsi_prime": c_prime, "A_h": a_h, "C_Dpsi_prime_tail": tail}


# ---------------------------------------------------------------------------
# Watson-Ichino assembly.


def nu_index(n: int) -> int:
    """nu(n) = n prod_{p|n} (1 + 1/p)."""
    v = n
    for p in factorize(n):
        v += v // p
    return v


def watson_ichino_mu2(
    F: FieldParams,
    src: HeckeSource,
    k: int,
    l_half_cross: float,
    l_sym2_val: float,
) -> float:
    """L(1, phi_2k)^2 |mu_k(psi)|^2 assembled from completed L-values:
    1/(8 sqrt(D) nu(D/D1)) * La(1/2,psi) La(1/2,psi x chi_D) La(1/2,psi x phi_2k)
    / (La(1,sym2 psi) La(1,chi_D)^2 G(1,phi_2k)^2), with D1 = level of psi and
    G(1,phi_2k) the archimedean factor of La(1,phi_2k): Watson-Ichino's
    |mu_k|^2 carries 1/L(1, phi_2k)^2, and the finite L(1, phi_2k)^2 that the
    weighted variance Q^h multiplies back is left out.

    l_half_cross = L(1/2, psi x phi_2k) and l_sym2_val = L(1, sym^2 psi) are
    computed by the caller (in bulk, at matched cutoffs).  Odd psi gives
    exactly 0."""
    if src.parity == "odd":
        return 0.0
    if k == 0:
        raise PoleInput("k = 0 has no cuspidal dihedral form")
    D = F.D
    t = src.t_psi
    t2k = spectral_parameter(F, 2 * abs(k))
    ln_pi = math.log(math.pi)

    # the archimedean factors of numerator and denominator individually
    # underflow (e^{-pi t_2k/2} scale) at large k: assemble the whole
    # ratio in log-magnitude space, tracking signs of the L-values
    v_psi = _gl2_central(src, F, False)
    v_cross = _gl2_central(src, F, True)
    l_chi = dirichlet_l_one(F)
    finite = (v_psi, v_cross, l_half_cross, l_sym2_val, l_chi)
    if any(v == 0.0 for v in finite):
        return 0.0
    sign = 1.0
    log_mag = 0.0
    for v in (v_psi, v_cross, l_half_cross):
        sign *= math.copysign(1.0, v)
        log_mag += math.log(abs(v))
    for v, mult_pow in ((l_sym2_val, 1), (l_chi, 2)):
        sign *= math.copysign(1.0, v) ** mult_pow
        log_mag -= mult_pow * math.log(abs(v))
    # conductor powers: D^{1/4} D^{1/2} D^{3/4} / (D * D * D) / sqrt(D)
    log_mag += (0.25 + 0.5 + 0.75 - 1.0 - 1.0 - 1.0 - 0.5) * math.log(D)
    # gamma factors, from one log Gamma call: Gamma((1/2 + i t)/2), the four
    # Gamma((1/2 +- i t +- i t_2k)/2), Gamma((1 + 2 i t)/2), Gamma(1/2) and
    # Gamma((1 + i t_2k)/2)
    lg_psi, *lg_cross, lg_sym2, lg_half, lg_phi = loggamma(
        [(0.5 + 1j * t) / 2.0]
        + [(0.5 + 1j * (e1 * t + e2 * t2k)) / 2.0 for e1 in (1.0, -1.0) for e2 in (1.0, -1.0)]
        + [(1.0 + 2j * t) / 2.0, 0.5, (1.0 + 1j * t2k) / 2.0]
    ).real.tolist()
    log_mag += 2.0 * (-0.5 * ln_pi + 2.0 * lg_psi)  # psi and psi x chi_D
    log_mag += -2.0 * 0.5 * ln_pi + sum(lg_cross)  # |gamma(1/2, psi x phi_2k)|
    log_mag -= -1.5 * ln_pi + 2.0 * lg_sym2 + lg_half  # sym^2 at 1
    log_mag -= 2.0 * (-0.5 * ln_pi + lg_half)  # chi_D at 1, squared
    log_mag -= 2.0 * (-1.0 * ln_pi + 2.0 * lg_phi)  # phi_2k at 1, squared
    d1 = src.level
    log_mag -= math.log(8.0 * nu_index(D // d1))
    return sign * math.exp(log_mag)
