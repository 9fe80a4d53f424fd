"""Desk-scale numerical experiments: Poisson summation on ideal angles,
diagonal isolation, first moments of Rankin-Selberg central values,
variance assembly, Dirichlet-polynomial and moment-inequality checks,
and non-split decay scans.  Every operation returns an ExperimentReport.

Reused results (the matched cutoff, bulk central values) are memoized by
`functools.cache` on their value arguments, as are `lfun`'s L-values; the
ideal scan itself is not cached.  All loops run in a fixed (ascending)
order so results are bit-for-bit reproducible.  Variance and expected
value share one per-k Watson-Ichino loop, whose values already carry
L(1, phi_2k)^2: Q^h sums them as they are, and only the unweighted Q and
the expected value divide by the bulk L(1, phi_2k) of
`lfun._l_one_phi_bulk`.  Tables and primes come from `hecke`'s fill and
sieve.

The central values L(1/2, psi x phi_2k) of every k come from one pass over
the norms in bands of about `_CV_BAND` ideals: bands outside, k inside.
Each band is scanned (`ideals.ideal_scan`) and its lambda_psi segment
filled (`lfun.lambda_psi_table`, from one draw of lambda_psi(p) per run)
on its own, and cos(k phi) comes from `lfun.phase_steps`, so memory is set
by one band and not by K, and no k recomputes a cosine over its whole
cut.  The moment inequality takes its s_k for every k from one
`lfun.harmonic_sums`, as L(1, phi_2k) does.
The scan hands out the angle x = pi theta/log eps on the half window
[0, pi] (`ideals`), and phi = 2x: each ideal's term is even under
conjugation and counts with its multiplicity, so the values are those of
the full window up to rounding (within 2e-13 of max_k |L_k| at D = 21,
K <= 100).
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import ALLOC_BYTES_MAX, HypothesisViolated, TableBoundExceeded, TruncationInsufficient
from .halfint import QuadPoly, nonsplit_sum
from .hecke import HeckeSource, check_fill, h_fn, multiplicative_fill, primes_upto, vartheta
from .ideals import (
    _check_scan,
    _scan_bytes,
    ideal_scan,
    kronecker_table,
    lambda_k,
    lambda_k_table,
)
from .lfun import (
    _l_one_phi_bulk,
    afe_weight_many,
    c_d_psi,
    constants,
    classical_variance,
    dirichlet_l_one,
    harmonic_sums,
    l_one_phi,
    l_one_sym2,
    lambda_psi_factors,
    lambda_psi_table,
    lambda_square_table,
    phase_steps,
    watson_ichino_mu2,
    zeta_d_two,
)
from .quadfield import FieldParams, QuadInt, angle, canonical_generator
from .report import ExperimentReport, timed
from .weights import PHI

_EULER_GAMMA = 0.5772156649015329

_K_DESK = 2000  # the desk scale: no k or K past it is summed
_AFE_MULT = 4.0  # each central value truncates its AFE series at _AFE_MULT k^2 D^{3/2}

# each check's fixed tolerance
_POISSON_TOL = 1e-6  # poisson_check: relative deviation of the two sides
_DIAGONAL_TOL = 0.05  # diagonal_check: ratio
_FIRST_MOMENT_TOL = 0.25  # first_moment at n = 1: ratio
_TWISTED_MOMENT_TOL = 0.30  # first_moment at a twist n > 1: ratio
_VARIANCE_TOL = 0.3  # variance_table: ratio
_DIRICHLET_POLY_TOL = 1e-3  # dirichlet_poly_check: absolute
_MOMENT_BOUND_SLACK = 0.1  # moment_bound_check: one-sided ratio
_DECAY_SLACK = 0.1  # nonsplit_decay_scan: largest rise of |S(Y)|/sqrt(Y)
_EV_ENVELOPE = 10.0  # expected_value passes while E <= 10 K^{-1/2}
# peak bytes per n of dirichlet_poly_check: the convolution's mu table and
# five x-long 8-byte temporaries; tracemalloc read 48.0 B/n at x = 1e6 and 1e7
_POLY_BYTES = 48
_FOURIER_NODES = 1 << 16  # trapezoid intervals of _fourier_many
_POISSON_TERMS = 20  # the dual sum of poisson_check runs over |l| <= this
_DIAGONAL_TWISTS = (1, 2, 3, 5, 11)  # the a of the `diagonal` command's checks
_MOMENT_BOUND_POWERS = (1, 2)  # the r of the `moment-bound` command's checks
_MOMENT_BOUND_X = 40.0  # the primes p <= x of the `moment-bound` command's sums


def _fourier_many(xis: np.ndarray) -> np.ndarray:
    """integral of Phi(x) e(-xi x) dx on an array of xi by dense trapezoid;
    all derivatives of Phi vanish at the endpoints, so the rule converges
    superalgebraically once the oscillation is resolved (needs
    _FOURIER_NODES >> |xi| (x1-x0))."""
    x = np.linspace(PHI.x0, PHI.x1, _FOURIER_NODES + 1)
    wv = np.array([PHI(float(t)) for t in x.tolist()])
    h = (PHI.x1 - PHI.x0) / _FOURIER_NODES
    wv[0] *= 0.5
    wv[-1] *= 0.5
    phase = -2.0 * math.pi * np.asarray(xis)[:, None] * x[None, :]
    return (wv[None, :] * (np.cos(phase) + 1j * np.sin(phase))).sum(axis=1) * h


# ---------------------------------------------------------------------------
# Poisson summation on the angle coordinate.


def poisson_check(F: FieldParams, beta: QuadInt, K: float) -> ExperimentReport:
    """sum_k e(k theta/log eps) F(k/K) against K sum_l F^(K(l - theta/log eps)):
    the two sides of Poisson summation for the frequency sum attached to the
    principal ideal (beta).  The report carries the relative deviation."""
    if not K >= 50:
        raise HypothesisViolated(f"poisson_check needs K >= 50, got {K}")
    k_lo, k_hi = _k_window(K)
    with timed() as elapsed:
        theta = angle(F, canonical_generator(F, beta))
        alpha = theta / F.log_eps  # in [0, 2)
        direct = 0.0 + 0.0j
        for k in range(k_lo, k_hi + 1):
            w = PHI(k / K)
            if w:
                direct += w * complex(
                    math.cos(2.0 * math.pi * k * alpha),
                    math.sin(2.0 * math.pi * k * alpha),
                )
        ells = np.arange(-_POISSON_TERMS, _POISSON_TERMS + 1)
        fvals = _fourier_many(K * (ells - alpha))
        dual = K * complex(fvals.sum())
        fhat0 = abs(complex(_fourier_many(np.array([0.0]))[0]))
        # when theta/log(eps) is far from every integer both sides are
        # superalgebraically small; measure against the natural scale then
        scale = max(abs(dual), 1e-3 * K * fhat0)
        err = abs(direct - dual) / scale
    return ExperimentReport.build(
        name="poisson_check",
        parameters={"D": F.D, "beta": [beta.m, beta.n], "K": K, "r": _POISSON_TERMS},
        computed=err,
        reference=0.0,
        tolerance=_POISSON_TOL,
        runtime_seconds=elapsed(),
        mode="abs",
        direct=[direct.real, direct.imag],
        dual=[dual.real, dual.imag],
        theta_over_log_eps=alpha,
    )


# ---------------------------------------------------------------------------
# Cutoff bookkeeping: the AFE weight W acts as a smooth truncation of the
# (only conditionally convergent under the synthetic coefficient model)
# symmetric-square series, so reference values of L(1, sym^2 psi) must be
# computed at the matching cutoff scale.


def _fhat_zero_profile(
    F: FieldParams,
    K: float,
    n_arr: np.ndarray,
    t_psi: float,
) -> np.ndarray:
    """F^(0; K, n^2) = K int phi(u) W(n^2/(Ku)^2) du on the array n_arr,
    with phi(u) = Phi(u)/u and the AFE weight index k = Ku."""
    nodes = 48
    us = np.linspace(PHI.x0, PHI.x1, nodes + 1)
    du = (us[1] - us[0])
    out = np.zeros(n_arr.size)
    for u in us[1:-1]:  # endpoints vanish to all orders
        phi_u = PHI(float(u)) / float(u)
        ku = K * float(u)
        xis = n_arr.astype(np.float64) ** 2 / ku**2
        grid = np.geomspace(xis.min() * 0.99, xis.max() * 1.01, 300)
        wg = afe_weight_many(grid, F, ku, t_psi)
        wv = np.interp(np.log(xis), np.log(grid), wg)
        out += phi_u * wv * du
    return K * out


@functools.cache
def matched_sym2_cutoff(F: FieldParams, K: float, t_psi: float) -> float:
    """The cutoff X such that the weight e^{-m^2/X} has the same logarithmic
    mean as the normalized diagonal profile F^(0;K,m^2)/(K phi~(1)
    L(1,chi_D)): matching log m_eff = (log X - gamma)/2."""
    m = np.geomspace(0.5, 4000.0 * K, 400)
    prof = _fhat_zero_profile(F, K, m, t_psi)
    phit1 = PHI.mellin_zero
    prof /= K * phit1 * dirichlet_l_one(F)
    lm = np.log(m)
    integrand = prof - (m < 1.0)
    log_meff = float(np.trapezoid(integrand, lm))
    return math.exp(2.0 * log_meff + _EULER_GAMMA)


# ---------------------------------------------------------------------------
# Diagonal isolation (the h = 0 Poisson mode of the moment computation).


def diagonal_check(F: FieldParams, src: HeckeSource, K: float, a: int = 1) -> ExperimentReport:
    """sum_n lambda_psi(a n^2)/n F^(0;K,n^2) against the diagonal
    main term vartheta(a) K/zeta_D(2) phi~(1) L(1,sym^2 psi) L(1,chi_D),
    with the sym^2 value taken at the matching cutoff scale.  K past the
    desk scale is refused by `_k_window` before any sum."""
    _k_window(K)
    with timed() as elapsed:
        ncut = int(150.0 * K * PHI.x1)
        n = np.arange(1, ncut + 1)
        prof = _fhat_zero_profile(F, K, n, src.t_psi)
        lam_sq = lambda_square_table(src, ncut, a=a)[1:]
        lhs = float(np.sum(lam_sq / n * prof))
        X = matched_sym2_cutoff(F, K, src.t_psi)
        phit1 = PHI.mellin_zero
        ref = (
            float(vartheta(src, a))
            * K
            / zeta_d_two(F)
            * phit1
            * l_one_sym2(src, F, X)
            * dirichlet_l_one(F)
        )
    return ExperimentReport.build(
        name="diagonal_check",
        parameters={"D": F.D, "K": K, "a": a, "ncut": ncut},
        computed=lhs,
        reference=ref,
        tolerance=_DIAGONAL_TOL,
        runtime_seconds=elapsed(),
        mode="ratio",
        matched_cutoff=X,
    )


# ---------------------------------------------------------------------------
# Bulk central values L(1/2, psi x phi_2k) over a dyadic range of k.


_CV_BAND = 1 << 16  # ideals per norm band of the central-value loop


def _band_width(F: FieldParams) -> int:
    """The norms per band: the half window holds about log(eps)/sqrt(D)
    ideals per norm (`ideals._scan_bytes`), so a band of this width holds
    about `_CV_BAND`."""
    return max(1, int(_CV_BAND * F.sqrtD / F.log_eps))


def _check_bands(F: FieldParams, n_max: int) -> None:
    """Raise before a central-value run to n_max allocates anything: the
    scan of one band (ScanBoundExceeded), with the ideals of the first band,
    which has the most, and the rows of the last; and the lambda_psi fill
    (TableBoundExceeded), with its sieve and per-prime arrays to n_max and
    one band of the table.  Arithmetic only."""
    width = _band_width(F)
    _check_scan(F, n_max, _scan_bytes(F, min(width, n_max)))
    check_fill(n_max, width + 1)


@functools.cache
def central_values_bulk(src: HeckeSource, F: FieldParams, k_lo: int, k_hi: int) -> np.ndarray:
    """Array of L(1/2, psi x phi_2k) for k = k_lo .. k_hi, sharing one ideal
    scan.  Each value truncates the AFE series at `_AFE_MULT` k^2 D^{3/2} and
    completes the conjugation-fixed (coherent) part of the tail -- the
    ideals (m), p_1(m), p_2(m), (sqrt D)(m), whose Grossencharacter value
    is identically 1 -- so only mean-zero oscillating terms are dropped.

    The series runs over the half-window ideals in norm bands
    lo < n <= lo + `_band_width`, with the bands outside and k inside; each
    band is the norm-sorted `ideal_scan` of the band and the
    `lambda_psi_table` segment of the band, from lambda_psi(p) drawn once
    (`lfun.lambda_psi_factors`), so the whole run holds one band, and
    `_check_bands` refuses a run before it allocates.  Each band forms log n,
    lambda_psi(n)/sqrt(n) times the multiplicity and phi = 2x, x the scan's
    angle, once (a conjugate has phase 4 pi - phi and the same cos(k phi));
    the k whose cut n <= n_k reaches into the band run in ascending order,
    with cos(k phi) from `lfun.phase_steps`.  W comes from np.interp at
    log n - 2 log k, each k's band term is an np.sum, and the band terms are
    added in band order.  Against one np.cos per k over the whole cut of the
    full-window scan (`tests/lfun_oracle.central_values_per_k`) the values
    differ by the rounding of the re-associated sums: at most 1.5e-13 of
    max_k |L_k| at D = 21, K <= 100.
    The returned array is read-only."""
    out = np.zeros(k_hi - k_lo + 1)
    if src.eta_D == -1:
        out.setflags(write=False)
        return out

    n_max = int(_AFE_MULT * k_hi * k_hi * F.D**1.5)
    _check_bands(F, n_max)
    factors = lambda_psi_factors(src, n_max, F)

    # coherent completion data: lambda_psi(a m^2)/sqrt(a m^2) for the four
    # conjugation-fixed families a in {1, p1, p2, D}
    # W drops below ~3e-4 once R = 4 log(eps)^2 xi / D^{3/2} > ~900
    xi_tail_max = 225.0 * F.D**1.5 / F.log_eps**2
    xi_tail_max = max(xi_tail_max, 2.0 * _AFE_MULT * F.D**1.5)
    m_hi = int(math.sqrt(xi_tail_max) * k_hi) + 2
    fam = {}
    for a in (1, F.p1, F.p2, F.D):
        tab = lambda_square_table(src, m_hi, a=a)
        m = np.arange(m_hi + 1, dtype=np.float64)
        m[0] = 1.0
        fam[a] = tab / (math.sqrt(a) * m)

    ks = range(k_lo, k_hi + 1)
    n_ks = [int(_AFE_MULT * k * k * F.D**1.5) for k in ks]  # ascending; the last is n_max
    grids = [np.geomspace(1.0 / (k * k), xi_tail_max * 1.1, 400) for k in ks]
    log_grids = [np.log(grid) for grid in grids]
    wgrids = [afe_weight_many(grid, F, k, src.t_psi) for grid, k in zip(grids, ks)]
    two_log_k = [2.0 * math.log(k) for k in ks]

    half = [0.0] * len(ks)
    first = 0  # the first k whose cut reaches past the band start
    width = _band_width(F)
    for lo in range(0, n_max, width):
        while n_ks[first] <= lo:
            first += 1
        hi = min(lo + width, n_max)
        norms, xs, mults = ideal_scan(F, hi, lo)
        lpsi = lambda_psi_table(src, hi, lo, factors)
        cuts = np.searchsorted(norms, n_ks[first:], side="right").tolist()
        n = norms.astype(np.float64)
        logn = np.log(n)
        pref = lpsi[norms - lo] / np.sqrt(n) * mults
        del lpsi, norms, mults
        phase = 2.0 * xs
        for j, cos_kphi in enumerate(phase_steps(phase, ks[first:]), start=first):
            size = cuts[j - first]
            wv = np.interp(logn[:size] - two_log_k[j], log_grids[j], wgrids[j])
            half[j] += float(np.sum(pref[:size] * cos_kphi[:size] * wv))
        del xs, n, logn, pref, phase, cos_kphi, wv  # not alive through the next scan

    for j, k in enumerate(ks):
        # coherent tail: a m^2 > n_k, W still non-negligible
        tail = 0.0
        for a, coef in fam.items():
            m0 = int(math.isqrt(n_ks[j] // a)) + 1
            m1 = min(m_hi, int(math.sqrt(xi_tail_max / a) * k) + 1)
            if m1 >= m0:
                ms = np.arange(m0, m1 + 1)
                xis = a * ms.astype(np.float64) ** 2 / (k * k)
                wt = np.interp(np.log(xis), log_grids[j], wgrids[j])
                tail += float(np.sum(coef[m0 : m1 + 1] * wt))
        out[j] = 2.0 * (half[j] + tail)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# First moment of the Rankin-Selberg central values (full pipeline).


def _k_window(K: float) -> tuple[int, int]:
    """(k_lo, k_hi), the range of the k >= 1 with k/K in the support of Phi.
    Every experiment over k takes its window here first, so K > 2000, past
    the desk scale, is refused before any sum."""
    if not math.isfinite(K):
        raise HypothesisViolated(f"K must be finite, got {K}")
    if K > _K_DESK:
        raise HypothesisViolated(f"desk bound K <= {_K_DESK}, got K = {K:g}")
    k_lo = max(1, int(math.ceil(K * PHI.x0)))
    k_hi = int(math.floor(K * PHI.x1))
    if k_hi < k_lo:
        raise HypothesisViolated(f"no k >= 1 has k/K in ({PHI.x0}, {PHI.x1}) at K = {K}")
    return k_lo, k_hi


def _vacuous_report(name: str, parameters: dict, note: str) -> ExperimentReport:
    return ExperimentReport.build(
        name=name,
        parameters=parameters,
        computed=0.0,
        reference=0.0,
        tolerance=0.0,
        runtime_seconds=0.0,
        mode="abs",
        vacuous=note,
    )


def first_moment(F: FieldParams, src: HeckeSource, K: float, n_twist: int = 1) -> ExperimentReport:
    """sum_k L(1/2, psi x phi_2k) lambda_2k(n) phi(k/K), phi(y) = Phi(y)/y,
    normalized by phi~(1) K h(n/(n,D)) and compared to C_{D,psi}.

    A -1 root number makes every central value vanish; the report is then
    trivially 0 = 0."""
    if n_twist < 1 or n_twist > 50:
        raise HypothesisViolated("n_twist must be in 1..50")
    k_lo, k_hi = _k_window(K)
    if src.eta_D == -1:
        return _vacuous_report(
            "first_moment",
            {"D": F.D, "K": K, "n_twist": n_twist},
            "root number -1: all central values vanish",
        )
    with timed() as elapsed:
        ks = np.arange(k_lo, k_hi + 1)
        lvals = central_values_bulk(src, F, k_lo, k_hi)
        phi_w = np.array([PHI(k / K) / (k / K) for k in ks])
        if n_twist == 1:
            lam_t = np.ones(ks.size)
        else:
            lam_t = lambda_k(F, 2 * ks, n_twist)
        m1 = float(np.sum(lvals * lam_t * phi_w))
        phit1 = PHI.mellin_zero
        n_red = n_twist // math.gcd(n_twist, F.D)
        h_factor = float(h_fn(src, F, n_red))
        x_match = matched_sym2_cutoff(F, K, src.t_psi)
        c_dpsi = c_d_psi(src, F, x_match)
        computed = m1 / (phit1 * K * h_factor)
    return ExperimentReport.build(
        name="first_moment",
        parameters={
            "D": F.D,
            "K": K,
            "n_twist": n_twist,
            "mult": _AFE_MULT,
            "seed": src.seed,
        },
        computed=computed,
        reference=c_dpsi,
        tolerance=_FIRST_MOMENT_TOL if n_twist == 1 else _TWISTED_MOMENT_TOL,
        runtime_seconds=elapsed(),
        mode="ratio",
        h_factor=h_factor,
        matched_cutoff=x_match,
        raw_moment=m1,
    )


# ---------------------------------------------------------------------------
# Variance assembly.


def _watson_ichino_terms(
    F: FieldParams,
    src: HeckeSource,
    K: float,
) -> tuple[list[tuple[float, float, float]], float]:
    """(Phi(k/K), L(1, phi_2k)^2 |mu_k|^2, L(1, phi_2k)) for each k of the
    support of Phi with Phi(k/K) != 0, in ascending k, and the matched
    sym^2 cutoff the Watson-Ichino values were assembled at."""
    k_lo, k_hi = _k_window(K)
    ks = range(k_lo, k_hi + 1)
    lvals = central_values_bulk(src, F, k_lo, k_hi)
    lphi = _l_one_phi_bulk(F, tuple(2 * k for k in ks))
    x_match = matched_sym2_cutoff(F, K, src.t_psi)
    ls2 = l_one_sym2(src, F, x_match)
    terms = []
    for i, k in enumerate(ks):
        w = PHI(k / K)
        if w == 0.0:
            continue
        mu2h = watson_ichino_mu2(F, src, k, float(lvals[i]), ls2)
        terms.append((w, mu2h, lphi[2 * k]))
    return terms, x_match


def variance_table(F: FieldParams, src: HeckeSource, K: float) -> ExperimentReport:
    """Q^h = sum_k L(1,phi_2k)^2 |mu_k|^2 Phi(k/K) from Watson-Ichino
    values, against Phi~(0) A^h(psi) V(psi); the unweighted
    Q = sum_k |mu_k|^2 Phi(k/K) against Phi~(0) A^h C' V goes in extra."""
    _k_window(K)  # an empty window is an error even where Q^h = 0
    if src.eta_D == -1 or src.parity == "odd":
        return _vacuous_report(
            "variance_table",
            {"D": F.D, "K": K},
            "vanishing matrix coefficients: Q^h = Q = 0",
        )
    with timed() as elapsed:
        terms, x_match = _watson_ichino_terms(F, src, K)
        qh = 0.0
        q_plain = 0.0
        for w, mu2h, lphi in terms:
            qh += mu2h * w
            q_plain += mu2h / lphi**2 * w
        cons = constants(F, src)
        v_psi = classical_variance(src.t_psi)
        phit0 = PHI.mellin_zero
        ref_h = phit0 * cons["A_h"] * v_psi
        ref_plain = phit0 * cons["A_h"] * cons["C_Dpsi_prime"] * v_psi
    return ExperimentReport.build(
        name="variance_table",
        parameters={"D": F.D, "K": K, "mult": _AFE_MULT, "seed": src.seed},
        computed=qh,
        reference=ref_h,
        tolerance=_VARIANCE_TOL,
        runtime_seconds=elapsed(),
        mode="ratio",
        Q_plain=q_plain,
        Q_plain_reference=ref_plain,
        Q_plain_ratio=q_plain / ref_plain if ref_plain else float("nan"),
        A_h=cons["A_h"],
        C_prime=cons["C_Dpsi_prime"],
        C_prime_tail=cons["C_Dpsi_prime_tail"],
        V_psi=v_psi,
        matched_cutoff=x_match,
    )


# ---------------------------------------------------------------------------
# Expected value (unsigned envelope: the modulus formula does not fix the
# signs of the matrix coefficients, so this upper-bounds |E(psi;K)|).


def expected_value(F: FieldParams, src: HeckeSource, K: float) -> ExperimentReport:
    """(1/K) sum_k |mu_k(psi)| Phi(k/K) reported against the K^{-1/2}
    envelope.  The exponent is observed, not asserted."""
    _k_window(K)
    with timed() as elapsed:
        if src.eta_D == -1 or src.parity == "odd":
            e_val = 0.0
        else:
            terms, _ = _watson_ichino_terms(F, src, K)
            e_val = 0.0
            for w, mu2h, lphi in terms:
                e_val += math.sqrt(max(mu2h, 0.0)) / abs(lphi) * w
            e_val /= K
        ref = K**-0.5
    rep = ExperimentReport(
        name="expected_value",
        parameters={"D": F.D, "K": K, "seed": src.seed},
        computed=e_val,
        reference=ref,
        tolerance=_EV_ENVELOPE,
        passed=bool(e_val <= _EV_ENVELOPE * ref),
        runtime_seconds=elapsed(),
        mode="ratio",
        extra={"envelope_only": True, "observed_ratio": e_val / ref},
    )
    return rep


# ---------------------------------------------------------------------------
# Dirichlet polynomial for 1/L(1, phi_2k)^2.


def mu_2k_table(F: FieldParams, k: int, x: int) -> np.ndarray:
    """Dense table [mu_2k(0) .. mu_2k(x)]: the multiplicative fill of
    mu(p) = -lambda_2k(p), mu(p^2) = chi_D(p), zero on cubes and higher."""
    lam = lambda_k_table(F, 2 * k, x)
    chi = kronecker_table(F.D)

    def local(primes: np.ndarray, b: int) -> np.ndarray:
        if b == 1:
            return -lam[primes]
        if b == 2:
            return chi[primes % F.D]
        return np.zeros(primes.size)

    return multiplicative_fill(x, local)


def dirichlet_poly_check(F: FieldParams, k: int, x: int) -> ExperimentReport:
    """1/L(1, phi_2k)^2 against the truncated Dirichlet polynomial
    sum_{n <= x} (mu_2k * mu_2k)(n)/n (Dirichlet convolution).  Refused
    before any sum past the desk scale k <= `_K_DESK` (the L(1, phi_2k) pass
    grows like k^2), and when the run's peak, `_POLY_BYTES` per n, would
    pass ALLOC_BYTES_MAX."""
    if k < 10:
        raise HypothesisViolated("dirichlet_poly_check needs k >= 10")
    if k > _K_DESK:
        raise HypothesisViolated(f"desk bound k <= {_K_DESK}, got k = {k}")
    if x < 1000:
        raise TruncationInsufficient("polynomial length x below 10^3")
    need = _POLY_BYTES * (x + 1)
    if need > ALLOC_BYTES_MAX:
        raise TableBoundExceeded(
            f"Dirichlet polynomial to x = {x} needs about {need / 2**30:.1f} GiB, "
            f"over the {ALLOC_BYTES_MAX / 2**30:.0f} GiB limit"
        )
    with timed() as elapsed:
        lhs = 1.0 / l_one_phi(F, 2 * k) ** 2
        mu = mu_2k_table(F, k, x)
        n = np.arange(1, x + 1)
        muon = mu[1:] / n
        prefix = np.cumsum(muon)
        rhs = float(np.sum(muon * prefix[(x // n) - 1]))
    return ExperimentReport.build(
        name="dirichlet_poly_check",
        parameters={"D": F.D, "k": k, "x": x},
        computed=rhs,
        reference=lhs,
        tolerance=_DIRICHLET_POLY_TOL,
        runtime_seconds=elapsed(),
        mode="abs",
    )


# ---------------------------------------------------------------------------
# Moment inequality for short Dirichlet polynomials in lambda_2k(p).


def moment_bound_check(F: FieldParams, K: float, r: int, x: float) -> ExperimentReport:
    """(1/K) sum_{K<k<=2K} (sum_{p<=x, p coprime to D} lambda_2k(p)/sqrt p)^{2r}
    against (2r)!/(2^r r!) (2 sum_{p<=x, chi_D(p)=1} 1/p)^r (1 + `_MOMENT_BOUND_SLACK`).
    K past the desk scale is refused by `_k_window` before any sum.

    The supporting lemma assumes x <= K^{1/(10r)}, which admits no primes at
    desk scale; the inequality is checked in the larger-x regime (where the
    diagonal still dominates) and the hypothesis status is recorded in
    extra["hypothesis_ok"].  Each s_k sums multiplicity/sqrt p times
    cos(2k x), x the angle of `ideals.ideal_scan`, over the half-window
    ideals of prime norm, every k from one `lfun.harmonic_sums`."""
    _k_window(K)
    hyp_ok = x <= K ** (1.0 / (10 * r))
    with timed() as elapsed:
        primes = primes_upto(int(x))
        primes = primes[F.D % primes != 0]
        norms, xs, mults = ideal_scan(F, int(x) + 1)
        keep = np.isin(norms, primes)
        coef = mults[keep] / np.sqrt(norms[keep])
        ms = range(2 * math.floor(K) + 2, 2 * math.floor(2 * K) + 1, 2)
        s_k = harmonic_sums([(xs[keep], coef)], ms).real
        empirical = float(np.mean(s_k ** (2 * r)))
        diag = float(np.sum(1.0 / primes[kronecker_table(F.D)[primes % F.D] == 1.0]))
        bound = (
            math.factorial(2 * r) / (2**r * math.factorial(r)) * (2.0 * diag) ** r
        )
    return ExperimentReport(
        name="moment_bound_check",
        parameters={"D": F.D, "K": K, "r": r, "x": x},
        computed=empirical,
        reference=bound,
        tolerance=_MOMENT_BOUND_SLACK,
        passed=bool(empirical <= bound * (1.0 + _MOMENT_BOUND_SLACK)),
        runtime_seconds=elapsed(),
        mode="ratio",
        extra={"hypothesis_ok": bool(hyp_ok), "one_sided": True},
    )


# ---------------------------------------------------------------------------
# Non-split decay ladder.


def nonsplit_decay_scan(src: HeckeSource, Q: QuadPoly, Ys: Sequence[float]) -> ExperimentReport:
    """|S(Y)|/sqrt(Y) across a ladder of at least two Y; each step may exceed
    the previous by at most `_DECAY_SLACK` (a decreasing-in-envelope check,
    no main term)."""
    if len(Ys) < 2:
        raise TruncationInsufficient(f"the Y ladder {list(Ys)} needs at least two Y")
    with timed() as elapsed:
        ratios = [abs(nonsplit_sum(src, Q, Y)) / math.sqrt(Y) for Y in Ys]
        worst = max(b - a for a, b in zip(ratios, ratios[1:]))
    return ExperimentReport.build(
        name="nonsplit_decay_scan",
        parameters={"a": Q.a, "b": Q.b, "c": Q.c, "Ys": list(Ys)},
        computed=worst,
        reference=0.0,
        tolerance=_DECAY_SLACK,
        runtime_seconds=elapsed(),
        mode="abs",
        ratios=ratios,
    )
