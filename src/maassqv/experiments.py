"""Desk-scale numerical experiments: Poisson summation on ideal angles,
diagonal isolation, first moments of Rankin-Selberg central values,
variance assembly, Dirichlet-polynomial and moment-inequality checks,
and non-split decay scans.  Every operation returns an ExperimentReport.

Shared heavy state (ideal scans, bulk central values) is cached at module
level; all loops run in a fixed (ascending) order so results are
bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import HypothesisViolated, TruncationInsufficient
from .halfint import QuadPoly, nonsplit_sum
from .hecke import HeckeSource, h_fn, vartheta
from .ideals import ideal_scan, lambda_k, lambda_k_table
from .lfun import (
    AfeConfig,
    afe_weight_many,
    constants,
    classical_variance,
    dirichlet_l_one,
    l_one_sym2,
    lambda_psi_table,
    lambda_square_table,
    ramified_sum_factor,
    watson_ichino_mu2,
    zeta_d_two,
)
from .quadfield import FieldParams, QuadInt, angle, canonical_generator
from .report import ExperimentReport, timed
from .weights import SmoothWeight

_EULER_GAMMA = 0.5772156649015329

_SUPPORTS = {
    "bump_half_two": (0.5, 2.0),
    "bump_one_two": (1.0, 2.0),
}


def smooth_weight(kind: str = "bump_half_two", P: float = 1.0) -> SmoothWeight:
    """The C-infinity bump on the named support; P >= 1 shrinks the support
    toward its left edge by 1/P, scaling sup|W'| up by P."""
    if kind not in _SUPPORTS:
        raise ValueError(f"unknown weight kind {kind!r}")
    if P < 1.0:
        raise ValueError("P must be >= 1")
    x0, x1 = _SUPPORTS[kind]
    return SmoothWeight(x0, x0 + (x1 - x0) / P)


def _fourier_many(sw: SmoothWeight, xis: np.ndarray, nodes: int = 1 << 16) -> np.ndarray:
    """integral of W(x) e(-xi x) dx on an array of xi by dense trapezoid;
    all derivatives of W vanish at the endpoints, so the rule converges
    superalgebraically once the oscillation is resolved (needs
    nodes >> |xi| (x1-x0))."""
    x = np.linspace(sw.x0, sw.x1, nodes + 1)
    wv = np.array([sw(float(t)) for t in x.tolist()])
    h = (sw.x1 - sw.x0) / nodes
    wv[0] *= 0.5
    wv[-1] *= 0.5
    phase = -2.0 * math.pi * np.asarray(xis)[:, None] * x[None, :]
    return (wv[None, :] * (np.cos(phase) + 1j * np.sin(phase))).sum(axis=1) * h


# ---------------------------------------------------------------------------
# Poisson summation on the angle coordinate.


def poisson_check(
    F: FieldParams,
    beta: QuadInt,
    K: float,
    r: int = 20,
    sw: SmoothWeight | None = None,
    tol: float = 1e-6,
) -> ExperimentReport:
    """sum_k e(k theta/log eps) F(k/K) against K sum_l F^(K(l - theta/log eps)):
    the two sides of Poisson summation for the frequency sum attached to the
    principal ideal (beta).  The report carries the relative deviation."""
    if K < 50:
        raise HypothesisViolated("poisson_check needs K >= 50")
    if sw is None:
        sw = smooth_weight()
    with timed() as elapsed:
        theta = angle(F, canonical_generator(F, beta))
        alpha = theta / F.log_eps  # in [0, 2)
        k_lo = int(math.ceil(K * sw.x0)) - 1
        k_hi = int(math.floor(K * sw.x1)) + 1
        direct = 0.0 + 0.0j
        for k in range(k_lo, k_hi + 1):
            w = sw(k / K)
            if w:
                direct += w * complex(
                    math.cos(2.0 * math.pi * k * alpha),
                    math.sin(2.0 * math.pi * k * alpha),
                )
        ells = np.arange(-r, r + 1)
        fvals = _fourier_many(sw, K * (ells - alpha))
        dual = K * complex(fvals.sum())
        fhat0 = abs(complex(_fourier_many(sw, np.array([0.0]))[0]))
        # when theta/log(eps) is far from every integer both sides are
        # superalgebraically small; measure against the natural scale then
        scale = max(abs(dual), 1e-3 * K * fhat0)
        err = abs(direct - dual) / scale
    return ExperimentReport.build(
        name="poisson_check",
        parameters={"D": F.D, "beta": [beta.m, beta.n], "K": K, "r": r},
        computed=err,
        reference=0.0,
        tolerance=tol,
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
    sw: SmoothWeight,
    Lambda2: float,
    n_arr: np.ndarray,
    cfg: AfeConfig,
    t_psi: float,
) -> np.ndarray:
    """F^(0; K, Lambda2 n^2) = K int phi(u) W(Lambda2 n^2/(Ku)^2) du on the
    array n_arr, with phi(u) = Phi(u)/u and the AFE weight index k = Ku."""
    nodes = 48
    us = np.linspace(sw.x0, sw.x1, nodes + 1)
    du = (us[1] - us[0])
    out = np.zeros(n_arr.size)
    for u in us[1:-1]:  # endpoints vanish to all orders
        phi_u = sw(float(u)) / float(u)
        if phi_u == 0.0:
            continue
        ku = K * float(u)
        xis = Lambda2 * n_arr.astype(np.float64) ** 2 / ku**2
        grid = np.geomspace(xis.min() * 0.99, xis.max() * 1.01, 300)
        wg = afe_weight_many(cfg, 0.5, grid, F, ku, t_psi)
        wv = np.interp(np.log(xis), np.log(grid), wg)
        out += phi_u * wv * du
    return K * out


def matched_sym2_cutoff(
    F: FieldParams,
    K: float,
    sw: SmoothWeight,
    Lambda2: float = 1.0,
    cfg: AfeConfig | None = None,
    t_psi: float = 1.0,
) -> float:
    """The cutoff X such that the weight e^{-m^2/X} has the same logarithmic
    mean as the normalized diagonal profile F^(0;K,Lambda2 m^2)/(K phi~(1)
    L(1,chi_D)): matching log m_eff = (log X - gamma)/2."""
    if cfg is None:
        cfg = AfeConfig()
    key = (
        F.D, float(K), sw.x0, sw.x1, float(Lambda2), float(t_psi),
        cfg.contour_re, cfg.im_cutoff, cfg.quad_step,
    )
    hit = _MATCH_CACHE.get(key)
    if hit is not None:
        return hit
    m = np.geomspace(0.5, 4000.0 * K / math.sqrt(Lambda2), 400)
    prof = _fhat_zero_profile(F, K, sw, Lambda2, m, cfg, t_psi)
    phit1 = sw.mellin(0).real
    prof /= K * phit1 * dirichlet_l_one(F)
    lm = np.log(m)
    integrand = prof - (m < 1.0)
    log_meff = float(np.trapezoid(integrand, lm))
    X = math.exp(2.0 * log_meff + _EULER_GAMMA)
    _MATCH_CACHE[key] = X
    return X


_MATCH_CACHE: dict[tuple, float] = {}


# ---------------------------------------------------------------------------
# Diagonal isolation (the h = 0 Poisson mode of the moment computation).


def diagonal_check(
    F: FieldParams,
    src: HeckeSource,
    K: float,
    a: int = 1,
    Lambda2: float = 1.0,
    sw: SmoothWeight | None = None,
    cfg: AfeConfig | None = None,
    tol: float = 0.05,
) -> ExperimentReport:
    """sum_n lambda_psi(a n^2)/n F^(0;K,Lambda2 n^2) against the diagonal
    main term vartheta(a) K/zeta_D(2) phi~(1) L(1,sym^2 psi) L(1,chi_D),
    with the sym^2 value taken at the matching cutoff scale."""
    if sw is None:
        sw = smooth_weight()
    if cfg is None:
        cfg = AfeConfig()
    with timed() as elapsed:
        ncut = int(150.0 * K * sw.x1 / math.sqrt(Lambda2))
        n = np.arange(1, ncut + 1)
        prof = _fhat_zero_profile(F, K, sw, Lambda2, n, cfg, src.t_psi)
        lam_sq = lambda_square_table(src, ncut, a=a)[1:]
        lhs = float(np.sum(lam_sq / n * prof))
        X = matched_sym2_cutoff(F, K, sw, Lambda2, cfg, src.t_psi)
        phit1 = sw.mellin(0).real
        ref = (
            vartheta(src, a)
            * K
            / zeta_d_two(F)
            * phit1
            * l_one_sym2(src, F, X=X)
            * dirichlet_l_one(F)
        )
    return ExperimentReport.build(
        name="diagonal_check",
        parameters={"D": F.D, "K": K, "a": a, "Lambda2": Lambda2, "ncut": ncut},
        computed=lhs,
        reference=ref,
        tolerance=tol,
        runtime_seconds=elapsed(),
        mode="ratio",
        matched_cutoff=X,
    )


# ---------------------------------------------------------------------------
# Bulk central values L(1/2, psi x phi_2k) over a dyadic range of k.


_BULK_CACHE: dict[tuple, tuple] = {}


def central_values_bulk(
    src: HeckeSource,
    F: FieldParams,
    k_lo: int,
    k_hi: int,
    mult: float = 4.0,
    cfg: AfeConfig | None = None,
) -> np.ndarray:
    """Array of L(1/2, psi x phi_2k) for k = k_lo .. k_hi, sharing one ideal
    scan.  Each value truncates the AFE series at mult * k^2 * D^{3/2} and
    completes the conjugation-fixed (coherent) part of the tail -- the
    ideals (m), p_1(m), p_2(m), (sqrt D)(m), whose Grossencharacter value
    is identically 1 -- so only mean-zero oscillating terms are dropped."""
    if cfg is None:
        cfg = AfeConfig()
    if src.eta_D == -1:
        return np.zeros(k_hi - k_lo + 1)
    key = (
        id(src), F.D, k_lo, k_hi, float(mult),
        cfg.contour_re, cfg.im_cutoff, cfg.quad_step,
    )
    hit = _BULK_CACHE.get(key)
    if hit is not None and hit[0] is src:
        return hit[1]

    n_max = int(mult * k_hi * k_hi * F.D**1.5)
    norms, thetas = ideal_scan(F, n_max)
    lpsi = lambda_psi_table(src, n_max)
    pref = lpsi[norms] / np.sqrt(norms.astype(np.float64))
    del lpsi
    phase_unit = thetas * (2.0 * math.pi / F.log_eps)  # k=1 phase per ideal

    # coherent completion data: lambda_psi(a m^2)/sqrt(a m^2) for the four
    # conjugation-fixed families a in {1, p1, p2, D}
    # W drops below ~3e-4 once R = 4 log(eps)^2 xi / D^{3/2} > ~900
    xi_tail_max = 225.0 * F.D**1.5 / F.log_eps**2
    xi_tail_max = max(xi_tail_max, 2.0 * mult * F.D**1.5)
    m_hi = int(math.sqrt(xi_tail_max) * k_hi) + 2
    fam = {}
    for a in (1, F.p1, F.p2, F.D):
        tab = lambda_square_table(src, m_hi, a=a)
        m = np.arange(m_hi + 1, dtype=np.float64)
        m[0] = 1.0
        fam[a] = tab / (math.sqrt(a) * m)

    out = np.empty(k_hi - k_lo + 1)
    for k in range(k_lo, k_hi + 1):
        n_k = int(mult * k * k * F.D**1.5)
        cut = int(np.searchsorted(norms, n_k, side="right"))
        grid = np.geomspace(1.0 / (k * k), xi_tail_max * 1.1, 400)
        wgrid = afe_weight_many(cfg, 0.5, grid, F, k, src.t_psi)
        wv = np.interp(np.log(norms[:cut] / (k * k)), np.log(grid), wgrid)
        half = float(np.sum(pref[:cut] * np.cos(k * phase_unit[:cut]) * wv))
        # coherent tail: a m^2 > n_k, W still non-negligible
        tail = 0.0
        for a, coef in fam.items():
            m0 = int(math.isqrt(n_k // a)) + 1
            m1 = min(m_hi, int(math.sqrt(xi_tail_max / a) * k) + 1)
            if m1 >= m0:
                ms = np.arange(m0, m1 + 1)
                xis = a * ms.astype(np.float64) ** 2 / (k * k)
                wt = np.interp(np.log(xis), np.log(grid), wgrid)
                tail += float(np.sum(coef[m0 : m1 + 1] * wt))
        out[k - k_lo] = 2.0 * (half + tail)
    _BULK_CACHE[key] = (src, out)
    return out


# ---------------------------------------------------------------------------
# First moment of the Rankin-Selberg central values (full pipeline).


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


def first_moment(
    F: FieldParams,
    src: HeckeSource,
    K: float,
    n_twist: int = 1,
    sw: SmoothWeight | None = None,
    mode: str = "full",
    mult: float = 4.0,
    cfg: AfeConfig | None = None,
    tol: float | None = None,
) -> ExperimentReport:
    """sum_k L(1/2, psi x phi_2k) lambda_2k(n) phi(k/K), phi(y) = Phi(y)/y,
    normalized by phi~(1) K h(n/(n,D)) and compared to C_{D,psi}.

    mode="diagonal" replaces the pipeline by its diagonal-mode isolation
    (delegates to diagonal_check with a = n_twist).  A -1 root number makes
    every central value vanish; the report is then trivially 0 = 0."""
    if K > 2000:
        raise HypothesisViolated("desk bound K <= 2000")
    if n_twist < 1 or n_twist > 50:
        raise HypothesisViolated("n_twist must be in 1..50")
    if sw is None:
        sw = smooth_weight()
    if mode == "diagonal":
        return diagonal_check(F, src, K, a=n_twist, sw=sw, cfg=cfg)
    if mode != "full":
        raise ValueError(f"unknown mode {mode!r}")
    if src.eta_D == -1:
        return _vacuous_report(
            "first_moment",
            {"D": F.D, "K": K, "n_twist": n_twist},
            "root number -1: all central values vanish",
        )
    if cfg is None:
        cfg = AfeConfig()
    if tol is None:
        tol = 0.25 if n_twist == 1 else 0.30
    with timed() as elapsed:
        k_lo = max(1, int(math.ceil(K * sw.x0)))
        k_hi = int(math.floor(K * sw.x1))
        ks = np.arange(k_lo, k_hi + 1)
        lvals = central_values_bulk(src, F, k_lo, k_hi, mult, cfg)
        phi_w = np.array([sw(k / K) / (k / K) for k in ks])
        if n_twist == 1:
            lam_t = np.ones(ks.size)
        else:
            lam_t = np.array([lambda_k(F, 2 * k, n_twist) for k in ks.tolist()])
        m1 = float(np.sum(lvals * lam_t * phi_w))
        phit1 = sw.mellin(0).real
        n_red = n_twist // math.gcd(n_twist, F.D)
        h_factor = h_fn(src, F, n_red, nmax_hint=max(4, n_red))
        x_match = matched_sym2_cutoff(F, K, sw, 1.0, cfg, src.t_psi)
        c_dpsi = (
            2.0
            * dirichlet_l_one(F)
            / zeta_d_two(F)
            * l_one_sym2(src, F, X=x_match)
            * ramified_sum_factor(src, F)
        )
        computed = m1 / (phit1 * K * h_factor)
    return ExperimentReport.build(
        name="first_moment",
        parameters={
            "D": F.D,
            "K": K,
            "n_twist": n_twist,
            "mult": mult,
            "seed": src.seed,
        },
        computed=computed,
        reference=c_dpsi,
        tolerance=tol,
        runtime_seconds=elapsed(),
        mode="ratio",
        h_factor=h_factor,
        matched_cutoff=x_match,
        raw_moment=m1,
    )


# ---------------------------------------------------------------------------
# L(1, phi_2k) in bulk (shared exponential cutoff, Richardson in closed form:
# the X/2 sum reuses w^2 where w = e^{-n/X}).


_LPHI_CACHE: dict[tuple[int, float], dict[int, float]] = {}


def _l_one_phi_bulk(F: FieldParams, ms: Sequence[int], X: float = 4.0e5) -> dict[int, float]:
    """{m: L(1, phi_m)} for the given m, memoized per (D, X): only the m not
    yet computed for this field and cutoff are summed."""
    memo = _LPHI_CACHE.setdefault((F.D, float(X)), {})
    todo = [m for m in ms if m not in memo]
    if todo:
        n_max = int(25 * X)
        norms, thetas = ideal_scan(F, n_max)
        w = np.exp(-norms / X)
        coef = (2.0 * w - w * w) / norms
        del w
        for m in todo:
            ph = (math.pi * m / F.log_eps) * thetas
            memo[m] = float(np.sum(coef * np.cos(ph)))
    return {m: memo[m] for m in ms}


# ---------------------------------------------------------------------------
# Variance assembly.


def variance_table(
    F: FieldParams,
    src: HeckeSource,
    K: float,
    sw: SmoothWeight | None = None,
    mult: float = 4.0,
    cfg: AfeConfig | None = None,
    tol: float = 0.3,
    p_max: int = 30000,
) -> ExperimentReport:
    """Q^h = sum_k L(1,phi_2k)^2 |mu_k|^2 Phi(k/K) from Watson-Ichino
    values, against Phi~(0) A^h(psi) V(psi); the unweighted
    Q = sum_k |mu_k|^2 Phi(k/K) against Phi~(0) A^h C' V goes in extra."""
    if sw is None:
        sw = smooth_weight()
    if cfg is None:
        cfg = AfeConfig()
    if src.eta_D == -1 or src.parity == "odd":
        return _vacuous_report(
            "variance_table",
            {"D": F.D, "K": K},
            "vanishing matrix coefficients: Q^h = Q = 0",
        )
    with timed() as elapsed:
        k_lo = max(1, int(math.ceil(K * sw.x0)))
        k_hi = int(math.floor(K * sw.x1))
        ks = range(k_lo, k_hi + 1)
        lvals = central_values_bulk(src, F, k_lo, k_hi, mult, cfg)
        lphi = _l_one_phi_bulk(F, [2 * k for k in ks])
        x_match = matched_sym2_cutoff(F, K, sw, 1.0, cfg, src.t_psi)
        ls2 = l_one_sym2(src, F, X=x_match)
        qh = 0.0
        q_plain = 0.0
        for i, k in enumerate(ks):
            w = sw(k / K)
            if w == 0.0:
                continue
            mu2 = watson_ichino_mu2(
                F,
                src,
                k,
                cfg,
                l_half_cross=float(lvals[i]),
                l_one_phi_val=lphi[2 * k],
                l_sym2_val=ls2,
            )
            qh += lphi[2 * k] ** 2 * mu2 * w
            q_plain += mu2 * w
        cons = constants(F, src, p_max=p_max, X=x_match)
        v_psi = classical_variance(src.t_psi)
        phit0 = sw.mellin(0).real
        ref_h = phit0 * cons["A_h"] * v_psi
        ref_plain = phit0 * cons["A_h"] * cons["C_Dpsi_prime"] * v_psi
    return ExperimentReport.build(
        name="variance_table",
        parameters={"D": F.D, "K": K, "mult": mult, "seed": src.seed},
        computed=qh,
        reference=ref_h,
        tolerance=tol,
        runtime_seconds=elapsed(),
        mode="ratio",
        Q_plain=q_plain,
        Q_plain_reference=ref_plain,
        Q_plain_ratio=q_plain / ref_plain if ref_plain else float("nan"),
        A_h=cons["A_h"],
        C_prime=cons["C_Dpsi_prime"],
        V_psi=v_psi,
        matched_cutoff=x_match,
    )


# ---------------------------------------------------------------------------
# Expected value (unsigned envelope: the modulus formula does not fix the
# signs of the matrix coefficients, so this upper-bounds |E(psi;K)|).


def expected_value(
    F: FieldParams,
    src: HeckeSource,
    K: float,
    sw: SmoothWeight | None = None,
    mult: float = 4.0,
    cfg: AfeConfig | None = None,
    envelope_factor: float = 10.0,
) -> ExperimentReport:
    """(1/K) sum_k |mu_k(psi)| Phi(k/K) reported against the K^{-1/2}
    envelope.  The exponent is observed, not asserted."""
    if sw is None:
        sw = smooth_weight()
    if cfg is None:
        cfg = AfeConfig()
    with timed() as elapsed:
        if src.eta_D == -1 or src.parity == "odd":
            e_val = 0.0
        else:
            k_lo = max(1, int(math.ceil(K * sw.x0)))
            k_hi = int(math.floor(K * sw.x1))
            ks = range(k_lo, k_hi + 1)
            lvals = central_values_bulk(src, F, k_lo, k_hi, mult, cfg)
            lphi = _l_one_phi_bulk(F, [2 * k for k in ks])
            x_match = matched_sym2_cutoff(F, K, sw, 1.0, cfg, src.t_psi)
            ls2 = l_one_sym2(src, F, X=x_match)
            e_val = 0.0
            for i, k in enumerate(ks):
                w = sw(k / K)
                if w == 0.0:
                    continue
                mu2 = watson_ichino_mu2(
                    F,
                    src,
                    k,
                    cfg,
                    l_half_cross=float(lvals[i]),
                    l_one_phi_val=lphi[2 * k],
                    l_sym2_val=ls2,
                )
                e_val += math.sqrt(max(mu2, 0.0)) * w
            e_val /= K
        ref = K**-0.5
    rep = ExperimentReport(
        name="expected_value",
        parameters={"D": F.D, "K": K, "seed": src.seed},
        computed=e_val,
        reference=ref,
        tolerance=envelope_factor,
        passed=bool(e_val <= envelope_factor * ref),
        runtime_seconds=elapsed(),
        mode="ratio",
        extra={"envelope_only": True, "observed_ratio": e_val / ref},
    )
    return rep


# ---------------------------------------------------------------------------
# Dirichlet polynomial for 1/L(1, phi_2k)^2.


def mu_2k_table(F: FieldParams, k: int, x: int) -> np.ndarray:
    """Dense table [mu_2k(0) .. mu_2k(x)]: multiplicative with
    mu(p) = -lambda_2k(p), mu(p^2) = chi_D(p), zero on cubes and higher."""
    from .ideals import kronecker_chi

    lam = lambda_k_table(F, 2 * k, x)
    spf = np.zeros(x + 1, dtype=np.int64)
    for p in range(2, int(math.isqrt(x)) + 1):
        sl = spf[p::p]
        sl[sl == 0] = p
    chi_cache: dict[int, int] = {}
    mu = np.zeros(x + 1)
    if x >= 1:
        mu[1] = 1.0
    for n in range(2, x + 1):
        r = n
        v = 1.0
        while r > 1 and v != 0.0:
            p = int(spf[r]) or r
            e = 0
            while r % p == 0:
                r //= p
                e += 1
            if e == 1:
                v *= -lam[p]
            elif e == 2:
                c = chi_cache.get(p)
                if c is None:
                    c = kronecker_chi(F, p)
                    chi_cache[p] = c
                v *= c
            else:
                v = 0.0
        mu[n] = v
    return mu


def dirichlet_poly_check(
    F: FieldParams,
    k: int,
    x: int,
    tol: float = 1e-3,
) -> ExperimentReport:
    """1/L(1, phi_2k)^2 against the truncated Dirichlet polynomial
    sum_{n <= x} (mu_2k * mu_2k)(n)/n (Dirichlet convolution)."""
    if k < 10:
        raise HypothesisViolated("dirichlet_poly_check needs k >= 10")
    if x < 1000:
        raise TruncationInsufficient("polynomial length x below 10^3")
    from .lfun import l_one_phi

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
        tolerance=tol,
        runtime_seconds=elapsed(),
        mode="abs",
    )


# ---------------------------------------------------------------------------
# Moment inequality for short Dirichlet polynomials in lambda_2k(p).


def moment_bound_check(
    F: FieldParams,
    K: int,
    r: int,
    x: float,
    a_p: dict[int, float] | None = None,
    enforce_hypothesis: bool = False,
    slack: float = 0.1,
) -> ExperimentReport:
    """(1/K) sum_{K<k<=2K} (sum_{p<=x, p coprime to D} a_p lambda_2k(p)/sqrt p)^{2r}
    against (2r)!/(2^r r!) (2 sum_{p<=x, chi_D(p)=1} a_p^2/p)^r (1+slack).

    The supporting lemma assumes x <= K^{1/(10r)}, which admits no primes at
    desk scale; by default the inequality is checked in the larger-x regime
    (where the diagonal still dominates) and the hypothesis status is
    recorded.  enforce_hypothesis=True raises instead."""
    from sympy import primerange

    hyp_ok = x <= K ** (1.0 / (10 * r))
    if enforce_hypothesis and not hyp_ok:
        raise HypothesisViolated(
            f"x = {x} exceeds K^(1/(10r)) = {K ** (1.0 / (10 * r)):.3f}"
        )
    with timed() as elapsed:
        primes = [p for p in primerange(2, int(x) + 1) if F.D % p != 0]
        from .ideals import kronecker_chi

        norms, thetas = ideal_scan(F, int(x) + 1)
        coeffs = []
        for p in primes:
            ap = 1.0 if a_p is None else a_p.get(p, 0.0)
            ths = thetas[norms == p]
            coeffs.append((ap / math.sqrt(p), ths))
        ks = np.arange(K + 1, 2 * K + 1)
        s_k = np.zeros(ks.size)
        for w, ths in coeffs:
            if ths.size == 0:
                continue
            for th in ths.tolist():
                s_k += w * np.cos((2.0 * math.pi / F.log_eps) * th * ks)
        empirical = float(np.mean(s_k ** (2 * r)))
        diag = sum(
            (1.0 if a_p is None else a_p.get(p, 0.0)) ** 2 / p
            for p in primes
            if kronecker_chi(F, p) == 1
        )
        bound = (
            math.factorial(2 * r) / (2**r * math.factorial(r)) * (2.0 * diag) ** r
        )
    return ExperimentReport(
        name="moment_bound_check",
        parameters={"D": F.D, "K": K, "r": r, "x": x},
        computed=empirical,
        reference=bound,
        tolerance=slack,
        passed=bool(empirical <= bound * (1.0 + slack)),
        runtime_seconds=elapsed(),
        mode="ratio",
        extra={"hypothesis_ok": bool(hyp_ok), "one_sided": True},
    )


# ---------------------------------------------------------------------------
# Non-split decay ladder.


def nonsplit_decay_scan(
    src: HeckeSource,
    Q: QuadPoly,
    Ys: Sequence[float] | None = None,
    W: SmoothWeight | None = None,
    slack: float = 0.1,
) -> ExperimentReport:
    """|S(Y)|/sqrt(Y) across the Y ladder; each step may exceed the previous
    by at most the slack (a decreasing-in-envelope check, no main term)."""
    if Ys is None:
        Ys = [1e4 * 4.0**j for j in range(6)]
    if W is None:
        W = SmoothWeight()
    with timed() as elapsed:
        ratios = [abs(nonsplit_sum(src, Q, Y, W)) / math.sqrt(Y) for Y in Ys]
        steps = [b - a for a, b in zip(ratios, ratios[1:])]
        worst = max(steps) if steps else 0.0
    return ExperimentReport.build(
        name="nonsplit_decay_scan",
        parameters={"a": Q.a, "b": Q.b, "c": Q.c, "Ys": list(Ys)},
        computed=worst,
        reference=0.0,
        tolerance=slack,
        runtime_seconds=elapsed(),
        mode="abs",
        ratios=ratios,
    )
