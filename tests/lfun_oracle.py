"""Reference routes of maassqv.lfun that only the tests use.

`gamma_factor` is the degree-4 archimedean factor of L(s, psi x phi_2k),
evaluated pointwise; maassqv.lfun only ever needs its log-modulus or its
ratios on the contour nodes.  `dirichlet_l_line_per_node` is the
L(2w + 2s, chi_D) contour line summed with one complex exponential per
term and node, and `contour_sum_per_node` the AFE contour sum with one
exp, cos and sin per point and node, the reference for the block sum of
`lfun._contour_sum`.  `central_value` is L(1/2, psi x phi_2k) by the pointwise
approximate functional equation, the reference for
`experiments.central_values_bulk`, and `afe_tail_bound` its heuristic
bound on the weight W.  `central_values_per_k` is the bulk engine's sum
with k outside: one np.cos over the whole cut per k, the reference for
its chunk-outer loop, rotated e^{ik phi} and conjugation fold.
`l_one_phi_dense` is L(1, phi_m) from the dense lambda_m table, and
`l_one_phi_sorted_scan` the same Richardson-weighted sum with one np.cos
per m, the two references for `lfun._l_one_phi_bulk`.  The two sums over
ideals read `ideal_oracle.rectangle_scan`, every ideal of the full window
theta in [0, 2 log eps) once, where the package sums the half window
theta in [0, log eps] with multiplicities."""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy.special import loggamma

from ideal_oracle import rectangle_scan
from maassqv.errors import NegativeCentralValue, PoleInput, TruncationInsufficient
from maassqv.hecke import HeckeSource
from maassqv.ideals import kronecker_table, lambda_k_table
from maassqv.lfun import _afe_line, afe_weight_many, lambda_psi_table, lambda_square_table
from maassqv.quadfield import FieldParams


def gamma_factor(s: complex, t_psi: float, t_2k: float) -> complex:
    """pi^{-2s} prod over both sign choices of Gamma((s +- i t_psi +- i t_2k)/2)."""
    total = -2.0 * complex(s) * math.log(math.pi)
    for e1 in (1.0, -1.0):
        for e2 in (1.0, -1.0):
            total += loggamma((s + 1j * (e1 * t_psi + e2 * t_2k)) / 2.0)
    return cmath.exp(total)


def dirichlet_l_line_per_node(F, s: complex, c: float) -> np.ndarray:
    """L(2w + 2s, chi_D) at the contour nodes w of the line c, 40,000 terms,
    as sum chi_D(n) exp(-(2w + 2s) log n) node by node."""
    n = np.arange(1, 40001)
    chin = kronecker_table(F.D)[n % F.D]
    logn = np.log(n)
    s_nodes = 2.0 * _afe_line(c) + 2.0 * s
    out = np.empty(s_nodes.size, dtype=np.complex128)
    for i, sv in enumerate(s_nodes):
        out[i] = np.sum(chin * np.exp(-sv * logn))
    return out


def afe_tail_bound(F: FieldParams, xi: float) -> float:
    """Heuristic bound for |W(xi')| at xi' >= xi: contour shift to the
    optimal Re w = A gives exp(-log(R)^2/4) with R = 4 log(eps)^2 xi/D^{3/2}."""
    R = 4.0 * F.log_eps**2 * xi / F.D**1.5
    if R <= 1.0:
        return 3.0
    return 30.0 * math.exp(-0.25 * math.log(R) ** 2)


def central_value(
    src: HeckeSource,
    F: FieldParams,
    k: int,
    series_cutoff_multiplier: float = 100.0,
) -> float:
    """L(1/2, psi x phi_2k) by the approximate functional equation:
    2 * sum_n lambda_2k(n) lambda_psi(n) n^{-1/2} W(n/k^2) when the root
    number eta_psi(D) = +1, and exactly 0 when eta_psi(D) = -1; terms up to
    series_cutoff_multiplier * k^2 * D^{3/2}."""
    if k == 0:
        raise PoleInput("k = 0 has no cuspidal dihedral form")
    if src.eta_D == -1:
        return 0.0
    k = abs(k)
    N = int(series_cutoff_multiplier * k * k * F.D**1.5)
    if N < 4:
        raise TruncationInsufficient("series cutoff below 4 terms")
    lam2k = lambda_k_table(F, 2 * k, N)
    lpsi = lambda_psi_table(src, N)
    n = np.arange(1, N + 1)
    # W is smooth in log(xi): evaluate on a geometric grid and interpolate
    grid = np.geomspace(1.0 / (k * k), (N + 1.0) / (k * k), 48 * 8 + 2)
    wgrid = afe_weight_many(grid, F, k, src.t_psi)
    wvals = np.interp(np.log(n / (k * k)), np.log(grid), wgrid)
    half = float(np.sum(lam2k[1:] * lpsi[1:] / np.sqrt(n) * wvals))
    value = half + src.eta_D * half
    if value < -1e-3 - afe_tail_bound(F, N / (k * k)):
        raise NegativeCentralValue(f"L(1/2) = {value:.6g} at k={k}")
    return value


def central_values_per_k(
    src: HeckeSource, F: FieldParams, k_lo: int, k_hi: int, mult: float
) -> np.ndarray:
    """L(1/2, psi x phi_2k) for k = k_lo .. k_hi by the sum of
    `experiments.central_values_bulk` taken one k at a time: for each k,
    lambda_psi(n)/sqrt(n) cos(k phi) W over the whole cut n <= n_k of the
    norm-sorted full-window scan, plus the same coherent tail."""
    out = np.zeros(k_hi - k_lo + 1)
    if src.eta_D == -1:
        return out
    n_max = int(mult * k_hi * k_hi * F.D**1.5)
    norms, thetas = rectangle_scan(F, n_max)
    lpsi = lambda_psi_table(src, n_max)
    pref = lpsi[norms] / np.sqrt(norms.astype(np.float64))
    del lpsi
    phase_unit = thetas * (2.0 * math.pi / F.log_eps)  # k=1 phase per ideal
    xi_tail_max = max(225.0 * F.D**1.5 / F.log_eps**2, 2.0 * mult * F.D**1.5)
    m_hi = int(math.sqrt(xi_tail_max) * k_hi) + 2
    fam = {}
    for a in (1, F.p1, F.p2, F.D):
        tab = lambda_square_table(src, m_hi, a=a)
        m = np.arange(m_hi + 1, dtype=np.float64)
        m[0] = 1.0
        fam[a] = tab / (math.sqrt(a) * m)
    for k in range(k_lo, k_hi + 1):
        n_k = int(mult * k * k * F.D**1.5)
        cut = int(np.searchsorted(norms, n_k, side="right"))
        grid = np.geomspace(1.0 / (k * k), xi_tail_max * 1.1, 400)
        wgrid = afe_weight_many(grid, F, k, src.t_psi)
        wv = np.interp(np.log(norms[:cut] / (k * k)), np.log(grid), wgrid)
        half = float(np.sum(pref[:cut] * np.cos(k * phase_unit[:cut]) * wv))
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
    return out


def l_one_phi_dense(F: FieldParams, m: int, X: float) -> float:
    """L(1, phi_m), m != 0, as 2 S(X) - S(X/2) with
    S(Y) = sum_{n <= 30 X} lambda_m(n) e^{-n/Y}/n over the dense table."""
    tab = lambda_k_table(F, abs(m), int(30 * X))
    n = np.arange(1, tab.size)

    def smoothed(Y: float) -> float:
        return float(np.sum(tab[1:] * np.exp(-n / Y) / n))

    return 2.0 * smoothed(X) - smoothed(X / 2.0)


def l_one_phi_sorted_scan(
    F: FieldParams, ms: tuple[int, ...], X: float = 4.0e5
) -> Mapping[int, float]:
    """{m: L(1, phi_m)} (read-only) for the m in ms, from one full-window
    ideal scan."""
    norms, thetas = rectangle_scan(F, int(25 * X))
    w = np.exp(-norms / X)
    coef = (2.0 * w - w * w) / norms
    del w
    out = {}
    for m in ms:
        ph = (math.pi * m / F.log_eps) * thetas
        out[m] = float(np.sum(coef * np.cos(ph)))
    return MappingProxyType(out)


def contour_sum_per_node(logx: np.ndarray, w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Re sum over nodes of e^{logx * w} g, for each entry of logx, with one
    exp, one cos and one sin per point and node."""
    out = np.empty(logx.size)
    chunk = max(1, (1 << 22) // w.size)
    for i0 in range(0, logx.size, chunk):
        lx = logx[i0 : i0 + chunk, None]
        out[i0 : i0 + chunk] = (
            np.exp(lx * w[None, :].real)
            * (np.cos(lx * w[None, :].imag) * g.real - np.sin(lx * w[None, :].imag) * g.imag)
        ).sum(axis=1)
    return out
