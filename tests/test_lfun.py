import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

from hecke_oracle import lambda_psi
from ideal_oracle import grossenchar, norm_oracle
from lfun_oracle import (
    NegativeCentralValue,
    afe_tail_bound,
    central_value,
    contour_sum_per_node,
    dirichlet_l_line_per_node,
    gamma_factor,
    gamma_ratio_stirling,
    l_one_phi_dense,
    l_one_phi_sorted_scan,
)
from maassqv import hecke
from maassqv.errors import MissingPrime, PoleInput
from maassqv.hecke import HeckeSource, make_source, primes_upto, read_table
from maassqv.ideals import kronecker_table, lambda_k_table
from maassqv.lfun import (
    _RESEED,
    _afe_line,
    _l_one_phi_bulk,
    _afe_nodes,
    _contour_nodes,
    _contour_sum,
    _dirichlet_l_line,
    _gl2_central,
    afe_weight_many,
    c_d_psi,
    classical_variance,
    constants,
    dirichlet_l_one,
    harmonic_sums,
    l_one_phi,
    l_one_sym2,
    lambda_psi_table,
    lambda_square_table,
    loggamma,
    nu_index,
    phase_steps,
    ramified_sum_factor,
    spectral_parameter,
    watson_ichino_mu2,
    zeta_d_two,
)
from maassqv.quadfield import make_field

LOG_EPS_21 = 1.5667992369724109


@pytest.fixture(scope="module")
def F():
    return make_field(21)


@pytest.fixture(scope="module")
def src():
    return make_source(synthetic=42, D=21)


def test_spectral_parameter(F):
    # t_m = pi m / log eps
    assert spectral_parameter(F, 2) == pytest.approx(2 * math.pi / LOG_EPS_21)
    assert spectral_parameter(F, 0) == 0.0


def test_loggamma_matches_scipy():
    # scipy is the oracle: Re z in [0.25, 1.5] (every argument the package
    # passes), |Im z| <= 2000, dense near the shift radius |z| = 10.  The
    # imaginary parts are compared mod 2 pi.  Over 400,000 such points the
    # worst gaps were 1.2e-14 (real part) and 4.7e-15 (phase), relative to
    # max(1, |value|); scipy against mpmath is of the same size.
    rng = np.random.default_rng(24)
    n = 20000
    y = np.concatenate(
        [rng.uniform(-20.0, 20.0, n), rng.uniform(-10.5, 10.5, n), rng.uniform(-2000.0, 2000.0, n)]
    )
    z = rng.uniform(0.25, 1.5, y.size) + 1j * y
    got, want = loggamma(z), scipy_loggamma(z)
    d_re = np.abs(got.real - want.real) / np.maximum(1.0, np.abs(want.real))
    d_phase = np.abs(np.angle(np.exp(1j * (got.imag - want.imag))))
    assert d_re.max() <= 2e-14
    assert (d_phase / np.maximum(1.0, np.abs(want.imag))).max() <= 1e-14
    # real z: math.lgamma, in the same measure (measured 8.9e-15)
    x = np.linspace(0.25, 30.0, 200)
    lg = np.array([math.lgamma(v) for v in x])
    assert np.max(np.abs(loggamma(x).real - lg) / np.maximum(1.0, np.abs(lg))) <= 2e-14


def test_gamma_factor_conjugate_symmetry(F):
    t2k = spectral_parameter(F, 6)
    for s in (0.5 + 0.3j, 1.1 - 0.2j):
        a = gamma_factor(s.conjugate(), 1.0, t2k)
        b = gamma_factor(s, 1.0, t2k).conjugate()
        assert abs(a - b) <= 1e-12 * abs(b)


def test_gamma_factor_is_product(F):
    t2k = spectral_parameter(F, 4)
    s = 0.7 + 0.1j
    want = math.pi ** 0.0  # assembled below
    prod = cmath.exp(-2 * s * math.log(math.pi))
    for e1 in (1, -1):
        for e2 in (1, -1):
            prod *= cmath.exp(scipy_loggamma((s + 1j * (e1 * 1.0 + e2 * t2k)) / 2))
    assert gamma_factor(s, 1.0, t2k) == pytest.approx(prod)


def test_gamma_ratio_stirling_convergence(F):
    # exact/asymptotic -> 1, within 1% by k=50, error <= C/k on [50, 500]
    devs = {}
    for k in (50, 100, 200, 500):
        exact, asym = gamma_ratio_stirling(1.0, spectral_parameter(F, 2 * k))
        devs[k] = abs(exact / asym - 1.0)
    assert devs[50] < 0.01
    C = max(k * d for k, d in devs.items())
    for k, d in devs.items():
        assert d <= 1.05 * C / k, (k, d)


def test_gamma_ratio_matches_section_display(F):
    # asymptotic form equals log(eps)/(pi k) at t_2k = 2 pi k / log eps
    for k in (10, 77):
        _, asym = gamma_ratio_stirling(0.0, spectral_parameter(F, 2 * k))
        assert asym == pytest.approx(F.log_eps / (math.pi * k))


def test_classical_variance():
    want = math.gamma(0.25) ** 4 / (2 * math.pi**2)
    assert classical_variance(0.0) == pytest.approx(want)
    assert want == pytest.approx(8.7540, abs=5e-4)
    for t in (0.5, 2.0, 7.3):
        assert classical_variance(t) == pytest.approx(classical_variance(-t))
    scan = [classical_variance(t) for t in np.linspace(0.0, 10.0, 41)]
    assert all(a > b > 0 for a, b in zip(scan, scan[1:]))


def test_dihedral_lambda_table_matches_ideal_route(F):
    reps = [norm_oracle(F, n) for n in range(1, 2001)]
    for m in (2, 6, 14):
        ref = np.array([0.0] + [sum(grossenchar(F, m, a) for a in r).real for r in reps])
        fast = lambda_k_table(F, m, 2000)
        assert np.max(np.abs(ref - fast)) < 1e-10, m


def test_lambda_psi_table_matches_direct(src):
    tab = lambda_psi_table(src, 3000)
    for n in range(1, 3001):
        assert tab[n] == pytest.approx(lambda_psi(src, n), abs=1e-12), n


def test_lambda_psi_table_short_prime_table(tmp_path):
    # one error for a table that ends too soon, whichever route reads past it
    path = tmp_path / "short.tbl"
    path.write_text("# D=21 t_psi=1.0 eta=+1 parity=even\n2 0.5\n3 0.2\n5 -1.0\n")
    short = read_table(str(path))
    assert lambda_psi_table(short, 6)[6] == pytest.approx(0.5 * 0.2)
    with pytest.raises(MissingPrime):
        lambda_psi_table(short, 100)
    with pytest.raises(MissingPrime):
        hecke.lambda_psi(short, [49])
    with pytest.raises(MissingPrime):
        lambda_square_table(short, 10)


def test_lambda_psi_table_propagates_other_errors():
    class Boom(Exception):
        pass

    # the table draws every lambda_psi(p) in one batch and runs the Hecke
    # recursion itself, so the failure is injected at that draw; sources are
    # frozen values, so the injection is a subclass
    class BoomSource(HeckeSource):
        def lambda_p_array(self, primes):
            raise Boom(primes)

    fresh = BoomSource(level=21, t_psi=1.0, eta_D=1, parity="even", prime_values={}, seed=42)
    with pytest.raises(Boom):
        lambda_psi_table(fresh, 100)


def test_lambda_psi_table_zero_hecke_values():
    # lambda(2) = 0, and lambda(5) = 1 gives lambda(25) = 0: the fill must
    # stay exact where a ratio of consecutive prime-power values is undefined
    synth = make_source(synthetic=7, D=21)
    values = {p: synth.lambda_p(p) for p in primes_upto(5000).tolist()}
    values[2] = 0.0
    values[5] = 1.0
    tab_src = HeckeSource(level=21, t_psi=1.0, eta_D=1, parity="even", prime_values=values)
    tab = lambda_psi_table(tab_src, 5000)
    want = [0.0] + [lambda_psi(tab_src, n) for n in range(1, 5001)]
    assert tab.tolist() == want
    assert tab[2] == 0.0 and tab[50] == 0.0 and tab[75] == 0.0


def test_table_sources_keyed_by_their_table(F):
    # two tables that differ in lambda(2) alone, called back to back, each
    # get their own values; a rebuilt copy of a table is the same source
    def table_source(values):
        return HeckeSource(level=21, t_psi=1.0, eta_D=1, parity="even", prime_values=values)

    synth = make_source(synthetic=5, D=21)
    values = {p: synth.lambda_p(p) for p in primes_upto(5000).tolist()}
    other = dict(values)
    other[2] = 0.5 * values[2]
    a, b = table_source(values), table_source(other)
    assert a != b and a == table_source(dict(values))
    assert len({a, b, table_source(dict(values))}) == 2
    assert l_one_sym2(a, F, 1.0e4) != l_one_sym2(b, F, 1.0e4)
    for twist in (False, True):
        assert _gl2_central(a, F, twist) != _gl2_central(b, F, twist)


@pytest.mark.parametrize("a", [1, 2, 3, 5, 11, 21])
def test_lambda_square_table_matches_pointwise(src, a):
    tab = lambda_square_table(src, 400, a=a)
    assert tab[0] == 0.0
    for m in range(1, 401):
        assert tab[m] == pytest.approx(lambda_psi(src, a * m * m), abs=1e-12), (a, m)


@pytest.mark.parametrize("X", [1.0e4, 2.0e5])
def test_l_one_sym2_matches_pointwise_sum(F, X):
    # the two cutoffs sit on either side of N^2 = 2^22, N = isqrt(40 X)
    fresh = make_source(synthetic=42, D=21)
    N = math.isqrt(int(40 * X))
    m = np.arange(1, N + 1)
    lam = np.array([lambda_psi(fresh, mm * mm) for mm in m.tolist()])
    want = zeta_d_two(F) * float(np.sum(lam / m * np.exp(-m * m / X)))
    assert l_one_sym2(fresh, F, X=X) == pytest.approx(want, rel=1e-12, abs=0.0)


def _w_shifts(F, k):
    # the four Gamma shifts i(+-t_psi +- t_2k) of the AFE weight W, t_psi = 1
    t2k = spectral_parameter(F, 2 * k)
    return [1j * (e1 * 1.0 + e2 * t2k) for e1 in (1.0, -1.0) for e2 in (1.0, -1.0)]


@pytest.mark.parametrize("k", [5, 50])
def test_afe_weight_contour_shift_invariance(F, k):
    xis = np.geomspace(1e-3, 1e3, 121)
    logx = 1.5 * math.log(F.D) - np.log(xis) - 2.0 * math.log(k)
    base = _contour_sum(logx, *_contour_nodes(_w_shifts(F, k), F, 1.0))
    assert base.tolist() == afe_weight_many(xis, F, k, 1.0).tolist()
    shifted = _contour_sum(logx, *_contour_nodes(_w_shifts(F, k), F, 0.5))
    assert np.max(np.abs(shifted - base)) < 1e-9


def _assert_contour_sum_matches_oracle(logx, w, g):
    # the block product carries the phase x (tau_Rm + tau_r) for x tau_{Rm+r}:
    # rounding of the size of every node's term, so the bound scales with
    # sum_j |g_j| e^{x Re w_j}, the sum before any cancellation
    got = _contour_sum(logx, w, g)
    want = contour_sum_per_node(logx, w, g)
    scale = np.exp(logx[:, None] * w.real[None, :]) @ np.abs(g)
    assert np.max(np.abs(got - want) / scale) <= 1e-14


@pytest.mark.parametrize("c", [0.5, 1.0])
@pytest.mark.parametrize("k", [3, 30, 60, 400])
@pytest.mark.parametrize("D", [21, 33, 77])
def test_contour_sum_matches_per_node_oracle_on_w_lines(D, k, c):
    # log x = 1.5 log D - log xi - 2 log k over the callers' xi: from
    # 1.5 log D + 1.4 (matched_sym2_cutoff's smallest n) down past -19
    Fd = make_field(D)
    w, g = _contour_nodes(_w_shifts(Fd, k), Fd, c)
    _assert_contour_sum_matches_oracle(np.linspace(-20.0, 1.5 * math.log(D) + 2.0, 2000), w, g)


@pytest.mark.parametrize("c", [0.5, 1.0])
@pytest.mark.parametrize("twist", [False, True])
@pytest.mark.parametrize("D", [21, 33, 77])
def test_contour_sum_matches_per_node_oracle_on_v_lines(D, twist, c):
    # _gl2_central's V at log x = log(q)/2 - log n, n = 1 .. 200 sqrt(q)
    q = float(D * D) if twist else float(D)
    w, g = _contour_nodes((1j, -1j), c=c)
    n = np.arange(1, int(200.0 * math.sqrt(q)) + 1)
    _assert_contour_sum_matches_oracle(0.5 * math.log(q) - np.log(n), w, g)


@pytest.mark.parametrize("size", [1, 31, 32, 33, 161])
def test_contour_sum_pads_synthetic_lines(size):
    # lines that end short of, on and just past a block of 32, and lines
    # that start off the real axis; g of size one at every node, so no node
    # (the padded last block's included) is negligible
    rng = np.random.default_rng(size)
    for c, tau0, h in ((0.7, 0.0, 0.05), (0.3, 1.3, 0.11), (1.0, -2.0, 0.05)):
        w = c + 1j * (tau0 + h * np.arange(size))
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        _assert_contour_sum_matches_oracle(np.linspace(-4.0, 4.0, 301), w, g)


@pytest.mark.parametrize(
    "ms",
    [range(7, 8), range(5, 108), range(1, 1601)],
    ids=["single-cos", "one-step-over-3-reseeds-cos", "to-1600-cos"],
)
def test_phase_steps_match_direct_harmonics(ms):
    # each seed's argument m x is off by up to half an ulp of 2 pi m, and
    # the recurrence carries the gap between two seeds across up to
    # _RESEED steps: a bound of 2 _RESEED such half-ulps, 4.5e-14 m
    # (measured at most 3.2e-14 m, at m <= 1600 on 4,096 random x)
    x = np.random.default_rng(len(ms)).uniform(0.0, 2.0 * math.pi, 4096)
    bound = 2 * _RESEED * 2.0 * math.pi * max(ms) * 2.0**-53
    for m, got in zip(ms, phase_steps(x, ms), strict=True):
        assert np.max(np.abs(got - np.cos(m * x))) <= bound, m


@pytest.fixture(scope="module")
def angles():
    # 20,000 angles uniform on [0, pi], with x = 0 and x = pi (the last bin,
    # u = 1) twice each, and coefficients of both signs
    x = np.random.default_rng(35).uniform(0.0, math.pi, 20000)
    x[:4] = [0.0, math.pi, math.pi, 0.0]
    coef = np.random.default_rng(36).standard_normal(x.size)
    return x, coef


def _harmonic_sums_per_m(x, coef, ms):
    # one np.cos and np.sin per m on exact arguments: x = hi + lo with hi
    # to 24 bits, so m hi is exact, where e^{i m x} would be off by up to an
    # ulp of m x per term; e^{i m x} = e^{i m hi} e^{i m lo}
    hi = x.astype(np.float32).astype(float)
    lo = x - hi
    out = []
    for m in ms:
        ch, sh, cl, sl = np.cos(m * hi), np.sin(m * hi), np.cos(m * lo), np.sin(m * lo)
        out.append(complex(np.sum(coef * (ch * cl - sh * sl)), np.sum(coef * (sh * cl + ch * sl))))
    return np.array(out)


@pytest.mark.parametrize(
    "ms",
    [
        [7],
        [0],
        [40, 2, 2, -6, 6, 40],
        list(range(2, 801, 2)),
        list(range(1000, 8001, 7)) + [8000],
        [8000],
        [8192, 8193, 12000, 16384, 16385, 20000],
        list(range(-12000, 20001, 37)),
    ],
    ids=["single", "zero", "unsorted-duplicates", "2..800", "1000..8000", "8000", "past-the-bins", "signed"],
)
def test_cosine_sums_match_per_m_cos(angles, ms):
    # harmonic_sums: every signed m off one set of binned Taylor moments
    # against one e^{i m x} per m (its real part the cosine sum, and m = -6
    # the sign of its imaginary part), within 1e-16 sum|coef|: measured at
    # most 2.3e-17 sum|coef| in every case (1.2e-17 for m >= 0), m up to
    # 4 _K_DESK = 8000 and, read modulo 2 B by conjugate symmetry, past the
    # 8192 bins to m = 20000 and down to m = -12000
    x, coef = angles
    got = harmonic_sums([(x, coef)], ms)
    assert got.shape == (len(ms),)
    assert np.max(np.abs(got - _harmonic_sums_per_m(x, coef, ms))) <= 1e-16 * np.sum(np.abs(coef))
    for i, m in enumerate(ms):  # a repeated m is the same value to the bit
        assert got[i] == got[ms.index(m)]


def test_cosine_sums_chunks_and_recomputation(angles):
    # many chunks against one chunk (measured 8.2e-18 sum|coef|), and a
    # recomputation bit for bit; x = 0 and x = pi alone give
    # 1 + e^{i m pi} to two ulps of 2, where the double pi is pi - delta,
    # delta = sin(pi) = 1.2e-16, so e^{i m pi} = (-1)^m e^{-i m delta}
    x, coef = angles
    ms = list(range(2, 8001, 2))
    cuts = [0, 1, 2, 4, 1000, 1001, 7777, 20004]  # an empty and a one-term chunk among them
    chunks = [(x[a:b], coef[a:b]) for a, b in zip(cuts, cuts[1:])]
    many = harmonic_sums(chunks, ms)
    assert np.max(np.abs(many - harmonic_sums([(x, coef)], ms))) <= 1e-16 * np.sum(np.abs(coef))
    assert harmonic_sums(chunks, ms).tobytes() == many.tobytes()
    ends = harmonic_sums([(np.array([0.0, math.pi]), np.ones(2))], [7, 8000])
    want = 1.0 + np.array([-1.0, 1.0]) * np.exp(-1j * np.array([7, 8000]) * math.sin(math.pi))
    assert np.max(np.abs(ends - want)) <= 1e-15


@pytest.mark.parametrize("s", [0.5 + 0j])
@pytest.mark.parametrize("c", [1.0, 0.5])
def test_dirichlet_l_line_matches_per_node_sum(admitted_fields, s, c):
    # the oracle takes any s; the line is only ever needed at the centre.
    # Measured at most 1.75e-15 relative over the six fields and both lines
    # (D = 77, c = 0.5)
    assert len(admitted_fields) == 6
    for F in admitted_fields:
        got = _dirichlet_l_line(F, c)
        want = dirichlet_l_line_per_node(F, s, c)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, F.D


@pytest.mark.parametrize("c", [0.0, 1.5])
def test_afe_line_rejects_lines_outside_zero_one(c):
    # right of Re w = 1 the contour self-check degrades (4e-7 at c = 1.5)
    with pytest.raises(ValueError):
        _afe_line(c)


@pytest.mark.parametrize("k", [1, 7, 30])
def test_afe_nodes_match_pointwise_gamma_factor(F, k):
    # the vectorized log Gamma nodes against gamma(s+w)/gamma(s) e^{w^2}/w
    # node by node, times the L(2w+2s, chi_D) line and the trapezoid weights
    t2k = spectral_parameter(F, 2 * k)
    w, g = _afe_nodes(F, k, 1.0)
    trap = np.full(w.size, 0.05 / math.pi)
    trap[[0, -1]] *= 0.5
    g0 = gamma_factor(0.5, 1.0, t2k)
    want = np.array(
        [gamma_factor(0.5 + wi, 1.0, t2k) / g0 * cmath.exp(wi * wi) / wi for wi in w.tolist()]
    ) * _dirichlet_l_line(F, 1.0) * trap
    assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))


def _gl2_central_on_line(src, F, twist, c):
    # _gl2_central's sum with V on the contour line Re w = c
    q, t = (float(F.D * F.D) if twist else float(F.D)), src.t_psi
    n = np.arange(1, int(200.0 * math.sqrt(q) * max(1.0, t)) + 1)
    lam = lambda_psi_table(src, n[-1])[1:]
    if twist:
        lam = lam * kronecker_table(F.D)[n % F.D]
    V = _contour_sum(0.5 * math.log(q) - np.log(n), *_contour_nodes((1j * t, -1j * t), c=c))
    return 2.0 * float(np.sum(lam / np.sqrt(n) * V))


@pytest.mark.parametrize("twist", [False, True])
def test_gl2_central_contour_shift_invariance(src, F, twist):
    assert _gl2_central_on_line(src, F, twist, 1.0) == _gl2_central(src, F, twist)
    shifted = _gl2_central_on_line(src, F, twist, 0.5)
    assert shifted == pytest.approx(_gl2_central(src, F, twist), abs=1e-9)


def test_afe_weight_small_xi_is_l_one_chi(F):
    # W(xi) -> L(1, chi_D) = 2 h log eps / sqrt(D), h = 1
    want = 2 * LOG_EPS_21 / math.sqrt(21)
    got = afe_weight_many(np.array([1e-3]), F, 100, 1.0)[0]
    assert abs(got / want - 1.0) < 0.02


def test_afe_weight_decay(F):
    # far past the conductor scale the weight is negligible
    assert abs(afe_weight_many(np.array([1e3 * 21**1.5]), F, 3, 1.0)[0]) <= 1e-6
    # monotone tail: |W(2 xi)| <= |W(xi)| + 1e-8 for xi = 10, 20, .., 10240
    xis = 10.0 * 2.0 ** np.arange(12)
    w = np.abs(afe_weight_many(xis, F, 3, 1.0))
    for xi, w1, w2 in zip(xis, w, w[1:]):
        assert w2 <= w1 + 1e-8, xi
    # heuristic tail bound dominates the computed values
    for x in (200.0, 1e3, 1e4, 1e5):
        w = afe_weight_many(np.array([x]), F, 3, 1.0)[0]
        assert abs(w) <= afe_tail_bound(F, x), x


def test_afe_weight_rejects_k_zero(F):
    with pytest.raises(PoleInput):
        afe_weight_many(np.array([1.0]), F, 0, 1.0)


def test_central_value_eta_minus_one_vanishes(F, src_minus):
    assert central_value(src_minus, F, 3) == 0.0


def test_central_value_self_consistency(src, F):
    for k in (1, 2, 3):
        v1 = central_value(src, F, k)
        v2 = central_value(src, F, k, series_cutoff_multiplier=200.0)
        assert abs(v1 - v2) <= 1e-4 * max(abs(v2), 1.0), k


def test_central_value_even_in_k(src, F):
    for k in (2, 3):
        assert central_value(src, F, k) == central_value(src, F, -k)


def test_central_value_positivity_sweep(F):
    # Lapid positivity for a source whose synthetic coefficients keep all
    # sampled central values nonnegative (fake coefficient sets are not
    # genuine forms, so the seed is part of the fixture)
    src11 = make_source(synthetic=11, D=21)
    for k in range(1, 13):
        assert central_value(src11, F, k) >= -1e-3, k
    # larger k at reduced series cutoff
    for k in (16, 25, 40):
        assert central_value(src11, F, k, 30.0) >= -1e-3 - afe_tail_bound(
            F, 30.0 * 21**1.5
        ), k


def test_central_value_negative_guard(F):
    # a synthetic source with a decisively negative central value trips the guard
    src7 = make_source(synthetic=7, D=21)
    with pytest.raises(NegativeCentralValue):
        central_value(src7, F, 4)


def test_central_value_rejects_k_zero(src, F):
    with pytest.raises(PoleInput):
        central_value(src, F, 0)


def test_l_one_chi_class_number(F):
    want = 2 * LOG_EPS_21 / math.sqrt(21)
    assert abs(dirichlet_l_one(F) - want) < 1e-6


def test_l_one_chi_holds_one_block(F):
    # tracemalloc counts numpy's buffers: the 800,000 terms are summed in
    # blocks, so the sum holds about three 2^16-term arrays at a time
    tracemalloc.start()
    try:
        value = dirichlet_l_one.__wrapped__(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == dirichlet_l_one(F)
    assert peak <= 2e6


def test_zeta_d_two_closed_form(F):
    assert zeta_d_two(F) == pytest.approx(math.pi**2 / 6 * (1 - 1 / 9) * (1 - 1 / 49))


def test_l_one_phi_self_consistent(F):
    a = _l_one_phi_bulk(F, (6,), 10000.0)[6]
    b = _l_one_phi_bulk(F, (6,), 20000.0)[6]
    assert abs(a - b) < 1e-3
    assert l_one_phi(F, 6) == b  # the conductor rule's cutoff at m = 6
    with pytest.raises(PoleInput):
        l_one_phi(F, 0)


@pytest.mark.parametrize("m", [6, 20, 60])
def test_l_one_phi_matches_dense_table_route(F, m):
    # the bulk ideal-scan engine against the dense lambda_m table
    want = l_one_phi_dense(F, m, 2.0e4)
    assert _l_one_phi_bulk(F, (m,), 2.0e4)[m] == pytest.approx(want, rel=1e-14, abs=0.0)
    assert l_one_phi(F, -m) == l_one_phi(F, m)


@pytest.mark.parametrize(
    "ms",
    [
        tuple(range(2, 81, 2)),  # 40 m on 2048 bins, moments to p = 8
        tuple(range(200, 801, 2)),  # the bin cap: 8192 bins, p to 10
        (2, 4, 10, 12, 14, 40),  # uneven gaps: each m read alone off the spectra
        (40, 2, 2, 6),  # unsorted, with a duplicate
        (14,),  # one m: 256 bins, the fewest here
        # the desk top m = 4 _K_DESK on the capped bins, p to 21, with m = 2
        # on the same bins.  Measured 8.3e-13 at m = 8000: the rounding of
        # theta differs between the half-window and the full-window scans,
        # and over m = 2000..8000 in steps of 40 that alone moves
        # long-double sums of the two scans apart by up to 9.9e-13, so a
        # dense range there is not held to 1e-12 by any route;
        # test_cosine_sums_match_per_m_cos covers m <= 8000 on one set of
        # angles
        (2, 8000),
    ],
    ids=["2..80", "200..800", "mixed-steps", "unsorted-duplicate", "single", "2-and-8000"],
)
def test_l_one_phi_bulk_matches_sorted_scan(F, ms):
    # the streamed angle moments of harmonic_sums against one np.cos per m
    # over the norm-sorted scan
    got = _l_one_phi_bulk(F, ms, 2.0e4)
    want = l_one_phi_sorted_scan(F, ms, 2.0e4)
    assert sorted(got) == sorted(set(ms))
    for m in ms:
        assert got[m] == pytest.approx(want[m], rel=1e-12, abs=0.0), m


def test_l_one_sym2_local_identity(src):
    # sum_j lambda(p^{2j}) x^j equals the symmetric-square local factor
    # times (1 - x^2): the closed form behind the zeta_D(2) correction
    for p in (2, 5, 11, 13):
        x = 1.0 / p
        lam = src.lambda_p(p)
        series = sum(src.lambda_pp(p, 2 * j) * x**j for j in range(300))
        local = 1.0 / ((1.0 - (lam * lam - 2.0) * x + x * x) * (1.0 - x))
        assert series == pytest.approx(local * (1.0 - x * x), rel=1e-12), p
    # ramified model: lambda(p^{2j}) = p^{-j} gives the geometric local factor
    for p in (3, 7):
        x = 1.0 / p
        series = sum(src.lambda_pp(p, 2 * j) * x**j for j in range(300))
        assert series == pytest.approx(1.0 / (1.0 - x / p), rel=1e-12), p


def test_l_one_sym2_regularized_value(src, F):
    # synthetic coefficient sets make sum lambda(p^2)/p drift like
    # sum 1/p, so the value is a slowly moving regularization: bounded
    # drift per cutoff doubling rather than convergence
    a = l_one_sym2(src, F, X=10000.0)
    b = l_one_sym2(src, F, X=20000.0)
    assert a > 0 and b > 0
    assert abs(b / a - 1.0) < 0.15


def test_l_values_bundle(src, F):
    # the four auxiliary values behind the constants, at one cutoff X
    X = 20000.0
    l_phi = _l_one_phi_bulk(F, (6,), X)[6]
    vals = (dirichlet_l_one(F), zeta_d_two(F), l_phi, l_one_sym2(src, F, X))
    assert all(math.isfinite(v) and v != 0.0 for v in vals)


def test_ramified_sum_factors(src, F):
    want = (1 + src.lambda_p(3) / math.sqrt(3)) * (1 + src.lambda_p(7) / math.sqrt(7))
    assert ramified_sum_factor(src, F) == pytest.approx(want)


def test_constants(src, F):
    cs = constants(F, src)
    assert set(cs) == {"C_Dpsi_prime", "A_h", "C_Dpsi_prime_tail"}
    X = 20000.0
    want = (
        2.0
        * dirichlet_l_one(F)
        / zeta_d_two(F)
        * l_one_sym2(src, F, X)
        * ramified_sum_factor(src, F)
    )
    assert c_d_psi(src, F, X) == pytest.approx(want, rel=1e-9)
    assert cs["C_Dpsi_prime"] > 0
    assert cs["C_Dpsi_prime_tail"] < 0.05


def test_constants_p_dividing_d_factor(F):
    # the p | D part of the C' product is (1 - 1/p)^2 per prime
    assert (1 - 1 / 3) ** 2 * (1 - 1 / 7) ** 2 == pytest.approx(
        (1 - 2 / 3 + 1 / 9) * (1 - 2 / 7 + 1 / 49)
    )


def test_nu_index():
    assert nu_index(1) == 1
    assert nu_index(21) == 32  # 21 * (4/3) * (8/7)
    assert nu_index(12) == 24


def test_watson_ichino(src, F):
    lhalf = central_value(src, F, 3)
    lsym2 = l_one_sym2(src, F, 20000.0)
    base = watson_ichino_mu2(F, src, 3, lhalf, lsym2)
    assert base >= 0.0
    # linear in the supplied central value, inverse in L(1, sym^2 psi)
    doubled = watson_ichino_mu2(F, src, 3, 2 * lhalf, lsym2)
    assert doubled == pytest.approx(2 * base, rel=1e-12)
    halved = watson_ichino_mu2(F, src, 3, lhalf, 2 * lsym2)
    assert halved == pytest.approx(base / 2, rel=1e-12)
    # odd spectral data contributes nothing
    src_odd = replace(src, parity="odd")
    assert watson_ichino_mu2(F, src_odd, 3, lhalf, lsym2) == 0.0
    with pytest.raises(PoleInput):
        watson_ichino_mu2(F, src, 0, lhalf, lsym2)
