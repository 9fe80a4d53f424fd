import cmath
import functools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from halfint_oracle import (
    c_assembled,
    chi_mod2k,
    chi_modpk,
    contour_value_per_node,
    d_series,
    gauss_closed,
    gauss_sum,
    inverted_value,
    parity,
    symsq_factor_check,
)
from maassqv.errors import (
    BadDecomposition,
    EvenInput,
    HypothesisViolated,
    Overflow,
    PoleInput,
    QuadratureNonconvergent,
    TruncationInsufficient,
    WindowViolation,
)
from maassqv.halfint import (
    QuadPoly,
    b_direct,
    b_residue,
    b_series,
    c_closed,
    c_series,
    eisenstein_residue_const,
    epsilon_d,
    _DTAU,
    _contour_taus,
    _contour_value,
    _d_psi_coefficients,
    _max_nonzero_mprime,
    make_level,
    nonsplit_sum,
    reduction_check,
    zeta_factor_at_M,
)
import halfint_oracle
from maassqv import experiments, halfint
from maassqv.cli import main
from maassqv.hecke import make_source
from maassqv.ideals import kronecker
from maassqv.weights import W_NONSPLIT


@pytest.fixture(scope="module")
def src():
    return make_source(synthetic=42, D=21)


@functools.cache
def _mellin(Y: float, dtau: float) -> np.ndarray:
    """Wtilde(1 + i tau) on the tau >= 0 nodes of the contour at Y, as
    `reduction_check` reads it, kept for the test run."""
    return W_NONSPLIT.mellin(1.0 + 1j * np.array(_contour_taus(Y, dtau)))


def test_epsilon_d():
    assert epsilon_d(1) == 1
    assert epsilon_d(3) == 1j
    for d in range(-99, 100, 2):
        assert abs(epsilon_d(d) ** 2 - kronecker(-4, d)) < 1e-12
    with pytest.raises(EvenInput):
        epsilon_d(4)


def test_gauss_sum_examples():
    assert gauss_sum(1, np.ones(1, dtype=complex)) == pytest.approx(1.0)
    chi_m4 = np.array([0.0, 1.0, 0.0, -1.0], dtype=complex)
    assert gauss_sum(1, chi_m4) == pytest.approx(2j)
    chi_m3 = np.array([float(kronecker(-3, d)) for d in range(3)], dtype=complex)
    assert gauss_sum(4, chi_m3) == pytest.approx(1j * math.sqrt(3))


def test_gauss_closed_vs_brute():
    for m in (1, 2, 3, 6, 7, 12, 21):
        n = m * m
        for k in (0, 2, 3, 4, 5, 6):
            got = gauss_closed(n, "G8", k)
            assert abs(got - gauss_sum(n, chi_mod2k(k, False))) < 1e-10, (m, k)
            if k >= 2:
                got = gauss_closed(n, "Gneg8", k)
                assert abs(got - gauss_sum(n, chi_mod2k(k, True))) < 1e-10, (m, k)
        for p in (3, 7):
            for k in range(6):
                got = gauss_closed(n, "Gp", k, p=p)
                assert abs(got - gauss_sum(n, chi_modpk(p, k))) < 1e-10, (m, p, k)


def test_gauss_closed_branch_examples():
    # alpha(3) = 0 cases
    assert gauss_closed(4, "Gp", 1, p=3) == pytest.approx(1j * math.sqrt(3))
    assert gauss_closed(4, "Gneg8", 4) == pytest.approx(2j * 4)  # k = 2a0+2
    assert gauss_closed(4, "G8", 7) == 0.0  # odd k != 2a0+3
    with pytest.raises(BadDecomposition):
        gauss_closed(12, "G8", 4)  # odd valuation at 3 in the prime list
        # (12 = 4*3 with 3 in odd_primes)
    with pytest.raises(BadDecomposition):
        gauss_closed(3, "G8", 4)  # cofactor 3 is not a square


def test_make_level():
    L = make_level(1764)
    assert (L.beta0, L.p1, L.beta1, L.p2, L.beta2) == (2, 7, 2, 3, 2)
    for bad in (2, 6, 20, 4 * 5):
        with pytest.raises(BadDecomposition):
            make_level(bad)


def test_make_level_refuses_unfactorable_M_at_once():
    start = time.perf_counter()
    with pytest.raises(Overflow, match="trial-division limit"):
        make_level(4 * 1000000007 * 1000000087)  # two primes = 3 mod 4
    assert time.perf_counter() - start < 1.0


def test_c_three_routes_agree():
    # brute series == Chinese-remainder assembly == merged product display
    for M in (4, 12, 84):
        L = make_level(M)
        for m in (1, 2, 4, 6, 7, 12):
            n = m * m
            for s in (0.75, 1.1):
                brute = c_series(n, s, L, bound=4 * _max_nonzero_mprime(n, L))
                assert abs(brute - c_assembled(n, L, s)) < 1e-12, (M, m, s)
                assert abs(brute - c_closed(m, L, s)) < 1e-12, (M, m, s)


def test_c_closed_at_three_quarters():
    # (1+i)/2 * prod p_j^{-[(beta_j+1)/2]}
    assert c_closed(1, make_level(4)) == pytest.approx((1 + 1j) / 4)
    got = c_closed(2, make_level(84))
    assert got == pytest.approx((1 + 1j) / 2 / (2 * 7 * 3))


def test_c_forced_zero_branches():
    L = make_level(1764)  # beta1 = beta2 = 2
    for m in (1, 5, 25):  # coprime to 21: 2*alpha_j + 1 < beta_j
        assert c_closed(m, L) == 0.0
        assert abs(c_series(m * m, 0.75, L, bound=10 * L.M)) < 1e-12


def test_c_series_errors():
    L = make_level(4)
    with pytest.raises(PoleInput):
        c_closed(0, L, 0.4)
    with pytest.raises(BadDecomposition):
        c_assembled(3, L, 0.75)


def test_c_series_sums_in_blocks_of_d():
    # M' up to 2^21 is 16 blocks of odd d: the blocked sum keeps c_closed's
    # value, and tracemalloc (which counts numpy's buffers) sees about one
    # block's arrays at a time, where one array per M' held about 20 bytes
    # per unit of M'
    L = make_level(4)
    tracemalloc.start()
    try:
        brute = c_series(256 * 256, 0.75, L, bound=1 << 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(brute - c_closed(256, L, 0.75)) < 1e-12
    assert peak <= 8e6


def test_c_zero_closed_vs_brute():
    for M in (4, 84):
        L = make_level(M)
        brute = c_series(0, 1.0, L, bound=1 << 18)
        assert abs(brute - c_closed(0, L, 1.0)) < 1e-4
        # e(1/8) 2^{-1/2} normalization at s = 3/4
        want = cmath.exp(1j * math.pi / 4) / math.sqrt(2)
        for p, beta in ((2, L.beta0),) + L.odd_primes:
            want *= float(p) ** (-((beta + 1) // 2))
        assert c_closed(0, L) == pytest.approx(want)


def test_b_series_vs_direct():
    L = make_level(4)
    for n in (0, 2, 3, 5, 45):
        assert abs(b_series(n, 1.5, L) - b_direct(n, 1.5, L)) < 1e-5, n
    # square n converges more slowly (trivial twist)
    assert abs(b_series(1, 1.5, L) - b_direct(1, 1.5, L)) < 1e-4


def test_b_residue():
    L = make_level(4)
    assert zeta_factor_at_M(L) == pytest.approx(2.0)
    base = 1.0 / (4 * 2 * (math.pi**2 / 8))
    assert b_residue(0, L) == pytest.approx(base)
    assert b_residue(36, L) == pytest.approx(2 * base)
    assert b_residue(12, L) == 0.0


def test_b_divisor_identity():
    # sum over l1*l2 | m, (l1*l2, M)=1 of mu(l1)/(l1*l2) = 1
    from sympy import divisors, mobius

    for m in range(1, 501):
        total = Fraction(0)
        for l12 in divisors(m):
            if math.gcd(l12, 4) != 1:
                continue
            for l1 in divisors(l12):
                mu = int(mobius(l1))
                if mu:
                    total += Fraction(mu, l12)
        assert total == 1, m


def test_b_errors():
    L = make_level(4)
    with pytest.raises(TruncationInsufficient):
        b_series(5, 0.5, L)
    with pytest.raises(PoleInput):
        b_series(1, 0.75, L)
    with pytest.raises(PoleInput):
        b_series(0, 0.74, L)


def test_eisenstein_residue_const():
    assert eisenstein_residue_const(make_level(4)) == pytest.approx(
        1.0 / (2 * math.pi), abs=1e-12
    )
    # raising beta_0 by 2 scales the constant by 1/2 (same prime support)
    r4 = eisenstein_residue_const(make_level(4))
    r16 = eisenstein_residue_const(make_level(16))
    assert r16 / r4 == pytest.approx(0.5)
    r84 = eisenstein_residue_const(make_level(84))
    want = (
        math.pi
        / (4 * zeta_factor_at_M(make_level(84)))
        / (math.pi**2 / 6 * (1 - 0.25) * (1 - 1 / 49) * (1 - 1 / 9))
        / (2 * 7 * 3)
    )
    assert r84 == pytest.approx(want, rel=1e-12)


def test_quad_poly():
    Q = QuadPoly(1, 0, -21)
    assert (Q.Delta, Q.d, Q.a_prime, Q.b_prime) == (84, 2, 1, 0)
    Q = QuadPoly(3, 3, -5)
    assert (Q.Delta, Q.d, Q.a_prime, Q.b_prime) == (69, 3, 2, 1)
    with pytest.raises(HypothesisViolated):
        QuadPoly(-1, 0, 21)
    with pytest.raises(HypothesisViolated):
        QuadPoly(0, 1, 1)
    with pytest.raises(HypothesisViolated):
        QuadPoly(1, 0, 21)  # Delta < 0


def test_d_series_unsolvable_is_zero(src):
    # n^2 = 2 mod 4 has no solution, so every lambda argument is fractional
    v, _ = d_series(src, np.ones(1, dtype=complex), 1, 1.2, 2, 1, 2000)
    assert v == 0.0


def test_d_series_self_consistency(src):
    rng = random.Random(5)
    for _ in range(20):
        t = rng.choice([1, 4, 9])
        a = rng.choice([1, 2, 3])
        Delta = rng.randint(1, 200)
        chi = np.ones(1, dtype=complex)
        s = 1.0 + rng.random()
        v1, tail1 = d_series(src, chi, t, s, Delta, a, 2000)
        v2, _ = d_series(src, chi, t, s, Delta, a, 4000)
        assert abs(v1 - v2) <= tail1 + 1e-12


def test_d_series_truncation_error(src):
    with pytest.raises(TruncationInsufficient):
        d_series(src, np.ones(1, dtype=complex), 1, 0.7, 84, 1, 100)


def test_nonsplit_sum_window(src):
    # [100, 200] falls between consecutive values 99 and 224 of 25n^2 - 1
    assert nonsplit_sum(src, QuadPoly(25, 0, -1), 100.0) == 0.0
    with pytest.raises(WindowViolation):
        nonsplit_sum(src, QuadPoly(1, 0, -21), 30.0)


def test_nonsplit_decay(src):
    S = nonsplit_sum(src, QuadPoly(1, 0, -21), 1e6)
    assert abs(S) / 1e3 <= 0.5  # |S| / sqrt(Y) stays small: no main term


def test_contour_values_pinned(src):
    # the values of the plain route -- both Mellin quadratures at every s,
    # D_psi evaluated afresh for each Y -- at Y = 1e4, to the last bit
    Q = QuadPoly(1, 0, -21)
    mellin = _mellin(1e4, 0.2)
    assert _contour_value(src, Q, (1e4,), 0.2, False, mellin)[0][0] == complex(
        8.310368473613812, -0.012224697371408619
    )
    assert _contour_value(src, Q, (1e4,), 0.2, True, mellin)[0][0] == complex(
        8.310368493379507, -0.012224697371738721
    )
    rep = reduction_check(src, Q, 1e4, False)
    assert rep.computed == 0.03289940252972379
    assert rep.tolerance == 0.217488456501452
    assert rep.extra["imag_part"] == 0.012202636161279649
    rep = reduction_check(src, Q, 1e4, True)
    assert rep.computed == 0.032893003844968405
    assert rep.tolerance == 0.21749051908746
    # a' = 2: the first form tests n = +-b' mod 2, the second form runs at
    # modulus 1; they agree because lambda vanishes at even n here
    Q = QuadPoly(3, 3, -5)
    want = complex(-4.206292140066351, 0.0014794147723689855)
    assert _contour_value(src, Q, (1e4,), 0.2, False, mellin)[0][0] == want
    assert _contour_value(src, Q, (1e4,), 0.2, True, mellin)[0][0] == want


@pytest.mark.parametrize("dtau", [0.2, 0.1])
@pytest.mark.parametrize("Y", [1e4, 4e4])
@pytest.mark.parametrize("abc", [(1, 0, -21), (3, 3, -5), (7, 7, -7)])
def test_contour_value_matches_per_node_oracle(src, abc, Y, dtau):
    # one exp per tau >= 0, conjugated for -tau, gives the per-node floats;
    # both trapezoids, the coarse one anchored at tau = 0; the pass at
    # (Y/4, Y) gives each height the floats of its own contour
    Q = QuadPoly(*abc)
    mellin = _mellin(Y, dtau)
    for second_form in (False, True):
        got = _contour_value(src, Q, (Y / 4, Y), dtau, second_form, mellin)
        want = [contour_value_per_node(src, Q, y, dtau, second_form) for y in (Y / 4, Y)]
        assert got == want, second_form


def test_contour_value_heights_of_different_n(src, monkeypatch):
    # Q = (1, 0, -21) in the second form at Y = 1e5: D_psi has N = 2000 at
    # y_ref and 2539 at Y, so y_ref sums a prefix of each exp row
    Ns = []

    def recorded(src, Q, N, second_form):
        Ns.append(N)
        return _d_psi_coefficients(src, Q, N, second_form)

    monkeypatch.setattr(halfint_oracle, "_d_psi_coefficients", recorded)
    Q, Y = QuadPoly(1, 0, -21), 1e5
    got = _contour_value(src, Q, (Y / 4, Y), _DTAU, True, _mellin(Y, _DTAU))
    assert got == [contour_value_per_node(src, Q, y, _DTAU, True) for y in (Y / 4, Y)]
    assert Ns == [2000, 2539]


# |contour.real - inverted.real| measured at the bench input Q = (1, 0, -21):
# its two contour heights y_ref = 1e4 and Y = 4e4, both forms, each at the
# dtau its report uses; the bounds are the measurements, rounded up
_INVERSION_GAP = {
    (42, 1e4, False): 6.7e-6,
    (42, 1e4, True): 1.4e-5,
    (42, 4e4, False): 3.7e-5,
    (42, 4e4, True): 4.7e-5,
    (7, 1e4, False): 1.4e-5,
    (7, 1e4, True): 2.2e-5,
    (7, 4e4, False): 1.3e-4,
    (7, 4e4, True): 6.9e-5,
}


@pytest.mark.parametrize("seed, Y, second_form", list(_INVERSION_GAP))
def test_contour_against_exact_inversion(seed, Y, second_form):
    # the tau-trapezoid's error against the finite Dirichlet series it
    # integrates: the evidence for replacing the contour by the inversion
    src = make_source(synthetic=seed, D=21)
    Q = QuadPoly(1, 0, -21)
    dtau = _DTAU if second_form else _DTAU / 2
    [(contour, _)] = _contour_value(src, Q, (Y,), dtau, second_form, _mellin(Y, dtau))
    gap = abs(contour.real - inverted_value(src, Q, Y, second_form).real)
    assert gap <= _INVERSION_GAP[seed, Y, second_form]


def test_second_form_rejected_before_any_sum(monkeypatch, capsys):
    # a = 2 is even: `nonsplit` fails on the second form's precondition
    # before the decay scan or the first-form check sums anything
    def refuse(*args, **kwargs):
        raise AssertionError("a sum ran before the precondition was checked")

    for mod in (halfint, experiments):
        monkeypatch.setattr(mod, "nonsplit_sum", refuse)
    monkeypatch.setattr(halfint, "_contour_value", refuse)
    assert main(["nonsplit", "--a", "2", "--b", "1", "--c", "-5", "--Ymax", "1e4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("maassqv: WindowViolation: ") and "second form" in err


def test_one_contour_per_form_and_height(monkeypatch, capsys):
    # the halving check reads its coarse trapezoid off the same nodes, and
    # y_ref = 1e4 reads its exps off the pass at Y = 4e4: each form makes
    # one D_psi pass, which gives both heights
    calls, Ns = [], []

    def counted(*args):
        calls.append(args[2:5])
        return _contour_value(*args)

    def coefficients(src, Q, N, second_form):
        Ns.append((N, second_form))
        return _d_psi_coefficients(src, Q, N, second_form)

    monkeypatch.setattr(halfint, "_contour_value", counted)
    monkeypatch.setattr(halfint, "_d_psi_coefficients", coefficients)
    assert main(["nonsplit", "--Ymax", "4e4"]) == 0
    capsys.readouterr()
    assert calls == [((1e4, 4e4), _DTAU / 2, False), ((1e4, 4e4), _DTAU, True)]
    assert Ns == [(2000, False), (2000, True)]


@pytest.mark.parametrize("second_form", [False, True])
def test_halving_check_guards_both_forms(src, monkeypatch, second_form):
    # at a zero bound any move of the step-2 dtau trapezoid is a failure,
    # named with its form, its Y and the move against the bound
    monkeypatch.setattr(halfint, "_HALVING_TOL", 0.0)
    name = "reduction_check_second_form" if second_form else "reduction_check"
    want = rf"^{name} at Y = 10000: .* by \S+, past the bound 0\.00e\+00$"
    with pytest.raises(QuadratureNonconvergent, match=want):
        reduction_check(src, QuadPoly(1, 0, -21), 4e4, second_form)


@pytest.mark.parametrize("second_form", [False, True])
def test_reduction_past_the_mellin_table_is_refused_before_any_sum(src, monkeypatch, second_form):
    # the Python route has no --Ymax bound: at Y = 4e9 the contour's nodes
    # run past the table's T = 899.5, and the refusal comes before D_psi
    def refuse(*args):
        raise AssertionError("a D_psi pass ran")

    monkeypatch.setattr(halfint, "_d_psi_coefficients", refuse)
    monkeypatch.setattr(halfint, "nonsplit_sum", refuse)
    with pytest.raises(HypothesisViolated, match="not a contour node"):
        reduction_check(src, QuadPoly(1, 0, -21), 4e9, second_form)


def _table(r: int, f) -> np.ndarray:
    return np.array([complex(f(n)) for n in range(r)])


@pytest.mark.parametrize(
    "abc, chars",
    [
        # principal character and chi_{-4} mod 4
        ((2, 1, -5), [_table(4, lambda n: n % 2), _table(4, lambda n: kronecker(-4, n))]),
        # principal and odd character mod 6
        (
            (3, 1, -1),
            [
                _table(6, lambda n: math.gcd(n, 6) == 1),
                _table(6, lambda n: {1: 1, 5: -1}.get(n, 0)),
            ],
        ),
    ],
)
def test_d_psi_coefficients_match_character_sums(src, abc, chars):
    # D_psi(s) = (1/phi(a')) sum_chi conj chi(b') (sqrt2 d)^nu D_{psi,chi,d^2}(s)
    Q = QuadPoly(*abc)
    assert Q.a_prime == chars[0].size  # phi(4) = phi(6) = 2 = len(chars)
    s, N = 1.3, 2000
    amp, logu = _d_psi_coefficients(src, Q, N, False)
    got = complex(np.sum(amp * np.exp(-s * logu)))
    want = sum(
        chi[Q.b_prime % chi.size].conjugate()
        * (math.sqrt(2) * Q.d) ** parity(chi)
        * d_series(src, chi, Q.d * Q.d, s, Q.Delta, Q.a, N)[0]
        for chi in chars
    ) / len(chars)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_reduction_second_form(src):
    rep = reduction_check(src, QuadPoly(3, 3, -5), 4e4, True)
    assert rep.passed, (rep.computed, rep.tolerance)


def test_symsq_factorization(src):
    rep = symsq_factor_check(src, np.ones(1, dtype=complex), 1, 1, 1.5, truncation=100000)
    assert rep.passed and rep.computed <= 1e-6
    # both sides pinned bit for bit: the Euler product draws one lambda(p^{2l})
    # array per l, summed in ascending l per p and multiplied in ascending p
    assert rep.extra["lhs"] == "(0.23129803716736966+0j)"
    assert rep.extra["rhs"] == "(0.23129804213065222+0j)"
    om = np.array([float(kronecker(n, 5)) for n in range(5)], dtype=complex)  # (n/5), even
    rep = symsq_factor_check(src, om, 3, 2, 1.6, truncation=50000)
    assert rep.computed <= 1e-5
    assert rep.extra["lhs"] == "(0.019463443701909885+0j)"
    assert rep.extra["rhs"] == "(0.019463443695416395+0j)"
    # t' a1 = 7: the prime 7 reads lambda(7^{2l + 1}) in place of the draw
    rep = symsq_factor_check(src, om, 84, 3, 1.6 + 0.3j, truncation=20000)
    assert rep.extra["rhs"] == "(0.2859424318817317+0.03959530759578854j)"
    with pytest.raises(TruncationInsufficient):
        symsq_factor_check(src, np.ones(1, dtype=complex), 1, 1, 0.7)
    # even sources have lambda(-1) = 1
    from maassqv.hecke import lambda_psi

    assert lambda_psi(src, [-1]).tolist() == [1.0]


@pytest.mark.parametrize("t,a", [(1, 1), (3, 2), (9, 3)])
def test_symsq_lhs_table_matches_pointwise_sum(src, t, a):
    # the lhs reads one lambda_square_table; the pointwise route tests
    # 4a | t n^2 at every n and evaluates lambda_psi(t n^2 / 4a) one by one
    from hecke_oracle import lambda_psi

    om = np.array([float(kronecker(n, 5)) for n in range(5)], dtype=complex)
    s, truncation = 1.6, 2000
    u = 2 * s - 0.5
    want = sum(
        lambda_psi(src, t * n * n // (4 * a)) * np.conjugate(om[n % om.size]) * float(n) ** (-u)
        for n in range(1, truncation + 1)
        if (t * n * n) % (4 * a) == 0
    )
    rep = symsq_factor_check(src, om, t, a, s, truncation=truncation)
    got = complex(rep.extra["lhs"])
    assert want != 0
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)
