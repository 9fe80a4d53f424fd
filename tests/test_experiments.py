import functools
import math
import tracemalloc

import numpy as np
import pytest

from maassqv import experiments
from maassqv.errors import HypothesisViolated, TruncationInsufficient
from maassqv.experiments import (
    central_values_bulk,
    diagonal_check,
    dirichlet_poly_check,
    expected_value,
    first_moment,
    matched_sym2_cutoff,
    moment_bound_check,
    mu_2k_table,
    nonsplit_decay_scan,
    poisson_check,
    variance_table,
)
from hecke_oracle import mu_2k
from lfun_oracle import central_value, central_values_per_k
from maassqv.halfint import QuadPoly
from maassqv.hecke import make_source, primes_upto
from maassqv.ideals import kronecker_table, lambda_k
from maassqv.lfun import _afe_nodes
from maassqv.quadfield import QuadInt, make_field, multiply
from maassqv.weights import PHI, W_NONSPLIT
from weights_oracle import mellin_qags


@pytest.fixture(scope="module")
def F():
    return make_field(21)


@pytest.fixture(scope="module")
def src():
    return make_source(synthetic=42, D=21)


def test_smooth_weight_kinds():
    # the experiments' window lives on (1/2, 2), the non-split one on (1, 2)
    assert (PHI.x0, PHI.x1) == (0.5, 2.0)
    assert PHI(0.5) == 0.0 and PHI(2.0) == 0.0 and PHI(1.0) > 0.0
    assert (W_NONSPLIT.x0, W_NONSPLIT.x1) == (1.0, 2.0)


def test_smooth_weight_mellin_decay():
    # by the QAGS port: the package tabulates W_NONSPLIT's transform only
    flat = abs(mellin_qags(PHI, 1.0))
    vals = [abs(mellin_qags(PHI, 1.0 + 1j * t)) for t in (10.0, 50.0, 200.0)]
    assert vals[0] < flat and vals[1] < vals[0] and vals[2] < vals[1]
    assert vals[2] <= flat * 1e-4


def test_poisson_exact_at_trivial_angle(F):
    # beta = 1 has theta = 0: the dual side is a pure main term
    rep = poisson_check(F, QuadInt(1, 0), 150.0)
    assert rep.passed and rep.computed <= 1e-10
    assert rep.extra["theta_over_log_eps"] == pytest.approx(0.0)


def test_poisson_generic_angle(F):
    rep = poisson_check(F, QuadInt(0, 1), 200.0)
    assert rep.passed, rep.computed


def test_poisson_unit_invariance(F):
    # multiplying beta by the fundamental unit shifts theta by log eps,
    # which is invisible mod 1 after division by log eps
    beta = QuadInt(3, 1)
    rep1 = poisson_check(F, beta, 120.0)
    rep2 = poisson_check(F, multiply(F, beta, F.eps), 120.0)
    assert rep1.passed and rep2.passed
    assert rep1.extra["direct"] == pytest.approx(rep2.extra["direct"], abs=1e-8)


def test_poisson_small_K_rejected(F):
    with pytest.raises(HypothesisViolated):
        poisson_check(F, QuadInt(1, 0), 10.0)


def test_matched_cutoff_grows_with_K(F):
    x1 = matched_sym2_cutoff(F, 100.0, 1.0)
    x2 = matched_sym2_cutoff(F, 200.0, 1.0)
    assert 1.0e5 < x1 < x2


def test_l_one_phi_memo_keyed_by_cutoff(F, request):
    bulk = experiments._l_one_phi_bulk
    bulk.cache_clear()
    other = bulk(F, (2, 4, 6), X=3000.0)
    bulk.cache_clear()
    assert bulk(F, (2, 4, 6), X=3000.0) == other  # a recomputation is bit-identical
    first = bulk(F, (2, 4), X=2000.0)
    assert other[2] != first[2]
    request.getfixturevalue("forbid_scans")  # memoized values enumerate nothing
    assert bulk(F, (2, 4), X=2000.0) == first
    assert bulk(F, (2, 4, 6), X=3000.0) == other


def test_variance_then_expected_value_reuse_cached_values(F, src):
    # expected_value repeats variance_table's per-k loop at the same K
    central_values_bulk.cache_clear()
    experiments._l_one_phi_bulk.cache_clear()
    variance_table(F, src, 10.0)
    expected_value(F, src, 10.0)
    assert central_values_bulk.cache_info().hits >= 1
    assert experiments._l_one_phi_bulk.cache_info().hits >= 1


def test_variance_and_expected_value_pinned(F, src):
    # D = 21, K = 10, seed 42: the values of the route that divided
    # L(1, phi_2k)^2 out of |mu_k|^2 and multiplied it back into Q^h
    rep = variance_table(F, src, 10.0)
    assert rep.computed == pytest.approx(0.008483154291005213, rel=1e-13)
    assert rep.reference == pytest.approx(0.008566390284426996, rel=1e-13)
    assert rep.extra["Q_plain"] == pytest.approx(0.0016150534689593746, rel=1e-13)
    assert rep.extra["Q_plain_ratio"] == pytest.approx(0.8060799961497225, rel=1e-13)
    ev = expected_value(F, src, 10.0)
    assert ev.computed == pytest.approx(0.011259772914707053, rel=1e-13)
    assert ev.extra["observed_ratio"] == pytest.approx(0.03560652834674711, rel=1e-13)


def test_variance_reports_c_prime_tail(F, src):
    # the relative truncation error of the C' Euler product at p <= 30000
    rep = variance_table(F, src, 10.0)
    assert rep.extra["C_prime_tail"] == 16.0 / (math.sqrt(30000) * math.log(30000))


def test_cached_arrays_are_read_only(F, src, src_minus):
    w, g = _afe_nodes(F, 3, 1.0)
    bulk = central_values_bulk(src, F, 1, 3)
    zero = central_values_bulk(src_minus, F, 1, 3)
    for arr in (w, g, bulk, zero, kronecker_table(-7)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_diagonal_small_K(F, src):
    rep = diagonal_check(F, src, 100.0)
    assert rep.mode == "ratio"
    assert abs(rep.computed / rep.reference - 1.0) < 0.1


def test_bulk_matches_single_central_values(F, src, monkeypatch):
    # the uncached function, so no cached value is one of another truncation
    monkeypatch.setattr(experiments, "_AFE_MULT", 20.0)
    bulk = central_values_bulk.__wrapped__(src, F, 3, 10)
    for k in (3, 6, 10):
        direct = central_value(src, F, k)
        assert bulk[k - 3] == pytest.approx(direct, abs=0.05), k


@functools.cache
def _per_k_values(D: int, mult: float) -> np.ndarray:
    return central_values_per_k(make_source(synthetic=42, D=D), make_field(D), 3, 40, mult)


@pytest.mark.parametrize("chunk", [None, 1 << 10])
@pytest.mark.parametrize("mult", [4.0, 20.0])
@pytest.mark.parametrize("D", [21, 33])
def test_bulk_matches_per_k_oracle(D, mult, chunk, monkeypatch):
    # the band-outer loop with cos(k phi) from the phase stepper against one
    # np.cos per k over the whole cut; bands of about 2^10 ideals end partway
    # through the cuts, and the 38 k run past a re-seed period inside one band
    if chunk is not None:
        monkeypatch.setattr(experiments, "_CV_BAND", chunk)
    monkeypatch.setattr(experiments, "_AFE_MULT", mult)
    got = central_values_bulk.__wrapped__(make_source(synthetic=42, D=D), make_field(D), 3, 40)
    want = _per_k_values(D, mult)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_bulk_holds_one_band(F, src):
    # tracemalloc counts numpy's buffers: at the bench's first-moment input
    # (k up to 60, n_max = 1,385,770, about 7 bands) the run holds one band
    # of the scan, of the lambda_psi table and of the per-k temporaries,
    # and the lambda_psi(p) of the primes to n_max
    tracemalloc.start()
    try:
        central_values_bulk.__wrapped__(src, F, 15, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_bulk_zero_for_minus_root_number(F, src_minus):
    assert not np.any(central_values_bulk(src_minus, F, 2, 6))


def test_first_moment_input_validation(F, src):
    with pytest.raises(HypothesisViolated):
        first_moment(F, src, 5000.0)
    with pytest.raises(HypothesisViolated):
        first_moment(F, src, 100.0, n_twist=0)


@pytest.mark.parametrize("K", [-5.0, 0.0, 0.3])
@pytest.mark.parametrize(
    "experiment", [first_moment, variance_table, expected_value], ids=lambda f: f.__name__
)
def test_empty_k_window_rejected_before_scan(F, src, src_minus, forbid_scans, experiment, K):
    # K * x1 < 1: no k >= 1 has k/K in the support of the window (1/2, 2)
    with pytest.raises(HypothesisViolated, match="no k >= 1"):
        experiment(F, src, K)
    # a source whose values all vanish does not make the window valid
    with pytest.raises(HypothesisViolated, match="no k >= 1"):
        experiment(F, src_minus, K)


def test_first_moment_vacuous_for_odd_root_number(F, src_minus):
    rep = first_moment(F, src_minus, 100.0)
    assert rep.passed and rep.computed == 0.0
    assert "vacuous" in rep.extra


def test_expected_value_vacuous(F, src_minus):
    rep = expected_value(F, src_minus, 100.0)
    assert rep.passed and rep.computed == 0.0


def test_mu_table_matches_pointwise(admitted_fields):
    assert len(admitted_fields) >= 3
    for Fd in admitted_fields:
        for k in (3, 20):
            mu = mu_2k_table(Fd, k, 600)
            for n in range(1, 601):
                want = mu_2k(Fd, k, n)
                assert mu[n] == pytest.approx(want, abs=1e-12), (Fd.D, k, n)


def test_mu_table_support(F):
    mu = mu_2k_table(F, 15, 1000)
    # vanishes on cubes and beyond
    assert mu[8] == 0.0 and mu[27] == 0.0 and mu[16] == 0.0
    assert mu[1] == 1.0


def test_dirichlet_poly_refines(F):
    r1 = dirichlet_poly_check(F, 20, 10**3)
    r2 = dirichlet_poly_check(F, 20, 10**5)
    d1 = abs(r1.computed - r1.reference)
    d2 = abs(r2.computed - r2.reference)
    assert d2 <= d1


def test_dirichlet_poly_validation(F):
    with pytest.raises(HypothesisViolated):
        dirichlet_poly_check(F, 5, 10**4)
    with pytest.raises(TruncationInsufficient):
        dirichlet_poly_check(F, 20, 100)


def test_moment_bound_r1(F):
    rep = moment_bound_check(F, 200, 1, 30.0)
    assert rep.passed
    assert rep.extra["hypothesis_ok"] is False  # desk scale: K^(1/10) < 30


@pytest.mark.parametrize(
    "D, K, r, x",
    [
        pytest.param(21, 40, 2, 60.0, id="21"),
        pytest.param(33, 40, 2, 60.0, id="33"),
        # k up to 1000: m = 2k up to 2000 on the capped 8192 bins, moments
        # to p = 13; measured 7.1e-14 relative
        pytest.param(21, 500, 2, 40.0, id="21-500-2-40.0"),
    ],
)
def test_moment_bound_matches_pointwise_eigenvalues(D, K, r, x):
    # the half-window scan with multiplicities against lambda_2k(p) summed
    # over the full window of elements_of_norm, one prime at a time
    F = make_field(D)
    rep = moment_bound_check(F, K, r, x)
    primes = [p for p in primes_upto(int(x)).tolist() if F.D % p != 0]
    s_k = [sum(lambda_k(F, 2 * k, p) / math.sqrt(p) for p in primes) for k in range(K + 1, 2 * K + 1)]
    want = sum(v ** (2 * r) for v in s_k) / K
    assert rep.computed == pytest.approx(want, rel=1e-12)


def test_nonsplit_decay_short_ladder(src):
    rep = nonsplit_decay_scan(src, QuadPoly(1, 0, -21), Ys=[1e4, 4e4, 1.6e5])
    assert rep.passed
    assert len(rep.extra["ratios"]) == 3


def test_nonsplit_decay_needs_two_y(src):
    for Ys in ([], [1e4]):
        with pytest.raises(TruncationInsufficient):
            nonsplit_decay_scan(src, QuadPoly(1, 0, -21), Ys=Ys)
