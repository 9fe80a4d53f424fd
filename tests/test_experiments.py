import math

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
    smooth_weight,
)
from maassqv.halfint import QuadPoly
from maassqv.hecke import make_source, mu_2k
from maassqv.lfun import AfeConfig, central_value
from maassqv.quadfield import QuadInt, make_field, multiply
from maassqv.weights import SmoothWeight


@pytest.fixture(scope="module")
def F():
    return make_field(21)


@pytest.fixture(scope="module")
def src():
    return make_source(synthetic=42, D=21)


def test_smooth_weight_kinds():
    sw = smooth_weight()
    assert (sw.x0, sw.x1) == (0.5, 2.0)
    assert sw(0.5) == 0.0 and sw(2.0) == 0.0 and sw(1.0) > 0.0
    sw12 = smooth_weight("bump_one_two")
    assert (sw12.x0, sw12.x1) == (1.0, 2.0)
    with pytest.raises(ValueError):
        smooth_weight("triangle")
    with pytest.raises(ValueError):
        smooth_weight(P=0.5)


def test_smooth_weight_sharpening():
    # P shrinks the support toward x0, keeping the left edge
    sw = smooth_weight(P=3.0)
    assert sw.x0 == 0.5
    assert sw.x1 == pytest.approx(1.0)


def test_smooth_weight_mellin_decay():
    sw = smooth_weight()
    flat = abs(sw.mellin(1.0))
    vals = [abs(sw.mellin(1.0 + 1j * t)) for t in (10.0, 50.0, 200.0)]
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
    sw = smooth_weight()
    x1 = matched_sym2_cutoff(F, 100.0, sw)
    x2 = matched_sym2_cutoff(F, 200.0, sw)
    assert 1.0e5 < x1 < x2


def test_caches_keyed_by_config(F, src):
    sw = smooth_weight()

    def fresh(fn, *args):
        experiments._MATCH_CACHE.clear()
        experiments._BULK_CACHE.clear()
        return fn(*args)

    alt = AfeConfig(contour_re=2.0)
    want = fresh(matched_sym2_cutoff, F, 60.0, sw, 1.0, alt)
    fresh(matched_sym2_cutoff, F, 60.0, sw, 1.0, AfeConfig())
    assert matched_sym2_cutoff(F, 60.0, sw, 1.0, alt) == want

    alt = AfeConfig(im_cutoff=6.0)
    want = fresh(central_values_bulk, src, F, 1, 3, 4.0, alt)
    fresh(central_values_bulk, src, F, 1, 3, 4.0, AfeConfig())
    assert np.array_equal(central_values_bulk(src, F, 1, 3, 4.0, alt), want)


def test_l_one_phi_memo_keyed_by_cutoff(F, monkeypatch):
    monkeypatch.setattr(experiments, "_LPHI_CACHE", {})
    first = experiments._l_one_phi_bulk(F, [2, 4], X=2000.0)

    def no_scan(*args):
        raise AssertionError("ideal_scan called for memoized values")

    with monkeypatch.context() as m:
        m.setattr(experiments, "ideal_scan", no_scan)
        assert experiments._l_one_phi_bulk(F, [2, 4], X=2000.0) == first
    other = experiments._l_one_phi_bulk(F, [2, 4, 6], X=3000.0)
    experiments._LPHI_CACHE.clear()
    assert other == experiments._l_one_phi_bulk(F, [2, 4, 6], X=3000.0)
    assert other[2] != first[2]


def test_diagonal_small_K(F, src):
    rep = diagonal_check(F, src, 100.0)
    assert rep.mode == "ratio"
    assert abs(rep.computed / rep.reference - 1.0) < 0.1


def test_bulk_matches_single_central_values(F, src):
    cfg = AfeConfig()
    bulk = central_values_bulk(src, F, 3, 10, mult=20.0, cfg=cfg)
    for k in (3, 6, 10):
        direct = central_value(src, F, cfg, k)
        assert bulk[k - 3] == pytest.approx(direct, abs=0.05), k


def test_bulk_zero_for_minus_root_number(F):
    src_m = make_source(synthetic=42, D=21, eta=-1)
    assert not np.any(central_values_bulk(src_m, F, 2, 6, mult=4.0))


def test_first_moment_input_validation(F, src):
    with pytest.raises(HypothesisViolated):
        first_moment(F, src, 5000.0)
    with pytest.raises(HypothesisViolated):
        first_moment(F, src, 100.0, n_twist=0)


def test_first_moment_vacuous_for_odd_root_number(F):
    src_m = make_source(synthetic=42, D=21, eta=-1)
    rep = first_moment(F, src_m, 100.0)
    assert rep.passed and rep.computed == 0.0
    assert "vacuous" in rep.extra


def test_first_moment_diagonal_mode_delegates(F, src):
    rep = first_moment(F, src, 100.0, n_twist=3, mode="diagonal")
    ref = diagonal_check(F, src, 100.0, a=3)
    assert rep.computed == pytest.approx(ref.computed)


def test_expected_value_vacuous(F):
    src_m = make_source(synthetic=42, D=21, eta=-1)
    rep = expected_value(F, src_m, 100.0)
    assert rep.passed and rep.computed == 0.0


def test_mu_table_matches_pointwise(F):
    k = 20
    mu = mu_2k_table(F, k, 300)
    for n in range(1, 301):
        assert mu[n] == pytest.approx(mu_2k(F, k, n, nmax_hint=301), abs=1e-9), n


def test_mu_table_support(F):
    mu = mu_2k_table(F, 15, 1000)
    # vanishes on cubes and beyond
    assert mu[8] == 0.0 and mu[27] == 0.0 and mu[16] == 0.0
    assert mu[1] == 1.0


def test_dirichlet_poly_refines(F):
    r1 = dirichlet_poly_check(F, 20, 10**3, tol=1.0)
    r2 = dirichlet_poly_check(F, 20, 10**5, tol=1.0)
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


def test_moment_bound_hypothesis_enforced(F):
    with pytest.raises(HypothesisViolated):
        moment_bound_check(F, 200, 1, 30.0, enforce_hypothesis=True)


def test_nonsplit_decay_short_ladder(src):
    rep = nonsplit_decay_scan(src, QuadPoly(1, 0, -21), Ys=[1e4, 4e4, 1.6e5])
    assert rep.passed
    assert len(rep.extra["ratios"]) == 3
