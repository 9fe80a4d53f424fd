import math
import random

import pytest

from lattice_oracle import (
    BezoutRangeImpossible,
    angle_linearization_error,
    full_frame,
    gamma,
    lemma_factor_split,
    qgamma,
    unit_divisibilities,
)
from maassqv.errors import HypothesisViolated
from maassqv.lattice import n_beta, offdiag_frame
from maassqv.quadfield import QuadInt, angle, multiply, norm, unit_power


def _expected_qba(F, j, nb):
    return {1: nb, 2: -F.D * nb, 3: F.p1 * nb, 4: -F.p2 * nb}[j]


def test_n_beta_examples(F21):
    assert n_beta(F21, QuadInt(1, 0)) == (1, 1)
    assert n_beta(F21, QuadInt(0, 1)) == (-5, 5)
    assert n_beta(F21, QuadInt(3, 3)) == (-3, 3)


def test_n_beta_generator_independent(F21):
    rng = random.Random(11)
    for _ in range(200):
        b = QuadInt(rng.randint(-30, 30), rng.randint(-30, 30))
        if b.is_zero():
            continue
        for j in range(-5, 6):
            u = unit_power(F21, j)
            for s in (1, -1):
                bu = multiply(F21, b, QuadInt(s * u.m, s * u.n))
                assert n_beta(F21, bu) == n_beta(F21, b)


def test_frame_examples_D21(F21):
    beta = QuadInt(0, 1)
    a, b = offdiag_frame(F21, beta, 1)
    assert (a, b) == (1, -1)
    assert norm(F21, QuadInt(b, a)) == -5
    a, b = offdiag_frame(F21, beta, 2)
    assert (a, b) == (1, -11)
    assert norm(F21, QuadInt(b, a)) == 105
    a, b = offdiag_frame(F21, beta, 3)
    assert (a, b) == (-3, -2)
    assert norm(F21, QuadInt(b, a)) == -35


def test_frame_identities_all_fields(admitted_fields):
    for F in admitted_fields:
        rng = random.Random(F.D)
        for _ in range(300):
            b = QuadInt(rng.randint(-60, 60), rng.randint(-60, 60))
            if b.is_zero():
                continue
            nb, _ = n_beta(F, b)
            for j in (1, 2, 3, 4):
                fr = full_frame(F, b, j)
                assert norm(F, QuadInt(fr.b, fr.a)) == _expected_qba(F, j, nb)
                assert fr.ell == (0 if j in (1, 2) else 1)
                if math.gcd(norm(F, b), F.D) == 1 and fr.a != 0 and fr.b != 0:
                    assert math.gcd(fr.a, fr.b) == 1
                if fr.abar is not None:
                    assert fr.a * fr.abar - fr.b * fr.bbar == 1
                    assert abs(fr.abar) <= abs(fr.b)
                    assert abs(fr.bbar) <= abs(fr.a)
                    g = gamma(fr)
                    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1


def test_frame_index_out_of_range_is_refused(F21):
    # a typed error, not an assert that python -O drops
    for j in (0, 5):
        with pytest.raises(HypothesisViolated):
            offdiag_frame(F21, QuadInt(0, 1), j)


def test_degenerate_frame_has_no_gamma(F21):
    fr = full_frame(F21, QuadInt(1, 0), 1)  # a_1 = 0
    assert fr.abar is None
    with pytest.raises(BezoutRangeImpossible):
        gamma(fr)
    with pytest.raises(BezoutRangeImpossible):
        qgamma(F21, fr, 1, 0)


def test_factor_split(admitted_fields):
    for F in admitted_fields:
        p1, p2, g1, g2 = lemma_factor_split(F)
        assert p1 * p2 == F.D
        assert g1 * g2 == F.unit_y
        # divisibility witnesses are exact integers
        unit_divisibilities(F)


def test_factor_split_D21(F21):
    p1, p2, g1, g2 = lemma_factor_split(F21)
    assert (p1, p2, g1, g2) == (7, 3, 1, 1)


def test_qgamma_homogeneity_and_discriminant(F21):
    fr = full_frame(F21, QuadInt(2, 1), 3)
    qba = norm(F21, QuadInt(fr.b, fr.a))
    for r in range(1, 101):
        assert qgamma(F21, fr, r, 0) == qba * r * r
    # in r, for fixed h: Q^gamma(r,h) = A r^2 + B r h' + C with disc D h^2
    for h in range(1, 21):
        c0 = qgamma(F21, fr, 0, h)
        c1 = qgamma(F21, fr, 1, h)
        cm1 = qgamma(F21, fr, -1, h)
        A = (c1 + cm1 - 2 * c0) // 2
        B = (c1 - cm1) // 2
        assert B * B - 4 * A * c0 == F21.D * h * h


def test_angle_linearization(F21):
    # both sides vanish on the trivial diagonal
    b = QuadInt(0, 1)
    rng = random.Random(17)
    checked = 0
    worst = 0.0
    while checked < 100:
        a = QuadInt(rng.randint(-200, 200), rng.randint(-200, 200))
        if a.is_zero():
            continue
        prod = multiply(F21, a, b)
        th = angle(F21, prod) / F21.log_eps
        for j, ell in ((1, 0), (2, 0), (3, 1), (4, 1)):
            if (norm(F21, prod) > 0) != (j in (1, 3)):
                continue
            dev = ell - th
            if not 1e-9 < abs(dev) <= 0.1:
                continue
            err = angle_linearization_error(F21, a, b, j)
            worst = max(worst, err / dev**2)
            checked += 1
    assert worst <= 10.0


def test_angle_linearization_hypothesis_errors(F21):
    b = QuadInt(0, 1)
    # wrong-sign branch
    a = QuadInt(1, 0)  # N(ab) = -5 < 0, branch 1 requires > 0
    with pytest.raises(HypothesisViolated):
        angle_linearization_error(F21, a, b, 1)
    # angle far outside the window (deviation ~1.4 for branch 3)
    with pytest.raises(HypothesisViolated):
        angle_linearization_error(F21, QuadInt(7, -3), QuadInt(1, 1), 3)
