import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ideal_oracle import oracle_elements
from maassqv import ideals
from maassqv.errors import ScanBoundExceeded
from maassqv.ideals import (
    elements_of_norm,
    grossenchar,
    kronecker,
    kronecker_chi,
    lambda_k,
    lambda_k_table,
    r_D,
)
from maassqv.quadfield import QuadInt, canonical_generator, make_field


def test_kronecker_residue_table_oracle():
    # squares mod p generate the table; compare on every |n| <= 2000
    for p in (3, 7, 11, 13):
        residues = {(x * x) % p for x in range(1, p)}
        for n in range(-2000, 2001):
            if n % p == 0:
                expect = 0
            elif n % p in residues:
                expect = 1
            else:
                expect = -1
            assert kronecker(n, p) == expect, (n, p)


@given(a=st.integers(-300, 300), n=st.integers(-300, 300))
def test_kronecker_matches_sympy(a, n):
    assert kronecker(a, n) == sympy.kronecker_symbol(a, n)


@given(a=st.integers(-200, 200), b=st.integers(-200, 200), n=st.integers(1, 200))
def test_kronecker_multiplicative(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_chi21_values(F21):
    assert kronecker_chi(F21, 1) == 1
    assert kronecker_chi(F21, 2) == -1
    assert kronecker_chi(F21, 5) == 1
    # period D on positives coprime to D
    for n in range(1, 400):
        if math.gcd(n, 21) == 1:
            assert kronecker_chi(F21, n) == kronecker_chi(F21, n + 21)


def test_elements_of_norm_basic(F21):
    ones = elements_of_norm(F21, 1)
    assert [r.gen for r in ones] == [QuadInt(1, 0)]
    assert elements_of_norm(F21, 2) == []
    fives = elements_of_norm(F21, 5)
    assert len(fives) == 2 == 1 + kronecker_chi(F21, 5)


def test_enumeration_count_equals_divisor_sum(F21):
    for n in range(1, 2001):
        assert len(elements_of_norm(F21, n, nmax_hint=2000)) == r_D(F21, n), n


@pytest.mark.parametrize(
    "D, log2_nmax", [(21, 16), (33, 12), (57, 8), (69, 12), (77, 12), (93, 12)]
)
def test_elements_of_norm_matches_oracle(D, log2_nmax):
    F = make_field(D)
    nmax = 1 << log2_nmax
    for n in range(1, nmax + 1):
        got = elements_of_norm(F, n, nmax)
        want = oracle_elements(F, n, nmax)
        assert [r.gen for r in got] == [r.gen for r in want], n
        assert all(r.norm_abs == n for r in got), n
        for a, b in zip(got, want):
            assert abs(a.theta - b.theta) <= 1e-12, (n, a, b)


def test_elements_of_norm_raises_on_unrecoverable_scan(F21, monkeypatch):
    # norm 5 has no generator at these angles: recovery must not guess
    fake = (8, np.array([5, 5]), np.array([0.123, 0.456]))
    monkeypatch.setitem(ideals._SCAN_CACHE, F21.D, fake)
    with pytest.raises(RuntimeError):
        elements_of_norm(F21, 5)


def test_elements_of_norm_scan_limit(F21):
    with pytest.raises(ScanBoundExceeded):
        elements_of_norm(F21, 10**7)


def test_reps_are_canonical(F21):
    for n in (5, 21, 105, 125, 441):
        for rep in elements_of_norm(F21, n):
            assert canonical_generator(F21, rep.gen) == rep.gen
            assert 0 <= rep.theta < 2 * F21.log_eps


def test_grossenchar(F21):
    a = elements_of_norm(F21, 5)[0]
    one = elements_of_norm(F21, 1)[0]
    assert grossenchar(F21, 0, a) == pytest.approx(1.0)
    assert grossenchar(F21, 7, one) == pytest.approx(1.0)
    z = grossenchar(F21, 1, a)
    assert abs(z) == pytest.approx(1.0, abs=1e-14)
    phase = a.theta / (2 * F21.log_eps)
    assert z == pytest.approx(complex(math.cos(2 * math.pi * phase),
                                      math.sin(2 * math.pi * phase)))


def test_lambda_k_basics(F21):
    for k in (0, 1, 5, 40):
        assert lambda_k(F21, k, 1) == pytest.approx(1.0)
        assert lambda_k(F21, k, 2) == 0.0
        assert lambda_k(F21, k, 25) == pytest.approx(lambda_k(F21, -k, 25), abs=1e-12)


def test_lambda_0_is_divisor_sum(F21):
    for n in range(1, 501):
        assert lambda_k(F21, 0, n, nmax_hint=500) == pytest.approx(
            r_D(F21, n), abs=1e-10
        )


def test_lambda_reality(F21):
    # imaginary parts cancel within 1e-12 (asserted inside lambda_k too)
    import cmath

    for k in (-100, -7, 3, 50, 100):
        for n in range(1, 500):
            tot = sum(
                cmath.exp(1j * math.pi * k * a.theta / F21.log_eps)
                for a in elements_of_norm(F21, n, nmax_hint=500)
            )
            assert abs(complex(tot).imag) <= 1e-12


def test_hecke_relation(F21):
    tab = lambda_k_table(F21, 8, 200 * 200)
    rng = random.Random(3)
    for _ in range(400):
        a, b = rng.randint(1, 200), rng.randint(1, 200)
        g = math.gcd(a, b)
        rhs = sum(
            kronecker_chi(F21, d) * tab[a * b // (d * d)]
            for d in range(1, g + 1)
            if g % d == 0
        )
        assert tab[a] * tab[b] == pytest.approx(rhs, abs=1e-9)


def test_lambda_table_matches_pointwise(F21):
    tab = lambda_k_table(F21, 3, 300)
    for n in (1, 2, 5, 25, 105, 300):
        assert tab[n] == pytest.approx(lambda_k(F21, 3, n, nmax_hint=300), abs=1e-12)
