import math
import random
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from maassqv.errors import (
    NotOneMod4,
    NotTwoPrimeProduct,
    Overflow,
    UnitNormNotOne,
    ZeroElement,
)
from maassqv.quadfield import (
    FACTOR_MAX,
    QuadInt,
    angle,
    canonical_generator,
    conjugate,
    factorize,
    make_field,
    multiply,
    norm,
    unit_power,
)

coord = st.integers(min_value=-10**6, max_value=10**6)
nonzero_elt = st.tuples(coord, coord).filter(lambda t: t != (0, 0))


def test_make_field_21(F21):
    assert (F21.p1, F21.p2) == (7, 3)
    assert (F21.unit_x, F21.unit_y) == (2, 1)
    # oracle: brute-force minimal (x, y) with x^2 + xy - 5y^2 = 1, x+y*omega > 1
    sols = [
        (x, y)
        for y in range(1, 50)
        for x in range(1, 200)
        if x * x + x * y - 5 * y * y == 1
    ]
    xmin, ymin = min(sols, key=lambda t: t[0] + t[1] * (1 + math.sqrt(21)) / 2)
    assert (F21.unit_x, F21.unit_y) == (xmin, ymin)
    assert F21.log_eps == pytest.approx(
        math.log(2 + (1 + math.sqrt(21)) / 2), rel=1e-14
    )
    assert F21.omega_norm == -5


def test_make_field_rejects():
    with pytest.raises(NotOneMod4):
        make_field(15)
    with pytest.raises(NotTwoPrimeProduct):
        make_field(5)
    with pytest.raises(UnitNormNotOne):
        make_field(65)
    with pytest.raises(NotTwoPrimeProduct):
        make_field(105)  # three primes


def test_factorize_matches_sympy():
    # every n <= 20000 and 300 random n up to the limit: the same primes and
    # exponents as sympy.factorint, with the primes in ascending order
    rng = random.Random(11)
    ns = list(range(1, 20001)) + [rng.randrange(1, FACTOR_MAX + 1) for _ in range(300)]
    for n in ns + [FACTOR_MAX, 999999999989]:  # 10^12 - 11 is prime
        got = factorize(n)
        assert got == sympy.factorint(n) and list(got) == sorted(got), n
    with pytest.raises(Overflow, match="trial-division limit"):
        factorize(FACTOR_MAX + 1)


def test_make_field_refuses_unfactorable_D_at_once():
    # D = p q with p, q = 3 mod 4 the primes 1000000007 and 1000000087:
    # trial division would run for minutes, so the size is refused first
    start = time.perf_counter()
    with pytest.raises(Overflow, match="trial-division limit"):
        make_field(1000000007 * 1000000087)
    assert time.perf_counter() - start < 1.0


def test_unit_is_pell_solution(admitted_fields):
    for F in admitted_fields:
        assert norm(F, F.eps) == 1
        assert F.embed(F.eps) > 1
        assert F.unit_x >= 2 and F.unit_y >= 1
        # minimality: no unit > 1 with smaller y
        for y in range(1, F.unit_y):
            t = F.D * y * y + 4
            r = math.isqrt(t)
            assert not (r * r == t and (r - y) % 2 == 0)


def test_norm_examples(F21):
    assert norm(F21, QuadInt(1, 1)) == -3
    assert norm(F21, QuadInt(1, 0)) == 1
    assert norm(F21, QuadInt(0, 1)) == -5


def test_multiply_examples(F21):
    a = QuadInt(3, -2)
    assert multiply(F21, a, QuadInt(1, 0)) == a
    assert multiply(F21, QuadInt(0, 1), QuadInt(0, 1)) == QuadInt(5, 1)


def test_overflow_is_loud(F21):
    big = QuadInt(2**100, 2**100)
    with pytest.raises(Overflow):
        norm(F21, big)
    with pytest.raises(Overflow):
        multiply(F21, big, big)


@given(a=st.tuples(coord, coord), b=st.tuples(coord, coord))
def test_norm_multiplicative(F21, a, b):
    qa, qb = QuadInt(*a), QuadInt(*b)
    assert norm(F21, multiply(F21, qa, qb)) == norm(F21, qa) * norm(F21, qb)


@given(a=st.tuples(coord, coord))
def test_conj_involution(F21, a):
    qa = QuadInt(*a)
    assert conjugate(conjugate(qa)) == qa
    assert norm(F21, qa) == norm(F21, qa)  # exactness
    # N(a) = a * conj(a) as field elements
    prod = multiply(F21, qa, conjugate(qa))
    assert prod == QuadInt(norm(F21, qa), 0)


@given(a=nonzero_elt, b=nonzero_elt)
@settings(max_examples=200)
def test_angle_additive(F21, a, b):
    qa, qb = QuadInt(*a), QuadInt(*b)
    ta, tb = angle(F21, qa), angle(F21, qb)
    tab = angle(F21, multiply(F21, qa, qb))
    assert tab == pytest.approx(ta + tb, abs=1e-10)


def test_angle_examples(F21):
    assert angle(F21, F21.eps) == pytest.approx(2 * F21.log_eps, abs=1e-12)
    assert angle(F21, QuadInt(1, 0)) == 0.0
    s = math.sqrt(21)
    assert angle(F21, QuadInt(0, 1)) == pytest.approx(
        math.log((1 + s) / (s - 1)), abs=1e-12
    )
    with pytest.raises(ZeroElement):
        angle(F21, QuadInt(0, 0))


def test_angle_reads_the_embedding_that_does_not_cancel():
    # D = 2919565101 has eps ~ 9.7e8: the float embedding m + n omega of
    # conj(eps) = 1/eps cancels to 0.0, and theta comes from the other one
    F = make_field(2919565101)
    eps_bar = conjugate(F.eps)
    assert F.embed(eps_bar) == 0.0
    assert angle(F, eps_bar) == -2.0 * F.log_eps
    assert angle(F, F.eps) == 2.0 * F.log_eps
    assert canonical_generator(F, eps_bar) == QuadInt(1, 0)


def test_canonical_generator(F21):
    # eps^3 reduces to 1
    assert canonical_generator(F21, unit_power(F21, 3)) == QuadInt(1, 0)
    assert canonical_generator(F21, QuadInt(0, 1)) == QuadInt(0, 1)
    rng = random.Random(7)
    period = 2 * F21.log_eps
    for _ in range(100):
        qa = QuadInt(rng.randint(-50, 50), rng.randint(-50, 50))
        if qa.is_zero():
            continue
        c = canonical_generator(F21, qa)
        # idempotent, unit-invariant, in window, positive
        assert canonical_generator(F21, c) == c
        assert canonical_generator(F21, multiply(F21, qa, F21.eps)) == c
        assert canonical_generator(F21, QuadInt(-qa.m, -qa.n)) == c
        assert 0 <= angle(F21, c) < period
        assert F21.embed(c) > 0
