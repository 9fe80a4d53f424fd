import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ideal_oracle import oracle_elements, rectangle_scan
from maassqv import ideals
from maassqv.errors import ALLOC_BYTES_MAX, ScanBoundExceeded
from maassqv.experiments import first_moment
from maassqv.hecke import make_source
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


@pytest.mark.parametrize(
    "D, log2_cap", [(21, 18), (33, 14), (57, 11), (69, 14), (77, 14), (93, 14)]
)
def test_ideal_scan_matches_rectangle_oracle(D, log2_cap, monkeypatch):
    F = make_field(D)
    cap = 1 << log2_cap
    # the oracle's stable sort keeps row-major order within a norm, so its
    # scan to cap, cut at nmax, is its scan to nmax
    all_norms, all_thetas = rectangle_scan(F, cap)
    bounds = [1 << e for e in range(1, log2_cap + 1)] + [3, 10, 1000, 12345]
    for nmax in sorted(b for b in bounds if b <= cap):
        monkeypatch.setattr(ideals, "_SCAN_CACHE", {})  # a fresh build each time
        norms, thetas = ideals.ideal_scan(F, nmax)
        cut = int(np.searchsorted(all_norms, nmax, side="right"))
        assert np.array_equal(norms, all_norms[:cut]), nmax
        assert np.array_equal(thetas.view(np.int64), all_thetas[:cut].view(np.int64)), nmax


@pytest.mark.parametrize("D", [21, 33])
@pytest.mark.parametrize("bound", [1000, 123457])
def test_ideal_chunks_sorted_union_is_the_scan(D, bound, monkeypatch):
    # the chunks stop at the bound itself; small chunks split rows across
    # chunk ends, and their union, stably sorted, is the cached scan
    F = make_field(D)
    monkeypatch.setattr(ideals, "_SCAN_CACHE", {})
    want_norms, want_thetas = ideals.ideal_scan(F, bound)
    monkeypatch.setattr(ideals, "_SCAN_CHUNK", 1 << 10)
    chunks = list(ideals.ideal_chunks(F, bound))
    assert len(chunks) > 1
    norms = np.concatenate([c[0] for c in chunks])
    thetas = np.concatenate([c[1] for c in chunks])
    assert norms.max() <= bound
    order = np.argsort(norms, kind="stable")
    assert np.array_equal(norms[order], want_norms)
    assert np.array_equal(thetas[order].view(np.int64), want_thetas.view(np.int64))


def test_ideal_scan_cache_is_read_only(F21, monkeypatch):
    monkeypatch.setattr(ideals, "_SCAN_CACHE", {})
    norms, thetas = ideals.ideal_scan(F21, 1024)  # the cached arrays themselves
    cut_norms, cut_thetas = ideals.ideal_scan(F21, 999)
    for arr in (norms, thetas, cut_norms, cut_thetas):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_elements_of_norm_raises_on_unrecoverable_scan(F21, monkeypatch):
    # norm 5 has no generator at these angles: recovery must not guess
    fake = (8, np.array([5, 5]), np.array([0.123, 0.456]))
    monkeypatch.setitem(ideals._SCAN_CACHE, F21.D, fake)
    with pytest.raises(RuntimeError):
        elements_of_norm(F21, 5)


def test_elements_of_norm_scan_limit(F21, monkeypatch):
    # the requested bound is held against the limit, not its power-of-two
    # rounding (9e6 rounds to 2^24 > 10^7); the stub scan enumerates nothing
    asked = []

    def empty_scan(F, nmax):
        asked.append(nmax)
        return np.zeros(0, np.int64), np.zeros(0)

    monkeypatch.setattr(ideals, "ideal_scan", empty_scan)
    assert elements_of_norm(F21, 9_000_000) == []
    assert elements_of_norm(F21, 5, nmax_hint=10**7) == []
    for n, hint in ((10**7 + 1, 0), (5, 10**7 + 1)):
        with pytest.raises(ScanBoundExceeded):
            elements_of_norm(F21, n, nmax_hint=hint)
    assert asked == [9_000_000, 10**7]


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


def _allocation_reached(*args, **kwargs):
    raise AssertionError("ideal_scan reached its allocations")


def test_scan_guard_refuses_before_allocating(F21, monkeypatch):
    # K = 2000 needs norms to ~6.2e9, a scan of about 219 GiB at 2^33; the
    # guard must fire on the estimate alone, before _row_intervals allocates
    monkeypatch.setattr(ideals, "_SCAN_CACHE", {})
    monkeypatch.setattr(ideals, "_row_intervals", _allocation_reached)
    with pytest.raises(ScanBoundExceeded):
        first_moment(F21, make_source(synthetic=42, D=21), 2000)
    assert ideals._scan_bytes(F21, 1 << 33) > 100 * 2**30


@pytest.mark.parametrize("log2_bound", [24, 26])
def test_scan_guard_admits_desk_bounds(admitted_fields, monkeypatch, log2_bound):
    # the bench's 2^24 scan and criterion 07's 2^26 stay under the limit:
    # the build gets past the guard to its first allocation
    monkeypatch.setattr(ideals, "_row_intervals", _allocation_reached)
    for F in admitted_fields:
        monkeypatch.setattr(ideals, "_SCAN_CACHE", {})
        assert ideals._scan_bytes(F, 1 << log2_bound) <= ALLOC_BYTES_MAX
        with pytest.raises(AssertionError, match="reached its allocations"):
            ideals.ideal_scan(F, 1 << log2_bound)


def test_scan_bytes_counts_the_ideals(admitted_fields):
    # the area estimate behind the guard against the ideals a scan keeps
    for F in admitted_fields:
        norms, _ = ideals.ideal_scan(F, 1 << 16)
        assert ideals._scan_bytes(F, 1 << 16) / 40.0 == pytest.approx(norms.size, rel=0.01)
