import math
import random
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ideal_oracle import (
    fold,
    grossenchar,
    half_window,
    lambda_table_from_scan,
    norm_oracle,
    oracle_elements,
    r_D,
    rectangle_scan,
)
from maassqv import experiments, hecke, ideals
from maassqv.errors import (
    ALLOC_BYTES_MAX,
    HypothesisViolated,
    ScanBoundExceeded,
    TableBoundExceeded,
)
from maassqv.experiments import first_moment
from maassqv.hecke import h_fn, make_source, primes_upto
from maassqv.ideals import (
    elements_of_norm,
    kronecker,
    kronecker_table,
    lambda_k,
    lambda_k_table,
)
from maassqv.quadfield import QuadInt, angle, canonical_generator, make_field, norm


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
    chi = kronecker_table(21)
    assert chi.size == F21.D  # period D, at every n >= 0
    assert chi.tolist() == [kronecker(21, n) for n in range(21)]
    assert chi[1] == 1 and chi[2] == -1 and chi[5] == 1 and chi[7] == 0
    for n in range(0, 400):
        assert chi[n % 21] == kronecker(21, n) == kronecker(21, n + 21)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(-300, 300).filter(bool))
def test_kronecker_table_matches_scalar_symbol(a):
    tab = kronecker_table(a)
    assert not tab.flags.writeable
    if a % 4 in (0, 1):  # period |a|, at every n >= 0
        assert tab.size == abs(a)
        ns = range(3 * tab.size)
    else:  # period 4|a|, at odd n only
        assert tab.size == 4 * abs(a)
        ns = range(1, 3 * tab.size, 2)
    assert [tab[n % tab.size] for n in ns] == [kronecker(a, n) for n in ns]


def test_kronecker_table_refuses_a_long_period_before_building():
    with pytest.raises(TableBoundExceeded):
        kronecker_table(10**7 + 1)  # = 1 mod 4: period 10^7 + 1


def _solved(F, n):
    """elements_of_norm(F, n) as sorted (m, n, multiplicity) triples."""
    return sorted(zip(*(part.tolist() for part in elements_of_norm(F, n))))


def test_elements_of_norm_basic(F21):
    assert _solved(F21, 1) == [(1, 0, 1)]
    m, k, mults = elements_of_norm(F21, 2)
    assert m.size == k.size == mults.size == 0
    # the two ideals of norm 5 are one conjugate pair: one generator, twice
    assert int(elements_of_norm(F21, 5)[2].sum()) == 2 == 1 + kronecker(F21.D, 5)
    assert _solved(F21, 5) == fold(F21, norm_oracle(F21, 5))


def test_enumeration_count_equals_divisor_sum(F21):
    for n in range(1, 2001):
        assert int(elements_of_norm(F21, n)[2].sum()) == r_D(F21, n), n


@pytest.mark.parametrize(
    "D, log2_nmax", [(21, 16), (33, 12), (57, 8), (69, 12), (77, 12), (93, 12)]
)
def test_elements_of_norm_matches_oracle(D, log2_nmax):
    # every norm up to nmax, and the p^2 (p < 500) that lfun.constants asks for
    F = make_field(D)
    nmax = 1 << log2_nmax
    # folded to the half window with multiplicities from the angle alone
    cases = [(n, oracle_elements(F, n, nmax)) for n in range(1, nmax + 1)]
    cases += [(p * p, norm_oracle(F, p * p)) for p in primes_upto(499).tolist()]
    for n, want in cases:
        got = _solved(F, n)
        assert got == fold(F, want), n
        assert all(abs(norm(F, QuadInt(m, k))) == n for m, k, _ in got), n


def test_norm_oracle_matches_table_oracle(F21):
    for n in range(1, 1001):
        assert norm_oracle(F21, n) == oracle_elements(F21, n, 1000), n


@pytest.mark.parametrize(
    "D, log2_cap", [(21, 18), (33, 14), (57, 11), (69, 14), (77, 14), (93, 14)]
)
def test_ideal_scan_matches_rectangle_oracle(D, log2_cap):
    # the half window of the full-window oracle, with multiplicities from
    # the angle alone and x = theta (pi/log eps); the oracle's stable sort
    # keeps row-major order within a norm, so its scan to cap, cut at nmax,
    # is its scan to nmax
    F = make_field(D)
    cap = 1 << log2_cap
    all_norms, all_thetas, all_mults = half_window(F, *rectangle_scan(F, cap))
    all_xs = all_thetas * (math.pi / F.log_eps)
    bounds = [1 << e for e in range(1, log2_cap + 1)] + [3, 10, 1000, 12345]
    for nmax in sorted(b for b in bounds if b <= cap):
        norms, xs, mults = ideals.ideal_scan(F, nmax)
        cut = int(np.searchsorted(all_norms, nmax, side="right"))
        assert np.array_equal(norms, all_norms[:cut]), nmax
        assert np.array_equal(xs.view(np.int64), all_xs[:cut].view(np.int64)), nmax
        assert np.all((xs >= -1e-12) & (xs <= math.pi + 1e-12)), nmax  # edges round
        assert mults.dtype == np.int8 and np.array_equal(mults, all_mults[:cut]), nmax


@pytest.mark.parametrize(
    "D, log2_cap", [(21, 18), (33, 14), (57, 11), (69, 14), (77, 14), (93, 14)]
)
def test_self_conjugate_ideals_are_the_coherent_families(D, log2_cap):
    # the multiplicity-1 ideals are one per norm a m^2, a in {1, p1, p2, D}:
    # the conjugation-fixed families central_values_bulk completes, and
    # the full window holds each other ideal's conjugate
    F = make_field(D)
    cap = 1 << log2_cap
    norms, _, mults = ideals.ideal_scan(F, cap)
    want = sorted(
        a * m * m for a in (1, F.p1, F.p2, F.D) for m in range(1, math.isqrt(cap) + 1)
        if a * m * m <= cap
    )
    assert np.array_equal(norms[mults == 1], want)
    full_norms, _ = rectangle_scan(F, cap)
    assert int(mults.sum(dtype=np.int64)) == full_norms.size
    assert set(np.unique(mults).tolist()) == {1, 2}


@pytest.mark.parametrize(
    "D, n_max",
    [(21, 1 << 20), (33, 1 << 17), (57, 1 << 15), (69, 1 << 17), (77, 1 << 17), (93, 1 << 17)],
)
def test_bands_concatenated_are_the_scan(D, n_max):
    # bands (0, n1], (n1, n2], .. each sorted on its own and concatenated
    # are the scan to n_max bit for bit; edges fall on norms held by several
    # ideals, on a self-conjugate norm a m^2 and on both sides of each
    F = make_field(D)
    want = ideals.ideal_scan(F, n_max)
    norms, counts = np.unique(want[0], return_counts=True)
    shared = norms[counts >= 3]
    a = F.p2
    square = a * math.isqrt(n_max // (3 * a)) ** 2
    assert np.any(want[0][want[2] == 1] == square)
    edges = {int(shared[len(shared) // 3]), int(shared[-1]), square, square - 1, square + 1}
    edges |= set(range(n_max // 29, n_max, n_max // 29))
    edges = [0] + sorted(e for e in edges if 0 < e < n_max) + [n_max]
    bands = [ideals.ideal_scan(F, hi, lo) for lo, hi in zip(edges, edges[1:])]
    for (lo, hi), band in zip(zip(edges, edges[1:]), bands):
        assert band[0].size == 0 or (band[0][0] > lo and band[0][-1] <= hi)
    got = [np.concatenate(part) for part in zip(*bands)]
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
    assert got[2].dtype == np.int8 and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("D", [21, 33])
@pytest.mark.parametrize("bound", [1000, 123457])
def test_ideal_chunks_sorted_union_is_the_scan(D, bound, monkeypatch):
    # the chunks stop at the bound itself; small chunks split rows across
    # chunk ends, and their union, stably sorted, is the scan
    F = make_field(D)
    want = ideals.ideal_scan(F, bound)
    monkeypatch.setattr(ideals, "STREAM_BLOCK", 1 << 8)
    chunks = list(ideals.ideal_chunks(F, bound))
    assert len(chunks) > 1
    norms, xs, mults = (np.concatenate(part) for part in zip(*chunks))
    assert norms.max() <= bound
    order = np.argsort(norms, kind="stable")
    assert np.array_equal(norms[order], want[0])
    assert np.array_equal(xs[order].view(np.int64), want[1].view(np.int64))
    assert np.array_equal(mults[order], want[2])


@pytest.mark.parametrize("D", [21, 33, 57])
@pytest.mark.parametrize("k", [0, 3, 40])
def test_lambda_k_table_matches_sorted_scan_oracle(D, k, monkeypatch):
    # summed chunk by chunk, small chunks included, the table is the sum
    # over the norm-sorted scan bit for bit
    F = make_field(D)
    wants = {nmax: lambda_table_from_scan(F, k, nmax) for nmax in (1, 999, 4096, 30001)}
    for chunk in (ideals.STREAM_BLOCK, 1 << 10):
        monkeypatch.setattr(ideals, "STREAM_BLOCK", chunk)
        for nmax, want in wants.items():
            got = lambda_k_table(F, k, nmax)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (chunk, nmax)


def test_elements_of_norm_scan_limit(F21):
    # the limit is on n itself: 10^7 is solved row by row, 10^7 + 1 refused
    assert _solved(F21, 10**7) == fold(F21, norm_oracle(F21, 10**7))
    assert int(elements_of_norm(F21, 10**7)[2].sum()) == r_D(F21, 10**7)
    with pytest.raises(ScanBoundExceeded, match="exceeds the exact-solve limit 10000000"):
        elements_of_norm(F21, 10**7 + 1)


def test_elements_of_norm_refuses_a_norm_below_one(F21):
    # a typed error, not an assert that python -O drops
    for n in (0, -4):
        with pytest.raises(HypothesisViolated):
            elements_of_norm(F21, n)


def test_elements_of_norm_refuses_inexact_square_test():
    # D = 3 (3 * 18011^2 + 4) has eps ~ 9.7e8: at n = 10^7 the last row of
    # the half window puts D k^2 + 4n past 2^53, where the float square
    # root no longer decides squares (D = 129, eps ~ 3.4e4, stays below)
    F = make_field(2919565101)
    for n in (1, 3, 4, 12, 27):
        assert _solved(F, n) == fold(F, norm_oracle(F, n))
    with pytest.raises(ScanBoundExceeded, match=r"reaches 2\^53 on the last row"):
        elements_of_norm(F, 10**7)


def test_per_norm_values_build_no_scan(F21, forbid_scans):
    src = make_source(synthetic=42, D=21)
    for n in (1, 5, 105, 441, 499**2):
        assert int(elements_of_norm(F21, n)[2].sum()) == r_D(F21, n)
        assert lambda_k(F21, 0, n) == pytest.approx(r_D(F21, n), abs=1e-10)
        assert math.isfinite(h_fn(src, F21, n))


def test_reps_are_canonical(F21):
    # the half window theta in [0, log eps], log eps included
    for n in (5, 21, 105, 125, 441):
        for m, k, _ in _solved(F21, n):
            gen = QuadInt(m, k)
            assert canonical_generator(F21, gen) == gen
            assert 0 <= angle(F21, gen) <= F21.log_eps * (1 + 1e-12)


def test_grossenchar(F21):
    a = norm_oracle(F21, 5)[0]
    one = norm_oracle(F21, 1)[0]
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
        assert lambda_k(F21, 0, n) == pytest.approx(
            r_D(F21, n), abs=1e-10
        )


def test_lambda_reality(F21):
    # over the full window of the oracle, the imaginary parts cancel within
    # 1e-12: the premise of the half window with multiplicities
    for n in range(1, 500):
        reps = norm_oracle(F21, n)
        for k in (-100, -7, 3, 50, 100):
            tot = sum(grossenchar(F21, k, a) for a in reps)
            assert abs(complex(tot).imag) <= 1e-12


def test_hecke_relation(F21):
    tab = lambda_k_table(F21, 8, 200 * 200)
    rng = random.Random(3)
    for _ in range(400):
        a, b = rng.randint(1, 200), rng.randint(1, 200)
        g = math.gcd(a, b)
        rhs = sum(
            kronecker(F21.D, d) * tab[a * b // (d * d)]
            for d in range(1, g + 1)
            if g % d == 0
        )
        assert tab[a] * tab[b] == pytest.approx(rhs, abs=1e-9)


def test_lambda_table_matches_pointwise(admitted_fields):
    # an array of k in one solve per norm, against the scan's table
    ks = np.array([0, 3, 6, 40])
    for F in admitted_fields:
        tabs = np.array([lambda_k_table(F, k, 3000) for k in ks.tolist()])
        for n in range(1, 3001):
            assert np.max(np.abs(lambda_k(F, ks, n) - tabs[:, n])) <= 1e-12, (F.D, n)
        assert lambda_k(F, 3, 25) == pytest.approx(tabs[1, 25], abs=1e-12)


def test_first_moment_twist_column_is_one_solve(F21, monkeypatch):
    # the twist lambda_2k(n) for every k of the window from one call
    calls = []

    def counted(F, k, n):
        calls.append(n)
        return lambda_k(F, k, n)

    monkeypatch.setattr(experiments, "lambda_k", counted)
    first_moment(F21, make_source(synthetic=42, D=21), 30, n_twist=5)
    assert calls == [5]


def _allocation_reached(*args, **kwargs):
    raise AssertionError("ideal_scan reached its allocations")


def test_scan_guard_refuses_before_allocating(F21, monkeypatch):
    # K = 2000 sums k up to about 2K, so norms to 4 (2K)^2 D^1.5 ~ 6.2e9: a
    # whole scan of about 82 GiB.  The central values scan one band at a
    # time, so there the primes to 6.2e9 of the lambda_psi fill are over the
    # limit.  Both guards must fire on the estimate alone, before
    # _row_intervals or the prime sieve allocates
    monkeypatch.setattr(ideals, "_row_intervals", _allocation_reached)
    monkeypatch.setattr(hecke, "primes_upto", _allocation_reached)
    n_max = int(4 * 4000**2 * 21**1.5)
    assert ideals._scan_bytes(F21, n_max) > 64 * 2**30
    with pytest.raises(ScanBoundExceeded):
        ideals.ideal_scan(F21, n_max)
    with pytest.raises(TableBoundExceeded):
        first_moment(F21, make_source(synthetic=42, D=21), 2000)


def test_lambda_k_table_refuses_before_allocating(F21, monkeypatch):
    # 3e9 + 1 float64 entries are 22.4 GiB, over the 8 GiB limit
    monkeypatch.setattr(np, "zeros", _allocation_reached)
    with pytest.raises(TableBoundExceeded):
        lambda_k_table(F21, 2, 3_000_000_000)


def test_band_guard_admits_the_field_sweep(admitted_fields, monkeypatch):
    # first-moment --K 100 (k up to 200) on every admitted field and K = 200
    # (k up to 400) on D = 33 and 77 pass the central values' guard, which
    # counts one band of the scan and of the lambda_psi table and the
    # primes to n_max; K = 2000 on D = 21 does not.  Arithmetic only
    for name in ("ones", "empty", "zeros", "arange", "full"):
        monkeypatch.setattr(np, name, _allocation_reached)
    assert sorted(F.D for F in admitted_fields) == [21, 33, 57, 69, 77, 93]
    runs = [(F, 200) for F in admitted_fields]
    runs += [(F, 400) for F in admitted_fields if F.D in (33, 77)]
    for F, k_hi in runs:
        experiments._check_bands(F, int(4.0 * k_hi * k_hi * F.D**1.5))
    with pytest.raises(TableBoundExceeded):
        experiments._check_bands(admitted_fields[0], int(4.0 * 4000**2 * 21**1.5))


@pytest.mark.parametrize("log2_bound", [24, 26])
def test_scan_guard_admits_desk_bounds(admitted_fields, monkeypatch, log2_bound):
    # the bench's 2^24 scan and criterion 07's 2^26 stay under the limit:
    # the build gets past the guard to its first allocation
    monkeypatch.setattr(ideals, "_row_intervals", _allocation_reached)
    for F in admitted_fields:
        assert ideals._scan_bytes(F, 1 << log2_bound) <= ALLOC_BYTES_MAX
        with pytest.raises(AssertionError, match="reached its allocations"):
            ideals.ideal_scan(F, 1 << log2_bound)


@pytest.mark.parametrize("D", [201, 217])
def test_scan_guard_counts_the_rows(D, monkeypatch):
    # large units: at norm 10^4 the rows (7,169 for D = 201, 18,832 for
    # D = 217) outweigh the ideals; under a 0.5 MiB limit that the ideals
    # alone stay below, both views refuse before _row_intervals allocates
    monkeypatch.setattr(ideals, "_row_intervals", _allocation_reached)
    monkeypatch.setattr(ideals, "ALLOC_BYTES_MAX", float(1 << 19))
    F = make_field(D)
    rows = ideals._last_row(F, 10**4) + 1
    assert ideals._scan_bytes(F, 10**4) < ideals.ALLOC_BYTES_MAX < ideals._ROW_BYTES * rows
    with pytest.raises(ScanBoundExceeded, match="GiB"):
        ideals.ideal_scan(F, 10**4)
    with pytest.raises(ScanBoundExceeded, match="GiB"):
        next(ideals.ideal_chunks(F, 10**4))


def test_scan_guard_refuses_int64_overflow(monkeypatch):
    # with no byte limit, D = 217 at 10^13 has m up to ~4.7e9, where
    # ideal_chunks' int64 m * m passes 2^63
    monkeypatch.setattr(ideals, "_row_intervals", _allocation_reached)
    monkeypatch.setattr(ideals, "ALLOC_BYTES_MAX", float("inf"))
    F = make_field(217)
    for scan in (ideals.ideal_scan, lambda F, b: next(ideals.ideal_chunks(F, b))):
        with pytest.raises(ScanBoundExceeded, match="int64"):
            scan(F, 10**13)


@pytest.mark.parametrize("bound", [int(4 * 60**2 * 21**1.5), int(4 * 20**2 * 21**1.5), 10**7])
def test_scan_guard_admits_bench_bounds(F21, monkeypatch, bound):
    # the bench's first-moment (K = 30) and variance (K = 10) scans and the
    # 10^7 stream of _l_one_phi_bulk reach their first allocation
    monkeypatch.setattr(ideals, "_row_intervals", _allocation_reached)
    for scan in (ideals.ideal_scan, lambda F, b: next(ideals.ideal_chunks(F, b))):
        with pytest.raises(AssertionError, match="reached its allocations"):
            scan(F21, bound)


def test_scan_bytes_counts_the_ideals(admitted_fields):
    # the area estimate behind the guard against the ideals a scan keeps
    for F in admitted_fields:
        norms, _, _ = ideals.ideal_scan(F, 1 << 16)
        kept = ideals._scan_bytes(F, 1 << 16) / ideals._IDEAL_BYTES
        assert kept == pytest.approx(norms.size, rel=0.01)


def test_scan_build_peak_is_the_byte_model(admitted_fields):
    # the traced peak of a whole scan to 2^20 against _scan_bytes, at the
    # tolerance of the count above: the chunks are freed before the sort,
    # so the peak is the concatenation, the order and the sorted copies.
    # Measured 1.00004 - 1.00048 of the model (D = 21 the largest), 42.00 -
    # 42.02 bytes per ideal; below about 2^19 one chunk's candidates, which
    # the model leaves to _check_scan, are a visible share
    for F in admitted_fields:
        tracemalloc.start()
        try:
            ideals.ideal_scan(F, 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak == pytest.approx(ideals._scan_bytes(F, 1 << 20), rel=0.01), F.D
