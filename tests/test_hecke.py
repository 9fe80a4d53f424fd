import math
import random

import numpy as np
import pytest
from sympy import primerange

from halfint_oracle import lambda_psi_at
import hecke_oracle
from hecke_oracle import (
    dense_fill,
    g_fn,
    local_series,
    mu_2k,
    mu_2k_closed,
    satake_square,
    synthetic_lambda_p,
)
from ideal_oracle import r_D
from maassqv import experiments, hecke, lfun
from maassqv.errors import (
    ALLOC_BYTES_MAX,
    MalformedTable,
    MissingPrime,
    Overflow,
    TableBoundExceeded,
)
from maassqv.hecke import (
    h_fn,
    lambda_psi,
    make_source,
    multiplicative_at,
    multiplicative_fill,
    primes_upto,
    read_table,
    vartheta,
    write_table,
)
from maassqv.ideals import (
    ideal_scan,
    kronecker,
    kronecker_table,
    lambda_k,
    lambda_k_table,
)
from maassqv.lfun import lambda_psi_factors, lambda_psi_table
from maassqv.quadfield import FACTOR_MAX


@pytest.fixture(scope="module")
def src():
    return make_source(synthetic=42, D=21)


def test_lambda_basics(src):
    # array in, array out: lambda(0) = 0, lambda(-n) = lambda(n), lambda(1) = 1
    lam = lambda_psi(src, [1, 0, -6, 6, 2, 3])
    assert lam.tolist()[:4] == [1.0, 0.0, lam[3], lam[3]]
    assert lam[3] == pytest.approx(lam[4] * lam[5])
    assert lambda_psi(src, 7).shape == ()
    assert lambda_psi_at(src, 2.5) == 0.0
    assert lambda_psi_at(src, 7.0) == lambda_psi(src, 7)


def test_hecke_recursion(src):
    # lambda(p)^2 - lambda(p^2) = chi0(p) for 50 primes
    for p in list(primerange(2, 250))[:50]:
        chi0 = 0 if 21 % p == 0 else 1
        assert src.lambda_p(p) ** 2 - src.lambda_pp(p, 2) == pytest.approx(chi0)


def test_synthetic_model_bounds(src):
    for p in primerange(2, 500):
        if 21 % p == 0:
            assert abs(src.lambda_p(p)) == pytest.approx(p ** -0.5)
            assert src.lambda_pp(p, 3) == pytest.approx(src.lambda_p(p) ** 3)
        else:
            assert abs(src.lambda_p(p)) <= 2.0


def test_synthetic_deterministic():
    a = make_source(synthetic=7, D=21)
    b = make_source(synthetic=7, D=21)
    c = make_source(synthetic=8, D=21)
    assert a.lambda_p(101) == b.lambda_p(101)
    assert a.lambda_p(101) != c.lambda_p(101)


def test_synthetic_sources_are_values():
    # equal spectral data and seed: equal and hashed alike, whatever lambda(p)
    # either source has drawn so far
    a = make_source(synthetic=42, D=21)
    b = make_source(synthetic=42, D=21)
    a.lambda_p(2)
    assert a == b and hash(a) == hash(b)
    assert a != make_source(synthetic=43, D=21)
    assert a != make_source(synthetic=42, D=21, eta=-1)


def test_local_series_closed_vs_truncated(src):
    # closed form vs J=60 partial-sum ratio at s=1, p <= 100, b <= 6
    for p in primerange(2, 101):
        for b in range(7):
            closed, trunc = local_series(src, 1.0, p, b, J=60)
            assert abs(closed - trunc) <= 1e-10, (p, b)


def test_local_series_examples(src):
    closed, _ = local_series(src, 1.0, 2, 0)
    assert closed == pytest.approx(1.0)
    s = 1.3
    closed, _ = local_series(src, s, 5, 1)
    assert closed == pytest.approx(src.lambda_p(5) / (1 + 5**-s))
    for b in (1, 2, 3):
        closed, _ = local_series(src, 0.7, 3, b)  # 3 | 21: s-independent
        assert closed == pytest.approx(src.lambda_pp(3, b))


def test_vartheta(src):
    assert vartheta(src, 1) == 1.0
    assert vartheta(src, 5) == pytest.approx(src.lambda_p(5) * 5 / 6)
    assert vartheta(src, 9) == pytest.approx(src.lambda_pp(3, 2))
    # = closed local series at s=1
    closed, _ = local_series(src, 1.0, 11, 3)
    assert vartheta(src, 11**3) == pytest.approx(complex(closed).real)


def test_vartheta_matches_pointwise_oracle(src):
    rng = random.Random(11)
    ns = [rng.randrange(1, 10**7) for _ in range(1000)] + list(range(1, 400))
    want = np.array([hecke_oracle.vartheta(src, n) for n in ns])
    assert np.array_equal(vartheta(src, ns).view(np.int64), want.view(np.int64))


def test_h_fn(src, F21):
    assert h_fn(src, F21, 1) == 1.0
    assert h_fn(src, F21, 2) == 0.0
    assert h_fn(src, F21, 5) == pytest.approx(
        r_D(F21, 5) * vartheta(src, 5) / math.sqrt(5)
    )


def test_h_fn_matches_pointwise_oracle(src, F21):
    # one vartheta call for all n, each h(n) summed in enumeration order
    ns = list(range(1, 300)) + [p * p for p in primes_upto(500).tolist()]
    want = np.array([hecke_oracle.h_pointwise(src, F21, n) for n in ns])
    assert np.array_equal(h_fn(src, F21, ns).view(np.int64), want.view(np.int64))
    assert h_fn(src, F21, np.array([[4, 5], [9, 1]])).shape == (2, 2)


def test_multiplicativity(src, F21):
    rng = random.Random(2)
    fns = {
        "vartheta": lambda n: float(vartheta(src, n)),
        "h": lambda n: float(h_fn(src, F21, n)),
        "g": lambda n: g_fn(src, F21, n),
        "mu": lambda n: mu_2k(F21, 2, n),
    }
    for name, f in fns.items():
        checked = 0
        while checked < 60:
            m, n = rng.randint(1, 90), rng.randint(1, 90)
            if math.gcd(m, n) != 1:
                continue
            assert f(m * n) == pytest.approx(f(m) * f(n), abs=1e-9), (name, m, n)
            checked += 1


def test_g_values(src, F21):
    for p in (5, 11, 13):
        chi = kronecker(F21.D, p)
        assert g_fn(src, F21, p) == pytest.approx(-2 * h_fn(src, F21, p))
        assert g_fn(src, F21, p * p) == pytest.approx(
            3 * chi + h_fn(src, F21, p * p)
        )
        assert g_fn(src, F21, p**3) == pytest.approx(-2 * chi * h_fn(src, F21, p))
        assert g_fn(src, F21, p**4) == pytest.approx(chi * chi)
        assert g_fn(src, F21, p**5) == 0.0


def test_mu_2k(F21):
    k = 3
    assert mu_2k(F21, k, 5**3) == 0.0
    assert mu_2k(F21, k, 12) == pytest.approx(
        -kronecker(F21.D, 2) * lambda_k(F21, 2 * k, 3)
    )
    for n in range(1, 10001):
        assert mu_2k(F21, k, n) == pytest.approx(
            mu_2k_closed(F21, k, n), abs=1e-10
        ), n


def test_satake_square(src, F21):
    k, p = 2, 5
    expect = (hecke_oracle.lambda_psi(src, 25) - 1) * (
        lambda_k(F21, 4 * k, p) + 1 - kronecker(F21.D, p)
    )
    assert satake_square(src, F21, k, p) == pytest.approx(expect)


def test_table_roundtrip(src, tmp_path):
    path = str(tmp_path / "psi.tbl")
    write_table(src, path, 2000)
    src2 = read_table(path)
    assert (src2.level, src2.t_psi, src2.eta_D, src2.parity) == (21, 1.0, 1, "even")
    ns = np.arange(1, 2001)
    assert lambda_psi(src2, ns).tolist() == lambda_psi(src, ns).tolist()  # bit-exact
    with pytest.raises(MissingPrime):
        src2.lambda_p(2003)


def test_write_table_bytes_match_per_prime_draw(src, tmp_path):
    # one batched draw writes the bytes the per-prime draw would write
    path = tmp_path / "psi.tbl"
    write_table(src, str(path), 5000)
    rows = [f"{p} {synthetic_lambda_p(42, 21, p):.17g}\n" for p in primes_upto(5000).tolist()]
    assert path.read_text() == "# D=21 t_psi=1.0 eta=+1 parity=even\n" + "".join(rows)


def test_malformed_tables(tmp_path):
    cases = {
        "noheader.tbl": "2 1.0\n",
        "badline.tbl": "# D=21 t_psi=1.0 eta=+1 parity=even\n2 1.0 junk\n",
        "notprime.tbl": "# D=21 t_psi=1.0 eta=+1 parity=even\n4 1.0\n",
        "order.tbl": "# D=21 t_psi=1.0 eta=+1 parity=even\n5 1.0\n3 1.0\n",
        "header.tbl": "# D=21 t_psi=1.0\n2 1.0\n",
    }
    for name, content in cases.items():
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(MalformedTable):
            read_table(str(p))


def test_read_table_names_the_composite_line(tmp_path):
    path = tmp_path / "composite.tbl"
    path.write_text("# D=21 t_psi=1.0 eta=+1 parity=even\n2 1.0\n3 1.0\n\n9 1.0\n11 1.0\n")
    with pytest.raises(MalformedTable, match=r"composite\.tbl:5: 9 is not prime"):
        read_table(str(path))


def test_read_table_refuses_a_sieve_past_the_limit(tmp_path, monkeypatch):
    # the last prime sizes the one primality sieve (1 byte per integer); a
    # row past ALLOC_BYTES_MAX (1 MB here, so a missing check costs 1 MB, not
    # 8 GiB) is refused on its line, before the sieve is built
    monkeypatch.setattr(hecke, "ALLOC_BYTES_MAX", 10**6)
    path = tmp_path / "huge.tbl"
    path.write_text("# D=21 t_psi=1.0 eta=+1 parity=even\n2 1.0\n999983 1.0\n1000003 1.0\n")
    with pytest.raises(TableBoundExceeded, match=r"huge\.tbl:4:"):
        read_table(str(path))


def test_primes_upto_matches_primerange():
    for n in (0, 1, 2, 3, 4, 30, 97, 1000, 7919):
        assert primes_upto(n).tolist() == list(primerange(2, n + 1)), n


@pytest.mark.parametrize("seed", [7, 42])
def test_lambda_p_array_matches_per_prime_draw(seed):
    # the batched draw against the per-prime formula, bit for bit, on every
    # prime below 10^5 (the ramified 3 and 7 included); lambda_p reads it
    source = make_source(synthetic=seed, D=21)
    primes = primes_upto(10**5)
    want = [synthetic_lambda_p(seed, 21, p) for p in primes.tolist()]
    assert source.lambda_p_array(primes).tolist() == want
    for p in (2, 3, 7, 99991):
        assert source.lambda_p(p) == synthetic_lambda_p(seed, 21, p)


def test_lambda_pp_array_bit_identical(src):
    # against the scalar recursion, b = -1 and 0 included (no draw there)
    primes = primes_upto(400)  # includes the ramified 3 and 7
    for b in range(-1, 7):
        want = [hecke_oracle.lambda_pp(src, p, b) for p in primes.tolist()]
        assert src.lambda_pp_array(primes, b).tolist() == want, b
        assert src.lambda_pp(7, b) == hecke_oracle.lambda_pp(src, 7, b), b


def _locals(src, F):
    """The lambda_psi, vartheta and mu_6 local callbacks at D = 21."""
    lam6, chi = lambda_k_table(F, 6, 10**5), kronecker_table(F.D)

    def theta(primes, b):
        chi0 = (21 % primes != 0).astype(np.float64)
        lam, lam2 = src.lambda_pp_array(primes, b), src.lambda_pp_array(primes, b - 2)
        return (lam - chi0 * lam2 / primes) / (1 + chi0 / primes)

    def mu(primes, b):
        if b > 2:
            return np.zeros(primes.size)
        return -lam6[primes] if b == 1 else chi[primes % 21]

    return {"lambda_psi": src.lambda_pp_array, "vartheta": theta, "mu": mu}


@pytest.mark.parametrize("name", ["lambda_psi", "vartheta", "mu"])
def test_multiplicative_at_matches_fill(src, F21, name):
    # the sparse engine against the dense table's slice, bit for bit, at
    # random n, 0, 1, the top and powers of small primes
    local = _locals(src, F21)[name]
    nmax = 10**5
    table = multiplicative_fill(nmax, local)
    rng = np.random.default_rng(3)
    ns = np.concatenate([rng.integers(0, nmax + 1, 3000), [0, 1, nmax, 2**16, 3**10, 99991]])
    got = multiplicative_at(ns.reshape(2, -1), local)
    assert got.shape == (2, ns.size // 2)
    assert np.array_equal(got.ravel().view(np.int64), table[ns].view(np.int64))


@pytest.mark.parametrize("name", ["lambda_psi", "vartheta", "mu"])
@pytest.mark.parametrize("nmax", [0, 1, 2, 3, 4, 97, 10**5])
def test_fill_matches_dense_oracle(src, F21, name, nmax):
    # the segment [0, nmax] against the whole-table fill it replaced
    local = _locals(src, F21)[name]
    want = dense_fill(nmax, local)
    assert np.array_equal(multiplicative_fill(nmax, local).view(np.int64), want.view(np.int64))


def test_other_fills_unchanged(src, F21, monkeypatch):
    # lambda_square_table and mu_2k_table, the other tables of the fill,
    # bit for bit against the same tables built on the whole-table fill
    got = [lfun.lambda_square_table(src, 5000, a=a) for a in (1, 3, 7, 21, 12)]
    got += [experiments.mu_2k_table(F21, k, 20000) for k in (3, 15)]
    monkeypatch.setattr(lfun, "multiplicative_fill", dense_fill)
    monkeypatch.setattr(experiments, "multiplicative_fill", dense_fill)
    want = [lfun.lambda_square_table(src, 5000, a=a) for a in (1, 3, 7, 21, 12)]
    want += [experiments.mu_2k_table(F21, k, 20000) for k in (3, 15)]
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_lambda_psi_segments_match_the_fill(src, F21):
    # segments of the ideal-norm table from one draw: lambda_psi(n) bit for
    # bit at every ideal norm of the band, and 0 where an inert prime (2 and
    # 11 are inert in Q(sqrt 21), and so is 300,017 > sqrt(n_max)) divides n
    # to an odd power; edges fall on 2^16, on 3 * 300,017 and next to n_max
    n_max = 10**6
    assert kronecker(F21.D, 2) == kronecker(F21.D, 11) == kronecker(F21.D, 300_017) == -1
    dense = lambda_psi_table(src, n_max)
    factors = lambda_psi_factors(src, n_max, F21)
    chi = kronecker_table(F21.D)

    def norm_shape(primes, b):  # 0 where an inert p divides n to an odd power
        return np.where((chi[primes % 21] == -1.0) & (b % 2 == 1), 0.0, 1.0)

    edges = [0, 1, 2, 1 << 16, 3 * 300_017, n_max - 1, n_max]
    for lo, hi in zip(edges, edges[1:]):
        seg = lambda_psi_table(src, hi, lo, factors)
        assert seg.size == hi - lo + 1
        norms = np.unique(ideal_scan(F21, hi, lo)[0])
        assert np.array_equal(seg[norms - lo].view(np.int64), dense[norms].view(np.int64))
        n = np.arange(lo, hi + 1)
        shape = multiplicative_at(n, norm_shape)
        assert not np.any(seg[shape == 0.0])
        kept = shape == 1.0
        assert np.array_equal(seg[kept].view(np.int64), dense[lo : hi + 1][kept].view(np.int64))
        for n_inert in (2 * 3 * 5, 11 * 7, 11**3, 3 * 300_017):
            if lo <= n_inert <= hi:
                assert seg[n_inert - lo] == 0.0 and dense[n_inert] != 0.0


def test_lambda_psi_matches_pointwise_oracle(src):
    # random n up to 10^12, bit for bit, and the non-split inputs at
    # Q = (1, 0, -21): Q(n) = n^2 - 21 (both signs) and the D_psi arguments
    # n^2 + 21, up to 4 10^6
    rng = random.Random(4)
    ns = [rng.randrange(1, 10**12) for _ in range(300)] + [10**12, 999999999989]
    ns += [n * n + c for n in range(2001) for c in (-21, 21)]
    want = np.array([hecke_oracle.lambda_psi(src, n) for n in ns])
    assert np.array_equal(lambda_psi(src, ns).view(np.int64), want.view(np.int64))


def test_lambda_psi_refuses_past_factor_max_before_dividing(src, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a division ran")

    monkeypatch.setattr(hecke, "primes_upto", refuse)
    for ns in ([FACTOR_MAX + 1], [5, -(FACTOR_MAX + 1)], [10**20]):
        with pytest.raises(Overflow):
            lambda_psi(src, ns)


def test_fill_guard_refuses_before_allocating(src, monkeypatch):
    # the bool sieve, the per-prime arrays and the float64 table: the first
    # nmax whose estimate passes 8 GiB is refused, the one below it is not
    def refuse(*args, **kwargs):
        raise AssertionError("the fill reached its allocations")

    monkeypatch.setattr(np, "ones", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    lo, over = 1, ALLOC_BYTES_MAX // 9  # the sieve and table alone refuse over
    while over - lo > 1:
        mid = (lo + over) // 2
        try:
            hecke.check_fill(mid, mid + 1)
            lo = mid
        except TableBoundExceeded:
            over = mid
    assert over < ALLOC_BYTES_MAX // 9
    with pytest.raises(TableBoundExceeded):
        multiplicative_fill(over, lambda primes, b: np.zeros(primes.size))
    with pytest.raises(TableBoundExceeded):
        lambda_psi_table(src, over)
    with pytest.raises(AssertionError, match="reached its allocations"):
        multiplicative_fill(over - 1, lambda primes, b: np.zeros(primes.size))
