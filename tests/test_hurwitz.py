import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzbias import hurwitz
from hurwitzbias.arith import catalan_ext, primes_upto
from hurwitzbias.eisenstein import _ROW_BLOCK
from hurwitzbias.hurwitz import (
    _TABLE_HARD_LIMIT,
    HurwitzTable,
    _sieve_range,
    _slot_count,
    cusp_coefficient,
    ensure_table,
    hurwitz_H,
    hurwitz_direct,
    lambda2_column,
    lambda_moment,
    moment12_column,
    moment_H,
    moment_via_reduction,
    reduction_coefficient,
    reduction_coefficient_rec,
    reduction_identity_sum,
)
from hurwitzbias.verify import run_suite

KNOWN_H = {
    0: Fraction(-1, 12),
    1: 0,
    2: 0,
    3: Fraction(1, 3),
    4: Fraction(1, 2),
    5: 0,
    6: 0,
    7: 1,
    8: 1,
    11: 1,
    12: Fraction(4, 3),
    15: 2,
    16: Fraction(3, 2),
    19: 1,
    20: 2,
    23: 3,
    24: 2,
    39: 4,
    47: 5,
}


def test_hurwitz_known_values(monkeypatch):
    for d, v in KNOWN_H.items():
        assert hurwitz_direct(d) == v
        assert hurwitz_H(d) == v
    assert hurwitz_H(-4) == 0
    assert hurwitz_direct(13) == 0
    assert hurwitz_direct(14) == 0
    # past 2 * 10^5 and past the shared table, which earlier tests may have
    # grown, hurwitz_H sieves the one-discriminant window [d, d]
    monkeypatch.setattr(hurwitz, "_table", HurwitzTable(0))
    assert hurwitz_H(200_003) == 129
    assert hurwitz_H(4_000_003) == 248
    rng = random.Random(2024)
    for d in sorted(4 * rng.randrange(50_001, 250_001) - rng.randrange(2) for _ in range(20)):
        assert hurwitz_H(d) == hurwitz_direct(d), d
    assert hurwitz._table.limit == 0


def test_moment_suites_grow_the_table_themselves(monkeypatch):
    # moment_H grows the shared table as it needs, so the suites that read it
    # pass from an empty table with the same number of checks
    for name, checks in (("kronecker-hurwitz", 969), ("progressions", 334)):
        monkeypatch.setattr(hurwitz, "_table", HurwitzTable(0))
        moment_H.cache_clear()
        report = run_suite(name)
        assert report.passed and report.checks == checks, report.summary()
        assert hurwitz._table.limit >= 4 * 997


def test_table_matches_direct():
    table = HurwitzTable(2000)
    for d in range(2001):
        assert table.value(d) == hurwitz_direct(d), d


def test_table_value_past_its_limit_names_the_limit():
    table = HurwitzTable(100)
    assert table.value(100) == hurwitz_direct(100) and table.value(98) == 0
    for d in (101, 103, 10**6):
        with pytest.raises(ValueError, match="past the table limit 100"):
            table.value(d)


def strided_sieve(limit):
    """The sieve as one strided add per (a, b) tail, from 0: the reference
    for the periodic sieve."""
    h = np.zeros(limit + 1, dtype=np.int64)
    for a in range(1, math.isqrt(limit // 3) + 1):
        for b in range(a + 1):
            d0 = 4 * a * a - b * b
            if d0 <= limit:
                h[d0] += 6 if b == 0 else (4 if b == a else 12)
            h[d0 + 4 * a :: 4 * a] += 12 if b in (0, a) else 24
    h[0] = -1
    return h


def expand(table):
    """The slots as h[d] = 12 H(d) for 0 <= d <= limit: 4i is slot 2i,
    4i + 3 is slot 2i + 1, and d = 1, 2 (mod 4) reads 0."""
    h = np.zeros(table.limit + 1, dtype=np.int64)
    h[0::4] = table.slots[0::2]
    h[3::4] = table.slots[1::2]
    return h


def assert_table_is(table, want):
    # every d <= limit, the zeros at d = 1, 2 (mod 4) included, read three
    # ways: the slots as laid out, dense() and, up to 2000, value(d)
    assert np.array_equal(expand(table), want)
    assert np.array_equal(table.dense(0, table.limit), want)
    for d in range(min(table.limit, 2000) + 1):
        assert table.value(d) == Fraction(int(want[d]), 12), d


def test_slot_count_and_dtype():
    # one int32 slot, 4 bytes, per d = 0, 3 (mod 4) up to the limit, and an
    # int32 window per sieved range
    for limit in range(65):
        slots = sum(d % 4 in (0, 3) for d in range(limit + 1))
        table = HurwitzTable(limit)
        assert table.slots.dtype == np.int32 and table.slots.shape == (slots,), limit
        assert table.slots.nbytes == 4 * _slot_count(limit), limit
        window = _sieve_range(1, limit)
        assert window.dtype == np.int32 and window.shape == (slots - 1,), limit


def test_table_matches_strided_sieve():
    # every limit up to 64, across the periodic starts d = 8, 24, 48 of
    # a = 1, 2, 3, then one limit near 10^5 in each class mod 4
    for limit in [*range(65), *range(10**5, 10**5 + 4)]:
        assert_table_is(HurwitzTable(limit), strided_sieve(limit))


def test_table_grows_through_every_residue_class():
    # each step ends on a new class mod 4, some steps shorter than 4, so the
    # copied slots end and the sieved window starts at every slot parity
    table = HurwitzTable(0)
    for limit in (1, 2, 3, 4, 7, 9, 14, 60, 61, 62, 63, 64, 1001, 1002, 5003, 20_000):
        table = HurwitzTable(limit, table)
        assert_table_is(table, strided_sieve(limit))


def test_table_sieves_wide_windows_in_pieces(monkeypatch):
    # pieces of 61 discriminants, so that a build and a growth step cross
    # piece boundaries in every class mod 4 and mid-period; each piece is
    # sieved in place in a view of the slots, so an add lost to a copy (a
    # reshape of a view that is not contiguous) would show here
    monkeypatch.setattr(hurwitz, "_CHUNK", 61)
    table = HurwitzTable(1000)
    assert_table_is(table, strided_sieve(1000))
    assert_table_is(HurwitzTable(5003, table), strided_sieve(5003))


def test_slot_window_has_int32_headroom():
    # an int32 slot, of the table or of a window, collects per a the weights
    # of the forms (a, b, c) at its d, at most one per b and at most
    # 24 (a + 1) in all, per a that the largest guarded table sieves; so
    # every stored 12 H(d) up to the cap fits
    a_max = math.isqrt(_TABLE_HARD_LIMIT // 3)
    assert 24 * sum(a + 1 for a in range(1, a_max + 1)) < 2**31


def test_table_grows_in_a_chain():
    # limits that are not multiples of 4a, so every growth step cuts the
    # periodic patterns and the head scatters mid-period
    table = HurwitzTable(0)
    for limit in (999, 2500, 7001):
        table = HurwitzTable(limit, table)
        assert table.limit == limit
        assert np.array_equal(table.slots, HurwitzTable(limit).slots), limit
    for d in range(7002):
        assert table.value(d) == hurwitz_direct(d), d
    # a window of the slots d = 0, 3 (mod 4) in [lo, hi] with ends
    # mid-period, and single points
    h = expand(table)
    for lo, hi in ((2501, 7001), (999, 1003), (1, 1), (3, 3), (2503, 2503), (7000, 7000)):
        window = _sieve_range(lo, hi)
        want = [h[d] for d in range(lo, hi + 1) if d % 4 in (0, 3)]
        assert window.tolist() == want, (lo, hi)


def test_windows_at_the_fold_boundaries():
    # a window folds the pattern of every a with 2(a^2 + a) <= its first
    # slot; first slots just below, at and just above that start, for short
    # and long windows, against the slices of a table sieved from d = 1,
    # which folds nothing.  Slot s holds d = 2s for even s and 2s + 1 for odd
    table = HurwitzTable(40_000)

    def check(lo, hi):
        want = table.slots[_slot_count(lo - 1) : _slot_count(hi)]
        assert np.array_equal(_sieve_range(lo, hi), want), (lo, hi)

    for a in (1, 2, 3, 4, 7, 12, 29, 30, 57):
        start = 2 * (a * a + a)
        for s in (start - 2, start - 1, start, start + 1, start + 2):
            lo = 2 * s + s % 2
            for width in (0, 1, 2, 2 * a + 1, 3 * a, 4 * a - 1, 4 * a, 8 * a + 3, 5000):
                check(lo, lo + width)
            check(lo - 1, lo + 300)  # lo at d = 1, 2 (mod 4)
    # windows from d = 1, and one-discriminant windows
    for hi in (1, 3, 4, 47, 48, 1000, 39_999, 40_000):
        check(1, hi)
    for d in (3, 4, 7, 8, 11, 23, 24, 1000, 4803, 4804, 39_999, 40_000):
        check(d, d)


def test_growth_chain_matches_a_one_shot_table():
    # the shared table's doubling chain to 10^6: every growth folds, while a
    # build from d = 1 does not, so the two reach every slot by both paths
    table = HurwitzTable(0)
    for limit in (62_500, 125_000, 250_000, 500_000, 10**6):
        table = HurwitzTable(limit, table)
    assert np.array_equal(table.slots, HurwitzTable(10**6).slots)


def test_growth_peak_memory_stays_small():
    # above the base and the new slots, a growth holds the sieve's working
    # arrays: chunks of about _BLOCK pairs, one L's pattern at a time and one
    # a's tails.  2.65 MiB before the fold; building every folded pattern
    # before the first pass measured 6.23 MiB, and grows as root^2
    base = HurwitzTable(4 * 10**6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grown = HurwitzTable(8 * 10**6, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before - grown.slots.nbytes < 4 * 2**20


def test_growth_leaves_its_base_alone():
    # a growth copies the base's slots into a new array and writes only there
    base = HurwitzTable(1000)
    before = base.slots.copy()
    grown = HurwitzTable(5003, base)
    assert np.array_equal(base.slots, before)
    assert not np.shares_memory(grown.slots, base.slots)
    assert np.array_equal(grown.slots[: before.size], before)


def test_failed_growth_keeps_the_shared_table(monkeypatch):
    # a sieve that raises mid-build leaves the shared table as it was: the new
    # table is bound only once it is complete
    monkeypatch.setattr(hurwitz, "_CHUNK", 61)
    monkeypatch.setattr(hurwitz, "_table", HurwitzTable(100))
    table, before = hurwitz._table, hurwitz._table.slots.copy()
    sieve, pieces = hurwitz._sieve_range, []

    def failing(lo, hi, out=None):
        pieces.append((lo, hi))
        if len(pieces) == 3:
            raise MemoryError("sieve failed mid-build")
        return sieve(lo, hi, out)

    monkeypatch.setattr(hurwitz, "_sieve_range", failing)
    with pytest.raises(MemoryError):
        ensure_table(1000)
    assert len(pieces) == 3
    assert hurwitz._table is table and np.array_equal(table.slots, before)
    assert hurwitz_H(100) == hurwitz_direct(100)


def test_dense_reads_only_inside_its_table():
    table = HurwitzTable(100)
    for lo, hi in ((98, 107), (-8, -1), (5, 3)):
        with pytest.raises(ValueError, match=r"not a range of d in \[0, 100\]"):
            table.dense(lo, hi)
    assert np.array_equal(table.dense(95, 100), strided_sieve(100)[95:])


def test_table_at_its_reference_size():
    # the sieve at 4 * 10^6 against the oracle at one d in each class 0, 3,
    # 4 and 7 (mod 8) at its top, and at the last slot, d = 4 * 10^6
    table = HurwitzTable(4 * 10**6)
    assert table.slots.size == 2 * 10**6 + 1
    for d in (3999992, 3999995, 3999996, 3999999):
        assert table.value(d) == hurwitz_direct(d), d
    assert Fraction(int(table.slots[-1]), 12) == hurwitz_direct(4 * 10**6)


def test_ensure_table_grows():
    t = ensure_table(100)
    assert t.limit >= 100
    assert ensure_table(50).limit >= t.limit


def test_kronecker_hurwitz_relation():
    for p in (5, 7, 11, 13, 97, 101):
        total = sum(hurwitz_H(4 * p - t * t) for t in range(-2 * p, 2 * p + 1) if t * t <= 4 * p)
        assert total == 2 * p


def test_moment_examples():
    assert moment_H(0, 0, 2, 5) == 6
    assert moment_H(0, 1, 2, 5) == 4
    assert moment_H(2, 1, 2, 5) == 20


def test_parity_closed_forms_at_primes():
    for p in primes_upto(200):
        if p == 2:
            continue
        assert moment_H(0, 0, 2, p) == Fraction(4 * p - 2, 3)
        assert moment_H(0, 1, 2, p) == Fraction(2 * p + 2, 3)


@settings(max_examples=80)
@given(st.integers(0, 3), st.integers(-6, 6), st.integers(1, 6), st.integers(1, 60))
def test_moment_parity_in_m(k, m, M, n):
    assert moment_H(k, -m, M, n) == (-1) ** k * moment_H(k, m, M, n)


def test_moment_partition():
    # residue classes partition the full sum
    for M in (2, 3, 5):
        for n in (7, 12, 25):
            total = sum(moment_H(0, m, M, n) for m in range(M))
            assert total == moment_H(0, 0, 1, n)


def moment_by_filter(k, m, M, n):
    tmax = math.isqrt(4 * n)
    return sum(
        (t**k * hurwitz_H(4 * n - t * t) for t in range(-tmax, tmax + 1) if (t - m) % M == 0),
        Fraction(0),
    )


def test_moment_steps_match_filter():
    # negative m, m >= M, M = 1, and n = s^2 where t = +-2s hits H(0)
    for k in range(4):
        for M in (1, 2, 3, 5, 12):
            for m in (-13, -5, -1, 0, 1, 4, 12, 29):
                for n in (1, 2, 4, 9, 10, 36, 37, 100, 121):
                    assert moment_H(k, m, M, n) == moment_by_filter(k, m, M, n), (k, m, M, n)


def test_moment_matches_python_int_sum_across_the_int64_bound():
    # k >= 1 sums in int64 only while isqrt(4n)^k * sum |12 H| < 2^63; the
    # grid reaches past that bound, where the sum is taken in Python ints
    moment_H.cache_clear()
    for n in (0, 1, 36, 9973, 62500, 250000):
        h12 = expand(ensure_table(4 * n)).tolist()
        tmax = math.isqrt(4 * n)
        for M in (1, 2, 3, 5, 12):
            for m in (-13, -1, 0, 1, 4, 12, 29):
                terms = [(t, h12[4 * n - t * t])
                         for t in range(-tmax + (m + tmax) % M, tmax + 1, M)]
                for k in range(13):
                    want = Fraction(sum(t**k * h for t, h in terms), 12)
                    assert moment_H(k, m, M, n) == want, (k, m, M, n)


def test_moment_bound_counts_both_ends_of_the_class():
    # at n = 500^2 the entries at t = +-1000 are 12 H(0) = -1, which the
    # bound sum h + 4 >= sum |h| covers: the class 0 mod 8 holds them with
    # t = 0, and the class 1000 mod 2000 holds only them, so sum h = -2
    n, tmax = 250000, 1000
    h12 = expand(ensure_table(4 * n)).tolist()
    moment_H.cache_clear()
    for m, M in ((0, 8), (1000, 2000)):
        terms = [(t, h12[4 * n - t * t]) for t in range(-tmax, tmax + 1) if (t - m) % M == 0]
        assert (terms[0], terms[-1]) == ((-tmax, -1), (tmax, -1))
        for k in range(13):
            want = Fraction(sum(t**k * h for t, h in terms), 12)
            assert moment_H(k, m, M, n) == want, (k, m, M)


def test_zeroth_moment_on_both_sides_of_the_sum_crossover():
    # k = 0 sums in Python ints up to _SUM_CROSSOVER terms and in int64 past
    # it; one class of each length either side, against hurwitz_direct
    cut = hurwitz._SUM_CROSSOVER
    seen = set()
    for M in (1, 2, 3):
        for m in range(M):
            for n in range(1, 1500):
                tmax = math.isqrt(4 * n)
                ts = range(-tmax + (m + tmax) % M, tmax + 1, M)
                if len(ts) in (cut, cut + 1) and (M, m, len(ts)) not in seen:
                    seen.add((M, m, len(ts)))
                    want = sum((hurwitz_direct(4 * n - t * t) for t in ts), Fraction(0))
                    assert moment_H(0, m, M, n) == want, (m, M, n)
    assert {length for _, _, length in seen} == {cut, cut + 1}
    # Kronecker-Hurwitz on the long path: 2 sigma(n) - sum_{d | n} min(d, n/d)
    n = 250000
    divs = [d for d in range(1, n + 1) if n % d == 0]
    assert moment_H(0, 0, 1, n) == 2 * sum(divs) - sum(min(d, n // d) for d in divs) == 1207750


def test_moment_pins_on_both_sides_of_the_int64_bound():
    # int64 path
    assert moment_H(3, 2, 5, 250000) == -26353495920
    # fits in int64, but the bound cannot show it, so it is summed in Python ints
    assert moment_H(4, 0, 1, 250000) == 150683625594141448
    # far past int64
    assert moment_H(9, 1, 3, 250000) == -7477492730559215598691378370
    # an empty class: n = 0 has only t = 0
    for k in (1, 2, 7):
        assert moment_H(k, 1, 3, 0) == 0
        assert moment_H(k, 5, 12, 0) == 0


def lambda_brute(k, m, M, n):
    total = Fraction(0)
    for t in range(1, 2 * n + 2):
        s2 = t * t - 4 * n
        if s2 < 0:
            continue
        s = math.isqrt(s2)
        if s * s != s2:
            continue
        w = Fraction(1, 2) if s == 0 else Fraction(1)
        u = Fraction(t - s, 2)
        if (t - m) % M == 0:
            total += w * u ** (k + 1)
        if (t + m) % M == 0:
            total += (-1) ** k * w * u ** (k + 1)
    return total


@settings(max_examples=100)
@given(st.integers(0, 4), st.integers(0, 7), st.integers(1, 8), st.integers(1, 100))
def test_lambda_against_bruteforce(k, m, M, n):
    assert lambda_moment(k, m, M, n) == lambda_brute(k, m, M, n)


def test_lambda_grid_against_bruteforce():
    # perfect squares n = s^2, where u = v counts half, with negative m,
    # m >= M and every k up to 8, the largest order moment_via_reduction is checked at
    for k in range(9):
        for M in (1, 3, 12):
            for m in (-13, -2, 0, 5, 12, 29):
                for n in [s * s for s in range(1, 41)]:
                    assert lambda_moment(k, m, M, n) == lambda_brute(k, m, M, n), (k, m, M, n)


def _columns_match_the_single_n_routes(m, M, n0, n1):
    moments = moment12_column(m, M, n0, n1)
    lambdas = lambda2_column(m, M, n0, n1)
    assert moments.dtype == lambdas.dtype == np.int64
    assert moments.size == lambdas.size == n1 - n0 + 1
    for n, s, w in zip(range(n0, n1 + 1), moments.tolist(), lambdas.tolist()):
        assert Fraction(s, 12) == moment_H(0, m, M, n), (m, M, n)
        assert Fraction(w, 2) == lambda_moment(0, m, M, n), (m, M, n)


def test_columns_match_moment_and_lambda_at_every_n():
    # M = 1, m = 0 (mod M), odd and even M, m = -m (mod M) and not, and m
    # outside 0..M - 1; every n <= 400 includes the squares, where an even t
    # reads 12 H(0) = -1 at 4n = t^2 and the divisor pair u = v counts once
    for M in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12):
        for m in {0, 1, M // 2, M - 1, M, -1, M + 3}:
            _columns_match_the_single_n_routes(m, M, 1, 400)


def test_columns_read_the_boundary_entry():
    # t = 2a with 4n = t^2 reads 12 H(0) = -1: at n = 1 the class 0 mod 2 has
    # t = -2, 0, 2, so 12 moment = -1 + 12 H(4) - 1 = 4
    assert moment12_column(0, 2, 1, 1).tolist() == [12 * moment_H(0, 0, 2, 1)] == [4]
    for a in (1, 7, 30):
        n = a * a
        assert moment12_column(2 * a, 4 * a + 1, n, n).tolist() == [-1]  # t = 2a alone


def test_columns_on_windows_away_from_one():
    # a window starting past n = 1, across where residual_rows starts a block,
    # and one-n windows
    for m, M in ((0, 1), (3, 7), (2, 8), (5, 12)):
        _columns_match_the_single_n_routes(m, M, _ROW_BLOCK - 40, _ROW_BLOCK + 40)
        for n in (1, 2, 97, 1000):
            _columns_match_the_single_n_routes(m, M, n, n)


def test_reduction_coefficients():
    assert reduction_coefficient(3, 1) == 2
    assert reduction_coefficient(5, 2) == 5
    for k in range(0, 41):
        for mu in range((k + 1) // 2 + 1):
            if 2 * mu <= k + 1:
                assert reduction_coefficient(k, mu) == reduction_coefficient_rec(k, mu)


def test_reduction_identity_vanishes():
    for mu in range(1, 11):
        for k in range(2 * mu + 1, 31):
            assert reduction_identity_sum(k, mu) == 0


def test_cusp_coefficient_requires_positive_order():
    # and a positive level and index: k = 0, M = 0, n = 0
    for args in ((0, 1, 1, 5), (2, 1, 0, 5), (2, 1, 1, 0)):
        with pytest.raises(ValueError):
            cusp_coefficient(*args)


def cusp_by_fractions(k, m, M, n):
    """cusp_coefficient summed in Fractions term by term, as a reference for
    the integer sum; it reads the moments through the module, as the
    library does."""
    total = hurwitz.moment_H(k, m, M, n) + hurwitz.lambda_moment(k, m, M, n)
    for mu in range(1, k // 2 + 1):
        total += (-1) ** mu * math.comb(k - mu, mu) * n**mu * hurwitz.moment_H(k - 2 * mu, m, M, n)
    return total


def reduction_by_fractions(k, m, M, n):
    """moment_via_reduction summed in Fractions term by term."""
    ck = catalan_ext(k)
    total = Fraction(0)
    if ck:
        total += ck * n ** (k // 2) * hurwitz.moment_H(0, m, M, n)
    for mu in range((k - 1) // 2 + 1):
        j = k - 2 * mu
        total += (
            reduction_coefficient(k, mu)
            * (cusp_by_fractions(j, m, M, n) - hurwitz.lambda_moment(j, m, M, n))
            * n**mu
        )
    return total


def test_integer_sums_equal_the_fraction_sums():
    for n in [*range(1, 61), 249999, 250000, 250001]:
        for M in range(1, 7):
            for m in range(M):
                for k in range(10):
                    want = reduction_by_fractions(k, m, M, n)
                    assert moment_via_reduction(k, m, M, n) == want, (k, m, M, n)
                    if k:
                        want = cusp_by_fractions(k, m, M, n)
                        assert cusp_coefficient(k, m, M, n) == want, (k, m, M, n)


def test_moment_via_reduction_matches():
    for k in range(1, 5):
        for M in (1, 2, 3, 4):
            for m in range(1, M + 1):
                for n in (0, 1, 2, 3, 5, 8, 12, 20, 36):
                    assert moment_via_reduction(k, m, M, n) == moment_H(k, m, M, n)


def test_moment_via_reduction_value():
    assert moment_via_reduction(2, 0, 1, 5) == moment_H(2, 0, 1, 5) == 48


def test_moment_via_reduction_rejects_bad_arguments():
    for args in ((-1, 1, 1, 5), (2, 1, 0, 5), (2, 1, 1, -1)):
        with pytest.raises(ValueError):
            moment_via_reduction(*args)


# tau(1), ..., tau(12): the coefficients of Delta = q prod (1 - q^i)^24
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944)


def test_cusp_coefficient_at_level_one_is_minus_twice_the_hecke_trace():
    # Eichler-Selberg: cusp_coefficient(k, 1, 1, n) = -2 Tr T_n on
    # S_{k+2}(SL_2(Z)), which is -2 tau(n) on S_12 = C Delta and 0 where
    # S_{k+2} = 0
    for n, tau in enumerate(TAU, 1):
        assert cusp_coefficient(10, 1, 1, n) == -2 * tau, n
        for k in (2, 4, 6, 8, 12):
            assert cusp_coefficient(k, 1, 1, n) == 0, (k, n)
