import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzbias.arith import primes_upto
from hurwitzbias.hurwitz import (
    HurwitzTable,
    cusp_coefficient,
    ensure_table,
    hurwitz_H,
    hurwitz_direct,
    lambda_moment,
    moment_H,
    moment_via_reduction,
    reduction_coefficient,
    reduction_coefficient_rec,
    reduction_identity_sum,
)

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


def test_hurwitz_known_values():
    for d, v in KNOWN_H.items():
        assert hurwitz_direct(d) == v
        assert hurwitz_H(d) == v
    assert hurwitz_H(-4) == 0
    assert hurwitz_direct(13) == 0
    assert hurwitz_direct(14) == 0


def test_table_matches_direct():
    table = HurwitzTable(2000)
    for d in range(2001):
        assert table.value(d) == hurwitz_direct(d), d


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
    with pytest.raises(ValueError):
        cusp_coefficient(0, 1, 1, 5)


def test_moment_via_reduction_matches():
    for k in range(1, 5):
        for M in (1, 2, 3, 4):
            for m in range(1, M + 1):
                for n in (1, 2, 3, 5, 8, 12, 20, 36):
                    assert moment_via_reduction(k, m, M, n) == moment_H(k, m, M, n)


def test_moment_via_reduction_value():
    assert moment_via_reduction(2, 0, 1, 5) == moment_H(2, 0, 1, 5) == 48
