import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hurwitzbias
from hurwitzbias.arith import (
    catalan_ext,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    is_square,
    kronecker,
    odd_part,
    ord_p,
    p_part,
    primes_upto,
    squarefree_part,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1729)
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)


@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert math.prod(p**e for p, e in f) == n
    for p, e in f:
        assert e >= 1
        assert is_prime(p)
    primes = [p for p, _ in f]
    assert primes == sorted(set(primes))


def _brute_factorization(limit):
    """factor[n] for n <= limit, read off a smallest-prime-factor sieve."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    out = [()] * (limit + 1)
    for n in range(2, limit + 1):
        p, rest = spf[n], n // spf[n]
        pairs = list(out[rest])
        if pairs and pairs[0][0] == p:
            pairs[0] = (p, pairs[0][1] + 1)
        else:
            pairs.insert(0, (p, 1))
        out[n] = tuple(pairs)
    return out


def test_factorize_matches_brute_force_to_10_5():
    want = _brute_factorization(10**5)
    for n in range(1, 10**5 + 1):
        assert factorize.__wrapped__(n) == want[n], n


def _is_prime_by_trial(n):
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def test_factorize_on_both_sides_of_the_trial_bound():
    # trial division stops when p * p > n, where the cofactor is prime, or at
    # p = 100000, where Miller-Rabin and, for a composite, Pollard rho run
    assert _is_prime_by_trial(99991) and _is_prime_by_trial(100003)
    assert _is_prime_by_trial(10**10 + 19)
    cases = {
        99991**2: ((99991, 2),),                        # divided out by the loop
        99991 * 100003: ((99991, 1), (100003, 1)),      # p * p > cofactor 100003
        100003**2: ((100003, 2),),                      # Miller-Rabin, then rho
        2 * 100003**2: ((2, 1), (100003, 2)),
        2**61 - 1: ((2**61 - 1, 1),),                   # Miller-Rabin says prime
        10**10 + 19: ((10**10 + 19, 1),),
        7 * (10**10 + 19): ((7, 1), (10**10 + 19, 1)),
    }
    for n, want in cases.items():
        assert factorize.__wrapped__(n) == want, n


def test_factorize_rejects():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_kronecker_table():
    # Classic table rows against directly computed Legendre symbols.
    for p in (3, 5, 7, 11, 13):
        for a in range(-20, 21):
            legendre = pow(a % p, (p - 1) // 2, p)
            legendre = {0: 0, 1: 1, p - 1: -1}[legendre]
            assert kronecker(a, p) == legendre


def test_kronecker_extensions():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(5, -1) == 1
    assert kronecker(-5, -1) == -1
    assert kronecker(1, 2) == 1
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(4, 2) == 0
    assert kronecker(-1, 3) == -1
    assert kronecker(-3, 13) == 1


@given(st.integers(-200, 200), st.integers(-50, 50), st.integers(1, 60))
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(st.integers(-200, 200), st.integers(1, 40), st.integers(1, 40))
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_squarefree_part():
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(16) == 1
    assert squarefree_part(18) == 2
    assert squarefree_part(100) == 1


@given(st.integers(1, 10**6))
def test_squarefree_part_property(n):
    d = squarefree_part(n)
    assert n % d == 0
    assert is_square(n // d)
    assert all(e == 1 for _, e in factorize(d))


def test_catalan_ext():
    assert catalan_ext(0) == 1
    assert catalan_ext(1) == 0
    assert catalan_ext(2) == 1
    assert catalan_ext(3) == 0
    assert catalan_ext(4) == 2
    assert catalan_ext(6) == 5
    assert catalan_ext(8) == 14
    assert catalan_ext(10) == 42


def test_p_parts():
    assert ord_p(48, 2) == 4
    assert p_part(48, 2) == 16
    assert p_part(48, 3) == 3
    assert p_part(48, 5) == 1
    assert odd_part(48) == 3
    assert odd_part(-20) == 5
    with pytest.raises(ValueError):
        ord_p(0, 2)


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = primes_upto(10_000)
    assert len(ps) == 1229
    assert all(is_prime(p) for p in ps[:50])


def test_is_square():
    squares = {n * n for n in range(40)}
    for n in range(-5, 1500):
        assert is_square(n) == (n in squares)


def test_library_caches_are_bounded():
    bounded = set()
    for info in pkgutil.iter_modules(hurwitzbias.__path__):
        module = importlib.import_module(f"hurwitzbias.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                assert obj.cache_info().maxsize is not None, f"{module.__name__}.{name}"
                bounded.add(name)
    assert {"factorize", "moment_H", "lambda_moment", "trace_mass_table",
            "reduction_coefficient_rec"} <= bounded


def test_cache_stats_reports_every_lru_cache():
    hurwitzbias.moment_H.cache_clear()
    assert hurwitzbias.cache_stats()["hurwitz.moment_H"]["misses"] == 0
    hurwitzbias.moment_H(5, 1, 7, 499)
    stats = hurwitzbias.cache_stats()
    assert stats["hurwitz.moment_H"]["misses"] == 1
    assert all(isinstance(info["maxsize"], int) for info in stats.values())
    src = Path(hurwitzbias.__file__).parent
    decorated = {
        f"{path.stem}.{name}"
        for path in src.glob("*.py")
        for name in re.findall(r"^@lru_cache\(.*\)\ndef (\w+)", path.read_text(), re.M)
    }
    assert set(stats) == decorated
