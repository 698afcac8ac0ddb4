"""Number-theory kernel: factorization, Kronecker symbols, small multiplicative helpers.

Everything in this module is exact integer / rational arithmetic; no floats
and no complex numbers (a root of unity is kept as its exact exponent, and
characters.root turns that into a complex number).
"""

from __future__ import annotations

import math
from functools import lru_cache

# Witness set is deterministic for all n < 3.3 * 10**24, so for every 64-bit input.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid for all 64-bit inputs)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of odd composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1  # cycle collapsed onto itself, retry with a different polynomial


@lru_cache(maxsize=1 << 12)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of n >= 1.

    Trial division runs over a 2-3-5 wheel while p * p <= n and p < 100000.
    When it ends because p * p > n, the cofactor left (if > 1) has no prime
    factor up to its square root, so it is prime and is recorded as found.
    Only when the loop stops at the 100000 bound does the cofactor go to
    the Miller-Rabin test and, if composite, to Pollard rho.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n >> 63:
        raise ValueError("factorize is guarded to 63-bit inputs")
    found: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p < 100_000:
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    if p * p > n:
        if n > 1:
            found[n] = 1
        return tuple(sorted(found.items()))
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(found.items()))


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extending the Jacobi symbol to all integers n.

    Conventions: (a|0) = 1 iff a = +-1 else 0; (a|-1) = 1 for a >= 0, -1 for
    a < 0; (a|2) = 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    t2 = 0
    while n % 2 == 0:
        n //= 2
        t2 += 1
    if t2 and a % 2 == 0:
        return 0
    result = 1
    if t2 % 2 == 1 and a % 8 in (3, 5):
        result = -result
    # Jacobi symbol (a|n) for odd n > 0 by binary reciprocity.
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor d of n with n/d a perfect square."""
    if n < 1:
        raise ValueError("squarefree_part requires n >= 1")
    out = 1
    for p, e in factorize(n):
        if e % 2:
            out *= p
    return out


def catalan_ext(k: int) -> int:
    """Catalan numbers reindexed: C_{k/2} for even k, 0 for odd k >= 1, 1 at k = 0."""
    if k < 0:
        raise ValueError("catalan_ext requires k >= 0")
    if k == 0:
        return 1
    if k % 2:
        return 0
    h = k // 2
    return math.comb(k, h) // (h + 1)


def ord_p(n: int, p: int) -> int:
    """Exponent of the prime p in n (n nonzero)."""
    if n == 0:
        raise ValueError("ord_p of zero is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def p_part(n: int, p: int) -> int:
    """The p-part p**ord_p(n) of a nonzero integer."""
    return p ** ord_p(n, p)


def odd_part(n: int) -> int:
    if n == 0:
        raise ValueError("odd_part of zero is undefined")
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    return n


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit via a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]
