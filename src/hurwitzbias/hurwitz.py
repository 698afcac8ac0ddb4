"""Hurwitz class numbers, their power moments along residue classes, and the
reduction of higher moments to the zeroth one.

Two independent routes to the class numbers: hurwitz_direct enumerates
reduced quadratic forms one discriminant at a time (slow, serves as oracle),
while the sieve table counts (a, b, c) triples once for a whole range, as
one scatter and one pattern of period 4a per a.  The shared table grows by
sieving only the discriminants it lacks, and moment_H steps through the
traces of its class by M.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import catalan_ext

_TABLE_HARD_LIMIT = 50_000_000


def hurwitz_direct(d: int) -> Fraction:
    """Hurwitz class number H(d) by direct reduced-form enumeration.

    Counts binary quadratic forms of discriminant -d with the usual weights
    (forms proportional to x^2+y^2 count 1/2, to x^2+xy+y^2 count 1/3).
    """
    if d < 0 or d % 4 in (1, 2):
        return Fraction(0)
    if d == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    for a in range(1, math.isqrt(d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + d) % (4 * a):
                continue
            c = (b * b + d) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            if a == b == c:
                total += Fraction(1, 3)
            elif b == 0 and a == c:
                total += Fraction(1, 2)
            else:
                total += 1
    return total


def _sieve_range(h: np.ndarray, lo: int, hi: int) -> None:
    """Add every weighted reduced form (a, b, c) with lo <= 4ac - b^2 <= hi
    into h, which is indexed by discriminant.

    For each a and 0 <= b <= a, c = a is the head term at d = 4a^2 - b^2
    (weight 6, 4 or 12 in units of 1/12), and c > a is a tail with weight 12
    or 24 at every d = 4a^2 - b^2 + 4aj, j >= 1.  From d = 4a^2 + 4a on every
    tail is running, so they add one pattern of period 4a, carrying tail(b) at
    residue -b^2 (mod 4a).  The heads and the tail terms below 4a^2 + 4a go in
    by one scatter, through np.add.at because two of them land on the same d
    whenever b1^2 = b2^2 (mod 4a), e.g. a head and a first tail when
    b1^2 - b2^2 = 4a.
    """
    for a in range(1, math.isqrt(hi // 3) + 1):
        step = 4 * a
        periodic = 4 * a * a + step
        b = np.arange(a + 1)
        sq = b * b
        tail = np.full(a + 1, 24)
        tail[0] = tail[a] = 12
        if lo < periodic:
            head = np.full(a + 1, 12)
            head[0], head[a] = 6, 4
            # tail terms below the periodic start: j = 1 .. ceil(b^2 / 4a)
            runs = (sq + step - 1) // step
            bj = np.repeat(b, runs)
            j = np.arange(bj.size) - np.repeat(np.cumsum(runs) - runs, runs) + 1
            pos = np.concatenate((4 * a * a - sq, 4 * a * a - bj * bj + step * j))
            weight = np.concatenate((head, tail[bj]))
            keep = (pos >= lo) & (pos <= hi)
            np.add.at(h, pos[keep], weight[keep])
        start = max(lo, periodic)
        if start > hi:
            continue
        pattern = np.bincount(-sq % step, weights=tail, minlength=step).astype(np.int64)
        pattern = np.roll(pattern, -(start % step))
        stop = hi + 1 - (hi + 1 - start) % step
        h[start:stop].reshape(-1, step)[...] += pattern
        h[stop : hi + 1] += pattern[: hi + 1 - stop]


class HurwitzTable:
    """Dense table of 12*H(d) for 0 <= d <= limit, built by a periodic sieve.

    Given a smaller table as base, its entries are copied and only the
    discriminants in (base.limit, limit] are sieved.
    """

    def __init__(self, limit: int, base: HurwitzTable | None = None):
        if limit > _TABLE_HARD_LIMIT:
            raise ValueError("table limit is guarded to 5e7")
        self.limit = limit
        h = np.zeros(limit + 1, dtype=np.int64)
        if base is None:
            h[0] = -1
            lo = 1
        else:
            lo = min(base.limit, limit) + 1
            h[:lo] = base.h12[:lo]
        _sieve_range(h, lo, limit)
        self.h12 = h

    def value(self, d: int) -> Fraction:
        if d < 0:
            return Fraction(0)
        return Fraction(int(self.h12[d]), 12)


_table = HurwitzTable(0)


def ensure_table(limit: int) -> HurwitzTable:
    """Grow the shared class-number table to cover discriminants up to limit,
    sieving only the discriminants the current table lacks."""
    global _table
    if _table.limit < limit:
        _table = HurwitzTable(max(limit, min(2 * _table.limit, _TABLE_HARD_LIMIT)), _table)
    return _table


def hurwitz_H(d: int) -> Fraction:
    """Hurwitz class number H(d), from the shared table when it covers d."""
    if d < 0 or d % 4 in (1, 2):
        return Fraction(0)
    if d <= _table.limit:
        return _table.value(d)
    if d <= 200_000:
        return ensure_table(max(d, 50_000)).value(d)
    return hurwitz_direct(d)


@lru_cache(maxsize=1 << 15)
def moment_H(k: int, m: int, M: int, n: int) -> Fraction:
    """k-th moment of H(4n - t^2) over t = m (mod M), including t = 0 and
    the boundary terms t^2 = 4n (where H(0) = -1/12)."""
    if k < 0 or M < 1 or n < 0:
        raise ValueError("moment_H requires k >= 0, M >= 1, n >= 0")
    tmax = math.isqrt(4 * n)
    t = np.arange(-tmax + (m + tmax) % M, tmax + 1, M)
    h = ensure_table(4 * n).h12[4 * n - t * t].tolist()
    num = sum(h) if k == 0 else sum(x**k * y for x, y in zip(t.tolist(), h))
    return Fraction(num, 12)


@lru_cache(maxsize=1 << 15)
def lambda_moment(k: int, m: int, M: int, n: int) -> Fraction:
    """Sum of (smaller divisor)^(k+1) over factorizations n = u*v with
    u + v = +-m (mod M); the sign branch carries (-1)^k and u = v counts half."""
    if k < 0 or M < 1 or n < 1:
        raise ValueError("lambda_moment requires k >= 0, M >= 1, n >= 1")
    total = Fraction(0)
    sign = -1 if k % 2 else 1
    for u in range(1, math.isqrt(n) + 1):
        if n % u:
            continue
        v = n // u
        t = u + v
        w = Fraction(1, 2) if u == v else Fraction(1)
        term = Fraction(0)
        if (t - m) % M == 0:
            term += 1
        if (t + m) % M == 0:
            term += sign
        total += w * u ** (k + 1) * term
    return total


def reduction_coefficient(k: int, mu: int) -> int:
    """T(k, mu) = (k-2mu+1)/(k-mu+1) * binom(k, mu), always an integer."""
    if not 0 <= 2 * mu <= k + 1:
        raise ValueError("reduction_coefficient requires 0 <= 2*mu <= k+1")
    num = (k - 2 * mu + 1) * math.comb(k, mu)
    den = k - mu + 1
    assert num % den == 0
    return num // den


@lru_cache(maxsize=1 << 12)
def reduction_coefficient_rec(k: int, mu: int) -> int:
    """Same coefficients by the defining recursion, kept as an independent route."""
    if not 0 <= 2 * mu <= k + 1:
        raise ValueError("reduction_coefficient_rec requires 0 <= 2*mu <= k+1")
    if mu == 0:
        return 1
    total = 0
    for j in range(1, mu + 1):
        total += (-1) ** j * math.comb(k - j, j) * reduction_coefficient_rec(k - 2 * j, mu - j)
    return -total


def reduction_identity_sum(k: int, mu: int) -> Fraction:
    """Alternating factorial-ratio sum that vanishes for mu >= 1, k >= 2mu+1."""
    total = Fraction(0)
    for m in range(mu + 1):
        num = math.factorial(k - m)
        den = math.factorial(k - mu - m + 1)
        total += (-1) ** m * math.comb(mu, m) * Fraction(num, den)
    return total


def cusp_coefficient(k: int, m: int, M: int, n: int) -> Fraction:
    """n-th coefficient of the weight k+3/2 cusp component, k >= 1; computed
    from moments and divisor sums rather than from modular forms."""
    if k < 1:
        raise ValueError("cusp coefficients require k >= 1")
    total = moment_H(k, m, M, n) + lambda_moment(k, m, M, n)
    for mu in range(1, k // 2 + 1):
        total += (-1) ** mu * math.comb(k - mu, mu) * n**mu * moment_H(k - 2 * mu, m, M, n)
    return total


def moment_via_reduction(k: int, m: int, M: int, n: int) -> Fraction:
    """k-th moment rebuilt from the zeroth moment, cusp coefficients and
    divisor sums; must agree with moment_H for every k >= 0.  At k = 0 the
    rebuild degenerates to the zeroth moment itself."""
    if k < 0:
        raise ValueError("the reduction applies to k >= 0")
    ck = catalan_ext(k)
    total = Fraction(0)
    if ck:
        total += ck * n ** (k // 2) * moment_H(0, m, M, n)
    for mu in range((k - 1) // 2 + 1):
        j = k - 2 * mu
        total += (
            reduction_coefficient(k, mu)
            * (cusp_coefficient(j, m, M, n) - lambda_moment(j, m, M, n))
            * n**mu
        )
    return total
