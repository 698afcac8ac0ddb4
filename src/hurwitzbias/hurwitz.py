"""Hurwitz class numbers, their power moments along residue classes, and the
reduction of higher moments to the zeroth one.

Two independent routes to the class numbers: hurwitz_direct enumerates
reduced quadratic forms one discriminant at a time (slow, serves as oracle),
while the sieve table counts (a, b, c) triples once for a whole range.  Per
a, one scatter adds the terms below d = 4a^2 + 4a, and two patterns of
period a add the rest into quarter-length int32 arrays, one for d = 0 and
one for d = 3 (mod 4), the only classes that have forms.  The shared table
grows by sieving only the discriminants it lacks, and moment_H steps
through the traces of its class by M.  For k >= 1 it sums t^k * 12 H(4n - t^2)
as one int64 dot product whenever isqrt(4n)^k * sum |12 H| < 2^63 bounds
every partial sum, and in Python ints otherwise; the zeroth moment stays on
Python ints, which are faster on its short classes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import catalan_ext

_TABLE_HARD_LIMIT = 50_000_000
# lambda_moment scans every u <= sqrt(n): about 0.2 s at n = 10^13
_LAMBDA_N_CAP = 10**14
# width of the rows a periodic pattern is added in, tiled up to it; of 64 ..
# 65536 it was the fastest for tables of 10^6 to 4*10^6 on a 2-core machine
_ROW = 4096


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


def _add_periodic(q: np.ndarray, first: int, start: int, pattern: np.ndarray) -> None:
    """q[k] += pattern[(first + k) % len(pattern)] wherever first + k >= start.

    q holds the entries first, first + 1, ... of one quarter array.  The
    pattern is tiled up to _ROW, so that a short period still adds in long
    rows: at a = 1 rows of one entry cost more than the adds they save.
    """
    k0 = max(start - first, 0)
    if k0 >= q.size:
        return
    a = pattern.size
    row = a * -(-_ROW // a)
    shift = (first + k0) % a
    pattern = pattern[None].repeat(row // a + 1, 0).ravel()[shift : shift + row]
    stop = q.size - (q.size - k0) % row
    q[k0:stop].reshape(-1, row)[...] += pattern
    q[stop:] += pattern[: q.size - stop]


def _sieve_range(h: np.ndarray, lo: int, hi: int) -> None:
    """Add every weighted reduced form (a, b, c) with lo <= 4ac - b^2 <= hi
    into h, which is indexed by discriminant.

    For each a and 0 <= b <= a, c = a is the head term at d = 4a^2 - b^2
    (weight 6, 4 or 12 in units of 1/12), and c > a is a tail with weight 12
    or 24 at every d = 4a^2 - b^2 + 4aj, j >= 1.  Only d = 0, 3 (mod 4) has
    forms, so the tails are summed in two quarter arrays: E[i] for d = 4i
    (even b = 2e) and O[i] for d = 4i + 3 (odd b = 2e + 1).  There a tail
    steps by a, at residue floor((4a^2 - b^2) / 4) (mod a), which is -e^2 in E
    and -(e^2 + e + 1) in O.
    From i = a^2 + a (d >= 4a^2 + 4a) on every tail is running, so each a
    adds one pattern of period a to each array.  The heads and the tail terms
    below d = 4a^2 + 4a go into h by one scatter, each b's run of j clipped to
    [lo, hi] first, through np.add.at because two of them land on the same d
    whenever b1^2 = b2^2 (mod 4a).  E and O are int32: an entry collects at
    most one pattern value per a, at most 24 (a + 1), and that sum stays below
    2^31 up to _TABLE_HARD_LIMIT.  The scatter weights stay int64, the dtype
    of h, which keeps np.add.at on its fast path.
    """
    e0 = -(-lo // 4)  # first i with lo <= 4i
    o0 = -(-(lo - 3) // 4)  # first i with lo <= 4i + 3
    E = np.zeros(max(hi // 4 + 1 - e0, 0), dtype=np.int32)
    O = np.zeros(max((hi - 3) // 4 + 1 - o0, 0), dtype=np.int32)
    for a in range(1, math.isqrt(hi // 3) + 1):
        step = 4 * a
        b = np.arange(a + 1)
        d0 = 4 * a * a - b * b
        tail = np.full(a + 1, 24)
        tail[0] = tail[a] = 12
        if lo < 4 * a * a + step:
            head = np.full(a + 1, 12)
            head[0], head[a] = 6, 4
            keep = (d0 >= lo) & (d0 <= hi)
            # tail terms below the periodic start, j = 1 .. ceil(b^2 / 4a), in [lo, hi]
            first = np.maximum(-((d0 - lo) // step), 1)
            last = np.minimum(-(-b * b // step), (hi - d0) // step)
            runs = np.maximum(last - first + 1, 0)
            run0 = d0 + step * (first - np.cumsum(runs) + runs)
            pos = np.repeat(run0, runs) + step * np.arange(runs.sum())
            np.add.at(h, np.concatenate((d0[keep], pos)),
                      np.concatenate((head[keep], np.repeat(tail, runs))))
        start = a * a + a
        if 4 * start > hi:
            continue
        # both patterns from one bincount: E's in [0, a), O's in [a, 2a)
        pattern = np.bincount(d0 // 4 % a + a * (b & 1), weights=tail, minlength=2 * a)
        pattern = pattern.astype(np.int32)
        _add_periodic(E, e0, start, pattern[:a])
        _add_periodic(O, o0, start, pattern[a:])
    h[4 * e0 : hi + 1 : 4] += E
    h[4 * o0 + 3 : hi + 1 : 4] += O


class HurwitzTable:
    """Dense table of 12*H(d) for 0 <= d <= limit, built by a periodic sieve.

    Given a smaller table as base, its entries are copied and only the
    discriminants in (base.limit, limit] are sieved.
    """

    def __init__(self, limit: int, base: HurwitzTable | None = None):
        if limit > _TABLE_HARD_LIMIT:
            raise ValueError(f"d = {limit} exceeds the class-number cap {_TABLE_HARD_LIMIT}")
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
    if d > _TABLE_HARD_LIMIT:
        # hurwitz_direct takes about 2 s at the limit and grows like d
        raise ValueError(f"d = {d} exceeds the class-number cap {_TABLE_HARD_LIMIT}")
    return hurwitz_direct(d)


@lru_cache(maxsize=1 << 15)
def moment_H(k: int, m: int, M: int, n: int) -> Fraction:
    """k-th moment of H(4n - t^2) over t = m (mod M), including t = 0 and
    the boundary terms t^2 = 4n (where H(0) = -1/12).

    For k >= 1 the sum is one int64 dot product of t^k with the gathered
    12 H values whenever tmax^k * sum |12 H| < 2^63, which bounds every
    partial sum; past that bound, and for an empty class, it is summed in
    Python ints.  k = 0 stays on Python ints: its classes are short (about
    5 to 50 terms in the residual queries), where the numpy reduction costs
    more than it saves.
    """
    if k < 0 or M < 1 or n < 0:
        raise ValueError("moment_H requires k >= 0, M >= 1, n >= 0")
    tmax = math.isqrt(4 * n)
    t = np.arange(-tmax + (m + tmax) % M, tmax + 1, M)
    h = ensure_table(4 * n).h12[4 * n - t * t]
    if k == 0:
        num = sum(h.tolist())
    # The bound: every |t| <= tmax, so with S = sum |h| each |t^k| is at most
    # tmax^k and each |t^k h| and each partial sum of the dot at most tmax^k S.
    # Both are at most tmax^k max(S, 1), so below 2^63 nothing overflows, and
    # numpy's integer dot sums in int64 without BLAS, so it is exact.  h >= -1
    # (the one negative entry is h12[0] = -1), so np.abs(h) cannot wrap.
    elif t.size and tmax**k * max(int(np.abs(h).sum()), 1) < 2**63:
        num = int(np.dot(t**k, h))
    else:
        num = sum(x**k * y for x, y in zip(t.tolist(), h.tolist()))
    return Fraction(num, 12)


@lru_cache(maxsize=1 << 15)
def lambda_moment(k: int, m: int, M: int, n: int) -> Fraction:
    """Sum of (smaller divisor)^(k+1) over factorizations n = u*v with
    u + v = +-m (mod M); the sign branch carries (-1)^k and u = v counts half."""
    if k < 0 or M < 1 or n < 1:
        raise ValueError("lambda_moment requires k >= 0, M >= 1, n >= 1")
    if n > _LAMBDA_N_CAP:
        raise ValueError(f"n = {n} exceeds the divisor-scan cap {_LAMBDA_N_CAP}")
    twice = 0  # twice the sum, so that u = v counts 1 and every other u counts 2
    sign = -1 if k % 2 else 1
    for u in range(1, math.isqrt(n) + 1):
        if n % u:
            continue
        t = u + n // u
        term = ((t - m) % M == 0) + sign * ((t + m) % M == 0)
        if term:
            twice += (1 if u * u == n else 2) * term * u ** (k + 1)
    return Fraction(twice, 2)


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
