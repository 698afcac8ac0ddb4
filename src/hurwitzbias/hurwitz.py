"""Hurwitz class numbers, their power moments along residue classes, and the
reduction of higher moments to the zeroth one.

One route serves the class numbers: a sieve that counts reduced forms
(a, b, c) once for a window [lo, hi] of discriminants.  Only d = 0, 3
(mod 4) has forms, so every table is kept by slot: d sits at slot d >> 1,
4i at 2i and 4i + 3 at 2i + 1.  Per a, two scatters add the terms below
d = 4a^2 + 4a, and one pattern of period 2a, the even and odd slots
interleaved, adds the rest into an int32 window of slots.  The shared table
is the window from 0, int32 slots grown by sieving only what it lacks in
place; hurwitz_H sieves [d, d] past it.  hurwitz_direct, which enumerates
forms one d at a time, is only the oracle that the tests and the benchmark
check the sieve by.  moment_H steps through the traces of its class by M,
gathers slot (4n - t^2) >> 1 and sums in int64 wherever a bound proves
that exact, in Python ints otherwise.
moment_via_reduction takes every moment of k's parity from one such gather;
its divisor sums cancel, so it reads no lambda_moment.  Every moment_H is a
multiple of 1/12 and every lambda_moment a multiple of 1/2, so
cusp_coefficient and moment_via_reduction sum 12 times each term in Python
ints and build one Fraction at the end.
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
# HurwitzTable sieves a wider window in pieces of this many discriminants: at
# 4*10^7, 14.1-14.7 s against 15.1-19.9 s in one piece on a 2-core machine
_CHUNK = 1 << 23
# moment_H at k = 0: past this many terms an int64 sum beats sum(h.tolist());
# the two cost the same at 45 to 55 terms (about 1.9 us) on a 2-core machine.
# Summing every class in int64 raised the main-term-census benchmark's median
# query latency by 3.9% (10 of 10 alternated runs), so both sums stay.
_SUM_CROSSOVER = 50


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

    q holds the slots first, first + 1, ... of a window.  The pattern is
    tiled up to _ROW, so that a short period still adds in long rows: at
    a = 1 rows of two entries cost more than the adds they save.
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


def _slot_count(limit: int) -> int:
    """The number of slots, d = 0, 3 (mod 4), with 0 <= d <= limit."""
    return limit // 4 + (limit + 1) // 4 + 1


def _sieve_range(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """12 H(d) for every slot d = 0, 3 (mod 4) with lo <= d <= hi: the sum of
    the weighted reduced forms (a, b, c) with 4ac - b^2 = d, in units of 1/12.

    The window's entry s holds slot _slot_count(lo - 1) + s, slot d >> 1
    holding d.  For each a and 0 <= b <= a, c = a is the head term at
    d = 4a^2 - b^2 (weight 6, 4 or 12) and c > a is a tail with weight 12 or
    24 at every d = 4a^2 - b^2 + 4aj, j >= 1.  A tail steps by 2a slots, even
    b through the even slots and odd b through the odd ones, at residue
    (4a^2 - b^2) >> 1 (mod 2a).  From slot 2(a^2 + a) (d >= 4a^2 + 4a) on
    every tail is running, so each a adds one pattern of period 2a, the two
    parities interleaved.  The heads, then the tail terms below 4a^2 + 4a, go
    into their slots by one scatter each, each b's run of j clipped to
    [lo, hi] first, through np.add.at because two of them land on the same d
    whenever b1^2 = b2^2 (mod 4a).  The window, out if given (a zero-filled
    contiguous view), is int32: an entry collects, per a, at most one form
    per b, at most 24 (a + 1), and that sum stays below 2^31 up to
    _TABLE_HARD_LIMIT.  The int32 scatter weights keep np.add.at fast.
    """
    s0 = _slot_count(lo - 1)  # the first slot with lo <= d
    h = np.zeros(_slot_count(hi) - s0, dtype=np.int32) if out is None else out
    for a in range(1, math.isqrt(hi // 3) + 1):
        step = 4 * a
        b = np.arange(a + 1)
        d0 = 4 * a * a - b * b
        tail = np.full(a + 1, 24, dtype=np.int32)
        tail[0] = tail[a] = 12
        if lo < 4 * a * a + step:
            head = np.full(a + 1, 12, dtype=np.int32)
            head[0], head[a] = 6, 4
            keep = (d0 >= lo) & (d0 <= hi)
            np.add.at(h, (d0[keep] >> 1) - s0, head[keep])
            # tail terms below the periodic start, j = 1 .. ceil(b^2 / 4a), in [lo, hi]
            first = np.maximum(-((d0 - lo) // step), 1)
            last = np.minimum(-(-b * b // step), (hi - d0) // step)
            runs = np.maximum(last - first + 1, 0)
            slot = np.repeat((d0 >> 1) - s0 + 2 * a * (first - np.cumsum(runs) + runs), runs)
            slot += np.arange(0, 2 * a * slot.size, 2 * a)
            np.add.at(h, slot, np.repeat(tail, runs))
        start = 2 * (a * a + a)
        if 2 * start > hi:
            continue
        pattern = np.bincount((d0 >> 1) % (2 * a), weights=tail, minlength=2 * a)
        _add_periodic(h, s0, start, pattern.astype(np.int32))
    return h


class HurwitzTable:
    """12*H(d) for every d = 0, 3 (mod 4) with 0 <= d <= limit, built by a
    periodic sieve.  The int32 array slots holds d at slot d >> 1: 4i at
    slot 2i and 4i + 3 at slot 2i + 1.  No other d has forms, so the slots
    skip the zeros at d = 1, 2 (mod 4) and take half the length of a dense
    table; _sieve_range bounds every entry below 2^31.

    Given a smaller table as base, its slots are copied and only (base.limit,
    limit] is sieved, in place in pieces of at most _CHUNK discriminants, so a
    growth holds only the base and the new table.
    """

    def __init__(self, limit: int, base: HurwitzTable | None = None):
        if limit > _TABLE_HARD_LIMIT:
            raise ValueError(f"d = {limit} exceeds the class-number cap {_TABLE_HARD_LIMIT}")
        self.limit = limit
        lo = 1 if base is None else min(base.limit, limit) + 1
        s0 = _slot_count(lo - 1)
        self.slots = slots = np.zeros(_slot_count(limit), dtype=np.int32)
        slots[:s0] = -1 if base is None else base.slots[:s0]  # 12 H(0) = -1
        for a in range(lo, limit + 1, _CHUNK):
            b = min(a + _CHUNK - 1, limit)
            _sieve_range(a, b, slots[_slot_count(a - 1) : _slot_count(b)])

    def value(self, d: int) -> Fraction:
        if d > self.limit:
            raise ValueError(f"d = {d} is past the table limit {self.limit}")
        if d < 0 or d % 4 in (1, 2):
            return Fraction(0)
        return Fraction(int(self.slots[d >> 1]), 12)

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """12*H(d) for 0 <= lo <= hi <= limit as one int64 array, the zeros at
        d = 1, 2 (mod 4) included."""
        if not 0 <= lo <= hi <= self.limit:
            raise ValueError(f"[{lo}, {hi}] is not a range of d in [0, {self.limit}]")
        out = np.zeros(hi - lo + 1, dtype=np.int64)
        for r in (0, 3):
            first = lo + (r - lo) % 4  # the first d >= lo with d = r (mod 4)
            col = out[first - lo :: 4]
            col[:] = self.slots[first >> 1 :][: 2 * col.size : 2]
        return out


_table = HurwitzTable(0)


def ensure_table(limit: int) -> HurwitzTable:
    """Grow the shared class-number table to cover discriminants up to limit,
    sieving only the discriminants the current table lacks."""
    global _table
    if _table.limit < limit:
        _table = HurwitzTable(max(limit, min(2 * _table.limit, _TABLE_HARD_LIMIT)), _table)
    return _table


def hurwitz_H(d: int) -> Fraction:
    """Hurwitz class number H(d): from the shared table, grown when needed,
    up to 2*10^5 or its limit, and past that from the sieve's window [d, d]."""
    if d < 0 or d % 4 in (1, 2):
        return Fraction(0)
    if d <= max(_table.limit, 200_000):
        return ensure_table(d).value(d)
    if d > _TABLE_HARD_LIMIT:
        raise ValueError(f"d = {d} exceeds the class-number cap {_TABLE_HARD_LIMIT}")
    return Fraction(int(_sieve_range(d, d)[0]), 12)


def _moment12(ks: range | tuple[int, ...], m: int, M: int, n: int) -> list[int]:
    """12 times the k-th moment of H(4n - t^2) over t = m (mod M), for each k
    in ks, from one gather of the class; moment_H documents the sums."""
    tmax = math.isqrt(4 * n)
    t = np.arange(-tmax + (m + tmax) % M, tmax + 1, M)
    h = ensure_table(4 * n).slots[(4 * n - t * t) >> 1]
    kmax = max(ks)
    if not kmax:  # ks is (0,)
        return [int(h.sum(dtype=np.int64)) if h.size > _SUM_CROSSOVER else sum(h.tolist())]
    h = h.astype(np.int64)  # numpy's int64 sum and dots beat its int32-casting ones
    total = int(h.sum())
    # The bound: every |t| <= tmax, and the one negative entry of the table,
    # 12 H(0) = -1, sits only at t = +-2 sqrt(n), so S = sum |h| <= sum h + 4
    # and sum h + 4 >= 2.  Each |t^k|, |t^k h| and partial sum of the dot is
    # then at most tmax^k (sum h + 4), which does not fall as k grows: below
    # 2^63 at kmax nothing overflows, and numpy's integer dot sums without
    # BLAS, so it is exact.
    wide = t.size and tmax**kmax * (total + 4) < 2**63
    out = []
    for k in ks:
        if k == 0:
            out.append(total)
        elif wide:
            out.append(int(np.dot(t**k, h)))
        else:
            out.append(sum(x**k * y for x, y in zip(t.tolist(), h.tolist())))
    return out


@lru_cache(maxsize=1 << 15)
def moment_H(k: int, m: int, M: int, n: int) -> Fraction:
    """k-th moment of H(4n - t^2) over t = m (mod M), including t = 0 and
    the boundary terms t^2 = 4n (where H(0) = -1/12).

    For k >= 1 the sum is one int64 dot product of t^k with the gathered
    12 H values whenever tmax^k * (sum 12 H + 4) < 2^63, else Python ints.
    k = 0 sums in Python ints up to _SUM_CROSSOVER terms and in int64 past
    them, safely: a class has at most 14,143 terms, each below 2^31.
    """
    if k < 0 or M < 1 or n < 0:
        raise ValueError("moment_H requires k >= 0, M >= 1, n >= 0")
    (num,) = _moment12((k,), m, M, n)
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


def _twelve(x: Fraction) -> int:
    """12x for an x whose denominator divides 12, as moment_H's and
    lambda_moment's do."""
    return x.numerator * (12 // x.denominator)


def _cusp_sum(j: int, n: int, s: list[int]) -> int:
    """12 M_j + sum over 1 <= nu <= j/2 of (-1)^nu binom(j - nu, nu) n^nu
    12 M_{j - 2nu}, where s[i] = 12 M_{j mod 2 + 2i}: 12 times the cusp
    coefficient of order j less its divisor sum 12 lambda(j)."""
    total = s[j // 2]
    for nu in range(1, j // 2 + 1):
        total += (-1) ** nu * math.comb(j - nu, nu) * n**nu * s[j // 2 - nu]
    return total


def cusp_coefficient(k: int, m: int, M: int, n: int) -> Fraction:
    """n-th coefficient of the weight k+3/2 cusp component, k >= 1; computed
    from moments and divisor sums rather than from modular forms, exactly:
    the sum of 12 times each term is an integer, divided by 12 once."""
    if k < 1:
        raise ValueError("cusp coefficients require k >= 1")
    s = [_twelve(moment_H(j, m, M, n)) for j in range(k % 2, k + 1, 2)]
    return Fraction(_cusp_sum(k, n, s) + _twelve(lambda_moment(k, m, M, n)), 12)


def moment_via_reduction(k: int, m: int, M: int, n: int) -> Fraction:
    """k-th moment rebuilt from the zeroth moment, cusp coefficients and
    divisor sums; must agree with moment_H for every k >= 0.  At k = 0 the
    rebuild degenerates to the zeroth moment itself.

    Each cusp coefficient of order j = k - 2mu is its moment combination plus
    the divisor sum lambda(j), and the rebuild subtracts lambda(j) again, so
    no divisor sum is read: the rebuild is an identity in the moments of k's
    parity, all of them summed from one gather of the class.  Like
    cusp_coefficient it sums 12 times each term in Python ints and divides by
    12 once."""
    if k < 0 or M < 1 or n < 0:
        raise ValueError("moment_via_reduction requires k >= 0, M >= 1, n >= 0")
    s = _moment12(range(k % 2, k + 1, 2), m, M, n)  # s[i] = 12 M_{k mod 2 + 2i}
    ck = catalan_ext(k)
    total = ck * n ** (k // 2) * s[0] if ck else 0
    for mu in range((k - 1) // 2 + 1):
        total += reduction_coefficient(k, mu) * _cusp_sum(k - 2 * mu, n, s) * n**mu
    return Fraction(total, 12)
