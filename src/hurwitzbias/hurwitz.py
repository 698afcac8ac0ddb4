"""Hurwitz class numbers, their power moments along residue classes, and the
reduction of higher moments to the zeroth one.

One route serves the class numbers: a sieve that counts reduced forms
(a, b, c) once for a window [lo, hi] of discriminants.  Only d = 0, 3
(mod 4) has forms, so every table is kept by slot: d sits at slot d >> 1,
4i at 2i and 4i + 3 at 2i + 1.  Per a, scatters add the terms below
d = 4a^2 + 4a, and one pattern of period 2a, the even and odd slots
interleaved, adds the rest into an int32 window of slots.  The a whose
patterns start at or before the window's first slot, a <= root, fold:
each joins the pattern of a common period 2L, L = a (root // a), so they
take one pass per L in (root / 2, root] rather than one per a.  Only
these fold, since a pattern that starts inside the window is zero before
its start; and each L's pattern is built just before its pass, so the
patterns held at once stay O(root) long.  The shared table is the window
from 0, int32 slots grown by sieving only what it lacks in place;
hurwitz_H sieves [d, d] past it.  hurwitz_direct, which enumerates forms
one d at a time, is only the oracle that the tests and the benchmark
check the sieve by.  moment_H steps through the traces of its class by M,
gathers slot (4n - t^2) >> 1 and sums in int64 wherever a bound proves
that exact, in Python ints otherwise.
For a block of consecutive n, moment12_column gives 12 moment_H(0) from one
strided slice of the slots per t, and lambda2_column gives 2 lambda_moment(0)
from one strided slice of its column per divisor u and sign; residual_rows
reads these, and moment_H and lambda_moment stay the single-n routes the
tests check them against.
cusp_coefficient and moment_via_reduction take every moment of k's parity
from one such gather and sum 12 times each term of the moment combination in
Python ints, dividing by 12 once.  cusp_coefficient then adds lambda_moment;
in moment_via_reduction the divisor sums cancel, so it reads no
lambda_moment.
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
# _sieve_range sets up about this many (a, b) pairs at once.  Of 2^10 .. 2^16,
# 2^14 kept the 4*10^6 -> 8*10^6 growth's peak above its new slots at 3.1 MiB
# (2^10: 2.7, 2^15: 3.7, 2^16: 5.0), with the 62,500 -> 10^6 doubling chain
# at 35 ms (2^10: 55, 2^12: 37, 2^15: 34) and the window [d, d] at
# d = 40000003 at 38 ms (2^10: 89, 2^12: 72, 2^15: 31), on a 2-core machine
_BLOCK = 1 << 14
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


def _add_periodic(q: np.ndarray, k0: int, pattern: np.ndarray) -> None:
    """q[k] += pattern[k % len(pattern)] for every k >= k0.

    The pattern is tiled up to _ROW, so that a short period still adds in
    long rows: at a = 1 rows of two entries cost more than the adds they
    save.  A window shorter than a row tiles only what it reads.
    """
    n = q.size - k0
    if n <= 0:
        return
    a = pattern.size
    row = a * -(-_ROW // a)
    shift = k0 % a
    pattern = pattern[None].repeat(-(-(shift + min(row, n)) // a), 0).ravel()[shift : shift + row]
    stop = q.size - n % row
    if stop > k0:
        q[k0:stop].reshape(-1, row)[...] += pattern
    q[stop:] += pattern[: q.size - stop]


def _slot_count(limit: int) -> int:
    """The number of slots, d = 0, 3 (mod 4), with 0 <= d <= limit."""
    return limit // 4 + (limit + 1) // 4 + 1


def _chunks(cost: np.ndarray, key: np.ndarray):
    """Yield the runs [i, j) that cut a sequence into pieces of about _BLOCK
    in total cost, each at least one item long and never splitting a run of
    equal keys (key is nondecreasing)."""
    ends = np.cumsum(cost)
    i = 0
    while i < cost.size:
        j = max(int(np.searchsorted(ends, ends[i] - cost[i] + _BLOCK, "right")), i + 1)
        j = int(np.searchsorted(key, key[j - 1], "right"))
        yield i, j
        i = j


def _add_patterns(h: np.ndarray, a: np.ndarray, period: np.ndarray, s0: int) -> None:
    """Add into the window h, which starts at slot s0, the periodic parts of
    the a: each a's pattern, tiled to period 2L for its L in period (a
    multiple of a, nondecreasing), is summed into L's, and each L's pattern
    takes one pass from its start 2(L^2 + L) or from s0 if that is later.

    A pattern is read from slot s0 on, entry k for slot s0 + k, and is cut
    to the window's width when that is shorter than 2L.  The patterns are
    built by one np.bincount."""
    width = h.size
    new = np.r_[True, period[1:] != period[:-1]]
    L = period[new]
    size = np.minimum(2 * L, width)
    seg = np.cumsum(size) - size
    g = np.cumsum(new) - 1  # each a's segment
    n = a + 1
    first = np.cumsum(n) - n
    twice = np.repeat((2 * a).astype(np.int32), n)
    # k starts as b: the tail (a, b) runs through the slots
    # (4a^2 - b^2) >> 1 (mod 2a), which are s0 + k for
    # k = -(ceil(b^2 / 2) + s0) (mod 2a)
    k = np.arange(twice.size, dtype=np.int32) - np.repeat(first.astype(np.int32), n)
    k *= k
    np.subtract(-2 * s0, k, out=k)
    k >>= 1
    k %= twice
    w = np.full(k.size, 24.0)
    w[first] = w[first + a] = 12.0  # b = 0 and b = a
    off = np.repeat(seg[g], n)
    reps = -(-size[g] // (2 * a))  # each a's copies of its period in its segment
    if reps.max() > 1:
        reps = np.repeat(reps, n)
        start = np.cumsum(reps) - reps
        copy = np.arange(reps.sum()) - np.repeat(start, reps)
        k = np.repeat(k, reps) + np.repeat(twice, reps) * copy
        w, off = np.repeat(w, reps), np.repeat(off, reps)
    if width < 2 * L[-1]:  # a segment cut to the window: drop what falls past it
        keep = np.flatnonzero(k < width)
        k, w, off = k[keep], w[keep], off[keep]
    pat = np.bincount(k + off, weights=w, minlength=int(seg[-1] + size[-1])).astype(np.int32)
    for p, o, m in zip(L.tolist(), seg.tolist(), size.tolist()):
        _add_periodic(h, max(2 * (p * p + p) - s0, 0), pat[o : o + m])


def _heads_and_tails(
    h: np.ndarray, a: np.ndarray, b0: np.ndarray, lo: int, hi: int, s0: int
) -> None:
    """Add into the window h of [lo, hi], which starts at slot s0, the heads
    and the tail terms below the periodic start of the pairs (a, b),
    b0 <= b <= a, of the a: the heads by one scatter, the tails by one per a."""
    n = a + 1 - b0
    first_pair = np.cumsum(n) - n
    A = np.repeat(a.astype(np.int32), n)
    B = np.arange(A.size, dtype=np.int32) + np.repeat((b0 - first_pair).astype(np.int32), n)
    d0 = 4 * A * A - B * B
    ends = (B == 0) | (B == A)
    keep = np.flatnonzero((d0 >= lo) & (d0 <= hi))
    if keep.size:
        head = np.where(B[keep] == 0, 6, np.where(ends[keep], 4, 12)).astype(np.int32)
        np.add.at(h, (d0[keep] >> 1) - s0, head)
    tail = np.where(ends, 12, 24).astype(np.int32)
    # the tail terms j = 1 .. ceil(b^2 / 4a) in [lo, hi], numbered e across
    # the pairs: e lands at slot s0 + base + 2ae
    step = 4 * A
    first = np.maximum(-((d0 - lo) // step), 1)
    runs = np.maximum(np.minimum(-(-B * B // step), (hi - d0) // step) - first + 1, 0)
    stop = np.cumsum(runs)
    base = (d0 >> 1) - s0 + 2 * A * (first - stop + runs)
    del A, B, d0, ends, keep, step, first  # the set-up's memory, before the scatters
    for x, u, m in zip(a.tolist(), first_pair.tolist(), n.tolist()):
        e0, e1 = int(stop[u] - runs[u]), int(stop[u + m - 1])
        if e1 > e0:
            slot = np.repeat(base[u : u + m], runs[u : u + m])
            slot += np.arange(2 * x * e0, 2 * x * e1, 2 * x)
            np.add.at(h, slot, np.repeat(tail[u : u + m], runs[u : u + m]))


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
    parities interleaved.  The heads and the tail terms below 4a^2 + 4a go
    into their slots by scatters, each b's run of j clipped to [lo, hi]
    first, through np.add.at because two of them land on the same d
    whenever b1^2 = b2^2 (mod 4a).

    The a <= root, those with 2(a^2 + a) <= s0, the window's first slot,
    have no head and no short tail in the window, and their patterns cover
    all of it.  Such a pattern equals its own tiling to period 2L for any
    multiple L of a, so each of a = 1 .. root is added into the pattern of
    L = a (root // a), one of the L in (root / 2, root], and each L takes
    one pass: about root / 2 passes over the window in place of root.  Only
    covering patterns fold: one that starts inside the window is zero
    before its start, which no tiling of a shorter period reproduces, so
    each a > root keeps its own pass from its own start.

    The a are set up in chunks of about _BLOCK (a, b) pairs, a chunk's
    heads by one np.add.at and its patterns by one np.bincount, while the
    tails stay one scatter per a (_heads_and_tails).  The fold's chunks run
    through the L in order, each L whole and the chunk's cost counting every
    tiled copy, so an L's pattern is built from its members just before its
    pass and the patterns alive at once are one chunk's, O(root) long,
    never every L's at once (O(root^2)).  Patterns are read from slot s0 on
    and cut to the window's width when that is shorter than 2L, and heads
    and tails take only the b with 4a^2 - b^2 <= hi, so a narrow window such
    as [d, d] sets up only what it reads.

    The window, out if given (a zero-filled contiguous view), is int32: an
    entry collects, per a, at most one form per b, at most 24 (a + 1), and
    that sum stays below 2^31 up to _TABLE_HARD_LIMIT.  The int32 scatter
    weights keep np.add.at fast.
    """
    s0 = _slot_count(lo - 1)  # the first slot with lo <= d
    h = np.zeros(_slot_count(hi) - s0, dtype=np.int32) if out is None else out
    if not h.size:
        return h
    amax = math.isqrt(hi // 3)
    root = min((math.isqrt(4 * (s0 // 2) + 1) - 1) // 2, amax)  # 2(a^2 + a) <= s0
    top = (math.isqrt(hi + 1) - 1) // 2  # 4a^2 + 4a <= hi: a pattern reaches the window
    # the fold: one pass per L
    a = np.arange(1, root + 1)
    period = a * (root // a)
    order = np.argsort(period, kind="stable")
    a, period = a[order], period[order]
    # a chunk's cost: its pairs (a, b), each copied once per period of a in
    # its segment
    cost = (a + 1) * -(-np.minimum(2 * period, h.size) // (2 * a))
    for i, j in _chunks(cost, period):
        _add_patterns(h, a[i:j], period[i:j], s0)
    # the a > root: heads, tails below the periodic start, and a pass from it
    a = np.arange(root + 1, amax + 1)
    # heads and tails need only the b with 4a^2 - b^2 <= hi, and b0 is at
    # most the least of them
    b0 = np.sqrt(np.maximum(4 * a * a - hi, 0)).astype(a.dtype)
    for i, j in _chunks(a + 1, a):
        _heads_and_tails(h, a[i:j], b0[i:j], lo, hi, s0)
        k = int(np.count_nonzero(a[i:j] <= top))
        if k:
            _add_patterns(h, a[i : i + k], a[i : i + k], s0)
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
    slots = ensure_table(4 * n).slots  # past the cap it raises before t is built
    tmax = math.isqrt(4 * n)
    t = np.arange(-tmax + (m + tmax) % M, tmax + 1, M)
    h = slots[(4 * n - t * t) >> 1]
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


def moment12_column(m: int, M: int, n0: int, n1: int) -> np.ndarray:
    """12 moment_H(0, m, M, n) for every n0 <= n <= n1, as one int64 array.

    4n - t^2 sits at slot 2n - ceil(t^2 / 2), so each t of the class adds
    the slots from step 2 to every n with t^2 <= 4n: one strided slice per t.
    The slot of 4n = t^2 is 12 H(0) = -1, as moment_H reads it.
    """
    slots = ensure_table(4 * n1).slots
    out = np.zeros(n1 - n0 + 1, dtype=np.int64)
    tmax = math.isqrt(4 * n1)
    for t in range(-tmax + (m + tmax) % M, tmax + 1, M):
        lo = max(n0, (t * t + 3) // 4)  # the first n with t^2 <= 4n
        c = (t * t + 1) // 2
        out[lo - n0 :] += slots[2 * lo - c : 2 * n1 - c + 1 : 2]
    return out


def lambda2_column(m: int, M: int, n0: int, n1: int) -> np.ndarray:
    """2 lambda_moment(0, m, M, n) for every 1 <= n0 <= n <= n1, as one
    int64 array.

    A pair u <= v adds u at n = uv for each sign with u + v = +-m (mod M),
    twice unless u = v.  For one u those v form a residue class mod M, so
    their n step by uM through the column: one strided slice per u and sign.
    When m = -m (mod M) both signs pick the same v, and one slice adds both.
    """
    out = np.zeros(n1 - n0 + 1, dtype=np.int64)
    signs = (m,) if 2 * m % M == 0 else (m, -m)
    weight = 4 // len(signs)  # 2 u per sign, u = v once
    for u in range(1, math.isqrt(n1) + 1):
        first, last = max(u, -(-n0 // u)), n1 // u  # the v with n0 <= uv <= n1
        for s in signs:
            v = first + (s - u - first) % M  # the least v >= first with u + v = s
            if v <= last:
                out[u * v - n0 : u * last - n0 + 1 : u * M] += weight * u
                if v == u:
                    out[u * u - n0] -= weight // 2 * u
    return out


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
    the moment combination, summed 12 times over from one gather of the
    class, plus the divisor sum lambda(k)."""
    if k < 1 or M < 1 or n < 1:
        raise ValueError("cusp_coefficient requires k >= 1, M >= 1, n >= 1")
    s = _moment12(range(k % 2, k + 1, 2), m, M, n)  # s[i] = 12 M_{k mod 2 + 2i}
    return Fraction(_cusp_sum(k, n, s), 12) + lambda_moment(k, m, M, n)


def moment_via_reduction(k: int, m: int, M: int, n: int) -> Fraction:
    """k-th moment rebuilt from the zeroth moment, cusp coefficients and
    divisor sums; must agree with moment_H for every k >= 0.  At k = 0 the
    rebuild degenerates to the zeroth moment itself.

    Each cusp coefficient of order j = k - 2mu is its moment combination plus
    the divisor sum lambda(j), and the rebuild subtracts lambda(j) again, so
    no divisor sum is read: the rebuild is an identity in the moments of k's
    parity, all of them summed from one gather of the class.  It sums 12
    times each term in Python ints and divides by 12 once."""
    if k < 0 or M < 1 or n < 0:
        raise ValueError("moment_via_reduction requires k >= 0, M >= 1, n >= 0")
    s = _moment12(range(k % 2, k + 1, 2), m, M, n)  # s[i] = 12 M_{k mod 2 + 2i}
    ck = catalan_ext(k)
    total = ck * n ** (k // 2) * s[0] if ck else 0
    for mu in range((k - 1) // 2 + 1):
        total += reduction_coefficient(k, mu) * _cusp_sum(k - 2 * mu, n, s) * n**mu
    return Fraction(total, 12)
