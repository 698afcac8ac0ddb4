"""Brute-force elliptic curve counts over small finite fields.

Curves are enumerated in short Weierstrass form y^2 = x^3 + ax + b with
4a^3 + 27b^2 != 0, which for characteristic >= 5 hits every isomorphism
class exactly (q - 1)/|Aut| times.  Automorphism-weighted trace counts
therefore come out of plain pair counting, exactly, with denominator q - 1.
The traces for a given a over all b depend only on the class of a in
F_q^*/(F_q^*)^4, so one kernel, for F_p and F_{p^2} alike, counts points
for a = 0 and one a per class (at most five rows) and weights each class
row by its size; every b is still counted, without class numbers.  For one
a the trace at every b is minus the circular correlation, over the additive
group of F_q, of the value counts of x^3 + ax with the quadratic character
chi of F_q, taken by FFT; chi is read through the norm to F_p.

S_via_moments rebuilds the same trace moments from class numbers alone,
through the bridge of Deuring and Schoof (Nonsingular plane cubic curves
over finite fields, 1987): the weighted number of curves over F_p with
trace t is H(4p - t^2)/2.  Over F_{p^2} the traces t = ps need one
correction: p^(k+1) times the moment of H(4 - s^2) over s = m/p (mod M) is
taken off the moment of H(4p^2 - t^2).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .arith import factorize, is_prime
from .hurwitz import moment_H

# The kernel holds O(q) arrays; near the cap a table took about 40 ms at
# p = 19997 and 15 ms at q = 19321 = 139^2 (best of 3, 2 cores, numpy 2.4).
_Q_CAP = 20_000


@dataclass(frozen=True)
class TraceMassTable:
    """Automorphism-weighted curve counts by trace over one finite field,
    kept as (t, number of pairs (a, b) with trace t); the mass of t is that
    count over q - 1."""

    p: int
    r: int
    counts: tuple[tuple[int, int], ...]

    @cached_property
    def masses(self) -> tuple[tuple[int, Fraction], ...]:
        den = self.p**self.r - 1
        return tuple((t, Fraction(c, den)) for t, c in self.counts)

    def total_mass(self) -> Fraction:
        return self.moment(0, 0, 1)

    def moment(self, k: int, m: int, M: int) -> Fraction:
        """The sum of t^k times the mass over the traces t = m (mod M), summed
        over the integer curve counts and divided by q - 1 once."""
        if k < 0:
            raise ValueError("k must be >= 0")
        total = sum(t**k * c for t, c in self.counts if (t - m) % M == 0)
        return Fraction(total, self.p**self.r - 1)


def _legendre_table(p: int) -> np.ndarray:
    """The Legendre symbols (x/p) for x < p, as floats, for an odd prime p:
    1 on the nonzero squares, 0 at 0 and -1 elsewhere."""
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1.0)
    chi[xs * xs % p] = 1.0
    chi[0] = 0.0
    return chi


def _twist_classes(q: int, power) -> list[tuple[int, int]]:
    """Rows (a, weight) that stand for every a in F_q: a = 0 with weight 1,
    then one representative per class of F_q^*/(F_q^*)^4, weighted by the
    class size (q - 1)/g with g = gcd(4, q - 1).

    (x, y) -> (u^2 x, u^3 y) takes y^2 = x^3 + ax + b to
    y^2 = x^3 + u^4 a x + u^6 b with the same trace and the discriminant
    scaled by u^12, and b -> u^6 b permutes F_q; so the traces over all b
    are the same multiset for every a in one class.  power(a, e) is a^e in
    F_q, and a^((q - 1)/g) names the class of a.
    """
    g = math.gcd(4, q - 1)
    rows, seen = [(0, 1)], set()
    for a in range(1, q):
        key = power(a, (q - 1) // g)
        if key not in seen:
            seen.add(key)
            rows.append((a, (q - 1) // g))
            if len(seen) == g:
                break
    return rows


def _field_tally(p: int, r: int) -> dict[int, int]:
    """The number of pairs (a, b) with 4a^3 + 27b^2 != 0 over F_q, q = p^r
    (r = 1 or 2), by the trace of y^2 = x^3 + ax + b."""
    # F_{p^2} = F_p[w] with w^2 = c for the smallest non-residue c; element
    # u + v*w is stored at index u + p*v, and v = 0 throughout when r = 1.
    q = p**r
    chi_p = _legendre_table(p)
    c = int(np.argmax(chi_p < 0))  # the smallest non-residue
    idx = np.arange(q, dtype=np.int64)
    u, v = idx % p, idx // p

    def mul(u1, v1, u2, v2):
        return (u1 * u2 + c * v1 * v2) % p, (u1 * v2 + v1 * u2) % p

    def power(a, e):
        ru, rv, bu, bv = 1, 0, a % p, a // p
        while e:
            if e & 1:
                ru, rv = mul(ru, rv, bu, bv)
            bu, bv = mul(bu, bv, bu, bv)
            e >>= 1
        return ru + p * rv

    shape = (p,) * r
    su, sv = mul(u, v, u, v)
    cu, cv = mul(su, sv, u, v)
    # chi(z) = chi_p(Norm z) since z^((q-1)/2) = Norm(z)^((p-1)/2); the norm
    # from F_p to itself is the identity.
    norm = u if r == 1 else (u * u - c * v * v) % p
    chi_hat = np.fft.fftn(chi_p[norm].reshape(shape))
    disc_u, disc_v = (27 * su) % p, (27 * sv) % p

    bound = math.isqrt(4 * q)
    tally = np.zeros(2 * bound + 1, dtype=np.int64)
    for a, weight in _twist_classes(q, power):
        au, av = a % p, a // p
        axu, axv = mul(au, av, u, v)
        vals = (cu + axu) % p + p * ((cv + axv) % p)
        counts = np.bincount(vals, minlength=q).reshape(shape).astype(np.float64)
        # trace(a, b) = -sum_y counts[y] chi(y + b): a circular correlation
        # over the additive group (Z/p)^r, done per a by FFT; the results are
        # exact integers up to rounding noise.
        corr = np.fft.ifftn(np.conj(np.fft.fftn(counts)) * chi_hat).real
        traces = -np.rint(corr).astype(np.int64).reshape(-1)
        dau, dav = mul(4 % p, 0, cu[a : a + 1], cv[a : a + 1])
        good = ((dau[0] + disc_u) % p + p * ((dav[0] + disc_v) % p)) != 0
        np.add.at(tally, traces[good] + bound, weight)
    return {t - bound: int(cnt) for t, cnt in enumerate(tally) if cnt}


@lru_cache(maxsize=1 << 6)
def trace_mass_table(q: int) -> TraceMassTable:
    """Enumerate all curves over F_q (q = p or p^2, p >= 5) grouped by trace."""
    if q > _Q_CAP:
        raise ValueError(f"field size {q} exceeds the enumeration cap {_Q_CAP}")
    pairs = factorize(q)
    if len(pairs) != 1 or pairs[0][1] > 2:
        raise ValueError("q must be p or p^2 for a prime p")
    p, r = pairs[0]
    if p < 5:
        raise ValueError("characteristic must be at least 5")
    return TraceMassTable(p=p, r=r, counts=tuple(sorted(_field_tally(p, r).items())))


def S_direct(k: int, m: int, M: int, q: int) -> Fraction:
    """Trace moment over F_q from the enumeration table.

    Pure tallying, so any modulus is fine here; only the moment-side bridge
    needs gcd(p, M) = 1.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    return trace_mass_table(q).moment(k, m, M)


def S_via_moments(k: int, m: int, M: int, p: int, r: int) -> Fraction:
    """Trace moment computed from class-number moments alone."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    if math.gcd(p, M) != 1:
        raise ValueError("p must not divide M")
    if r < 1:
        raise ValueError("r must be >= 1")
    total = moment_H(k, m, M, p**r)
    if r >= 2:
        pbar = pow(p, -1, M)
        total -= p ** (k + 1) * moment_H(k, (m * pbar) % M, M, p ** (r - 2))
    return total / 2
