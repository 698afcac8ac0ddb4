"""Dirichlet characters with exact root-of-unity values, plus Gauss sums.

Characters are stored by their exponents on fixed generators of the local
unit groups (Z/p^e)^*, so evaluation, products and conductors are all exact
integer arithmetic. Every character is built from such exponents, the star
character too (star_char shifts the non-quadratic part's local exponents),
so none is ever rebuilt from its values. A character value is its
exponent: chi(x) = e(expo) with expo an exact Fraction, and root(expo) is
the one conversion to a complex number. A character's one cached table is
char_values: chi(x) for every x, each unit's entry the root_values(L)[k]
object for chi(x) = e(k/L), with L the lcm of the local generator orders,
and 0j off the units. k sums the discrete-log digits of x mod each p^e
times the local exponents, scaled to L. char_eval computes k for one x,
without a table, and returns the exponent Fraction(k, L), or None off the
units. The hot sums, here and in eisenstein and bias, index char_values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from operator import mul

from .arith import factorize, kronecker, ord_p

TWO_PI = 2.0 * math.pi

# The sums over every character of every divisor of M cost about M^2: past
# this cap one main term or character-route bias would run for minutes.
_CHAR_CAP = 5000


def root(expo: Fraction | None) -> complex:
    """e(expo) = e^(2 pi i * expo) for an exact exponent; None (a character
    off the units) gives 0."""
    if expo is None:
        return 0j
    expo %= 1
    num, den = expo.numerator, expo.denominator
    if den == 1:
        return 1 + 0j
    if den == 2:
        return -1 + 0j
    if den == 4:
        return 1j if num % 4 == 1 else -1j
    return cmath.exp(TWO_PI * 1j * num / den)


def eps(d: int) -> Fraction:
    """The exponent of eps_d: 0 (eps_d = 1) for d = 1 mod 4 and 1/4 (eps_d = i)
    for d = 3 mod 4; rejects even d."""
    if d % 2 == 0:
        raise ValueError("eps is defined for odd d only")
    return Fraction(d % 4 // 2, 4)


@lru_cache(maxsize=1 << 10)
def root_values(L: int) -> tuple[complex, ...]:
    """The complex values e(k/L) for k < L, each as root gives it."""
    return tuple(root(Fraction(k, L)) for k in range(L))


@dataclass(frozen=True)
class LocalUnitGroup:
    """The generator orders and a discrete-log table for (Z/p^e)^*."""

    orders: tuple[int, ...]
    dlog: dict


@lru_cache(maxsize=1 << 10)
def local_unit_group(p: int, e: int) -> LocalUnitGroup:
    """(Z/p^e)^* on fixed generators: none at 2, -1 at 4, -1 and 5 at 2^e
    with e >= 3, and the least primitive root mod p^e at odd p."""
    q = p**e
    if p == 2:
        if e == 1:
            return LocalUnitGroup((), {1: ()})
        if e == 2:
            return LocalUnitGroup((2,), {1: (0,), 3: (1,)})
        half = 2 ** (e - 2)
        table = {}
        x = 1
        for a in range(2):
            y = x
            for b in range(half):
                table[y] = (a, b)
                y = y * 5 % q
            x = q - 1
        return LocalUnitGroup((2, half), table)
    phi = q // p * (p - 1)
    g = 2
    while True:
        if math.gcd(g, p) == 1:
            order = 1
            y = g % q
            while y != 1:
                y = y * g % q
                order += 1
            if order == phi:
                break
        g += 1
    table = {}
    y = 1
    for i in range(phi):
        table[y] = (i,)
        y = y * g % q
    return LocalUnitGroup((phi,), table)


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod `modulus`, as exponent tuples on local generators.

    locals is a tuple of (p, e, exps) sorted by p, covering the full prime
    factorization of the modulus; exps[i] gives chi(g_i) = e(exps[i]/ord_i).
    """

    modulus: int
    locals: tuple[tuple[int, int, tuple[int, ...]], ...]


def _mk_char(parts: list[tuple[int, int, tuple[int, ...]]]) -> DirichletCharacter:
    parts = sorted(parts)
    modulus = 1
    for p, e, _ in parts:
        modulus *= p**e
    return DirichletCharacter(modulus, tuple(parts))


def _digit_sums(chi: DirichletCharacter,
                xs: range | tuple[int]) -> tuple[int, list[int | None]]:
    """L, the lcm of the local generator orders, and for each x in xs the k
    mod L with chi(x) = e(k/L), or None off the units. k sums a * (L / o) * d
    over the discrete-log digits d of x mod each p^e, with a chi's exponent
    on the generator of order o."""
    L = math.lcm(*(o for p, e, _ in chi.locals for o in local_unit_group(p, e).orders))
    parts = []
    for p, e, exps in chi.locals:
        group = local_unit_group(p, e)
        coef = [a * (L // o) for a, o in zip(exps, group.orders)]
        parts.append((p**e, group.dlog, coef))
    ks = []
    for x in xs:
        k = 0
        for q, dlog, coef in parts:
            digits = dlog.get(x % q)
            if digits is None:
                ks.append(None)
                break
            k += sum(map(mul, coef, digits))
        else:
            ks.append(k % L)
    return L, ks


# every primitive character of one modulus fits, so the values built for a
# whole expansion are still cached when its kernels are read
@lru_cache(maxsize=_CHAR_CAP)
def char_values(chi: DirichletCharacter) -> tuple[complex, ...]:
    """chi(x) for every x mod the modulus: the root_values entry of each unit's
    exponent, the same complex object, and 0j off the units."""
    L, ks = _digit_sums(chi, range(chi.modulus))
    roots = root_values(L)
    return tuple(0j if k is None else roots[k] for k in ks)


def char_eval(chi: DirichletCharacter, n: int) -> Fraction | None:
    """The exponent of chi(n), in [0, 1); None off the units."""
    L, (k,) = _digit_sums(chi, (n,))
    return None if k is None else Fraction(k, L)


def enumerate_chars(modulus: int) -> list[DirichletCharacter]:
    """All characters mod `modulus` in a deterministic order (principal first)."""
    if modulus > _CHAR_CAP:
        raise ValueError(
            f"modulus {modulus} exceeds the character-enumeration cap {_CHAR_CAP}")
    # each prime power's local parts (p, e, exps), the exponents in
    # lexicographic order; a character is one local part per prime power
    local_parts = [
        [(p, e, exps) for exps in iter_product(*map(range, local_unit_group(p, e).orders))]
        for p, e in factorize(modulus)]
    return [DirichletCharacter(modulus, parts) for parts in iter_product(*local_parts)]


def _local_order(exps: tuple[int, ...], orders: tuple[int, ...]) -> int:
    """Order of a local component, given its exponents and generator orders."""
    order = 1
    for a, o in zip(exps, orders):
        order = math.lcm(order, o // math.gcd(a, o))
    return order


def _local_conductor(p: int, e: int, exps: tuple[int, ...]) -> int:
    orders = local_unit_group(p, e).orders
    order = _local_order(exps, orders)
    if order == 1:
        return 1
    if p == 2:
        # -1 alone has conductor 4; 5 of order t >= 2 has conductor 4t
        return 4 if e == 2 or exps[1] % orders[1] == 0 else 4 * order
    return p ** (1 + ord_p(order, p))


def conductor(chi: DirichletCharacter) -> int:
    out = 1
    for p, e, exps in chi.locals:
        out *= _local_conductor(p, e, exps)
    return out


def is_primitive(chi: DirichletCharacter) -> bool:
    return conductor(chi) == chi.modulus


@lru_cache(maxsize=1 << 12)
def primitive_chars(modulus: int) -> tuple[DirichletCharacter, ...]:
    return tuple(chi for chi in enumerate_chars(modulus) if is_primitive(chi))


@lru_cache(maxsize=1 << 12)
def quad_decomp(eta: DirichletCharacter) -> tuple[DirichletCharacter, DirichletCharacter]:
    """Split a primitive character into quadratic and non-quadratic local parts.

    Returns (quad, rest): quad collects the local components of order exactly
    two, rest the others; conductors are coprime and multiply back to the
    original conductor. rest squared keeps its conductor except when the
    2-part of the conductor is at least 16, where no such splitting exists.
    """
    if not is_primitive(eta):
        raise ValueError("quad_decomp expects a primitive character")
    hat_parts, tilde_parts = [], []
    for p, e, exps in eta.locals:
        order = _local_order(exps, local_unit_group(p, e).orders)
        (hat_parts if order == 2 else tilde_parts).append((p, e, exps))
    return _mk_char(hat_parts), _mk_char(tilde_parts)


def star_char(eta: DirichletCharacter) -> DirichletCharacter:
    """The non-quadratic part times kronecker(x, its conductor N), a primitive
    character of that same conductor, built on the local exponents.

    At a unit x, kronecker(x, N) is the product of (x/p) over the p^e || N
    with e odd, times chi8 when ord_2(N) is odd. (x/p) is -1 on the
    generator of (Z/p^e)^*, and chi8 is +1 on -1 and -1 on 5. So each local
    component with e odd shifts by half its generator order: at an odd p
    the one exponent by phi(p^e)/2, at 2 only the exponent on 5.

    No induction is needed. At an odd p the non-quadratic part has local
    order o > 2; the shift changes o by at most a factor 2, so o stays
    above 1 with the same p-part, which fixes the local conductor. At 2 the
    non-quadratic part has 2-part at least 16, and there the shift by chi8
    keeps its order.
    """
    _, tilde = quad_decomp(eta)
    parts = []
    for p, e, exps in tilde.locals:
        if e % 2:
            orders = local_unit_group(p, e).orders
            if p == 2:
                exps = (exps[0], (exps[1] + orders[1] // 2) % orders[1])
            else:
                exps = ((exps[0] + orders[0] // 2) % orders[0],)
        parts.append((p, e, exps))
    return _mk_char(parts)


@lru_cache(maxsize=1 << 12)
def gauss_sum(chi: DirichletCharacter) -> complex:
    """Classical Gauss sum: sum of chi(x) e(x/M) over x mod M."""
    m = chi.modulus
    if m == 1:
        return 1 + 0j
    total = 0j
    for x, value in enumerate(char_values(chi)):
        if value:
            total += value * cmath.exp(TWO_PI * 1j * x / m)
    return total


def gauss_quad_direct(a: int, b: int, c: int) -> complex:
    """Sum of e((a x^2 + b x)/c) over x mod c, by direct summation."""
    if c < 1:
        raise ValueError("modulus must be positive")
    roots = root_values(c)
    total = 0j
    for x in range(c):
        total += roots[(a * x * x + b * x) % c]
    return total


def gauss_quad_closed(a: int, b: int, c: int) -> complex:
    """Closed-form evaluation of the generalized quadratic Gauss sum.

    Reduces by gcd(a, c), then applies the classical three-branch formula
    (odd modulus / twice-odd modulus / modulus divisible by four).
    """
    if c < 1:
        raise ValueError("modulus must be positive")
    if c == 1:
        return 1 + 0j
    a %= c
    b %= c
    g = math.gcd(a, c)
    if g > 1:
        if b % g:
            return 0j
        return g * gauss_quad_closed(a // g, b // g, c // g)
    if c % 2 == 1:
        k = pow(4 * a, -1, c)
        phase = Fraction(-k * b * b, c)
        return root(phase) * root(eps(c)) * kronecker(a, c) * math.sqrt(c)
    if c % 4 == 2:
        if b % 2 == 0:
            return 0j
        c0 = c // 2
        k = pow(8 * a, -1, c0)
        phase = Fraction(-k * b * b, c0)
        return root(phase) * root(eps(c0)) * kronecker(2 * a, c0) * math.sqrt(2 * c)
    if b % 2 == 1:
        return 0j
    k = pow(a, -1, c)
    phase = Fraction(-k * b * b, 4 * c)
    return root(phase) * root(3 * eps(a)) * kronecker(c, a) * (1 + 1j) * math.sqrt(c)

