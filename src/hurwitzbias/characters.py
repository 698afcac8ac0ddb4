"""Dirichlet characters with exact root-of-unity values, plus Gauss sums.

Characters are stored by their exponents on fixed generators of the local
unit groups (Z/p^e)^*, so evaluation, products, conductors and induction are
all exact integer arithmetic. Values are roots of unity tracked by their
exponent as a Fraction, converted to complex only at the edge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

from .arith import eps, factorize, inverse_mod, kronecker, ord_p

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RootOfUnity:
    """Zero or e^(2 pi i * expo) with expo an exact Fraction in [0, 1)."""

    zero: bool
    expo: Fraction

    def __post_init__(self):
        object.__setattr__(self, "expo", Fraction(0) if self.zero else self.expo % 1)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(False, Fraction(0))

    @classmethod
    def zero_value(cls) -> "RootOfUnity":
        return cls(True, Fraction(0))

    @classmethod
    def from_expo(cls, expo: Fraction) -> "RootOfUnity":
        return cls(False, expo)

    @property
    def value(self) -> complex:
        if self.zero:
            return 0j
        num, den = self.expo.numerator, self.expo.denominator
        if den == 1:
            return 1 + 0j
        if den == 2:
            return -1 + 0j
        if den == 4:
            return 1j if num % 4 == 1 else -1j
        return cmath.exp(TWO_PI * 1j * num / den)

    @property
    def is_one(self) -> bool:
        return not self.zero and self.expo == 0

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if self.zero or other.zero:
            return RootOfUnity.zero_value()
        return RootOfUnity(False, self.expo + other.expo)

    def __pow__(self, k: int) -> "RootOfUnity":
        if self.zero:
            return self
        return RootOfUnity(False, self.expo * k)

    def conj(self) -> "RootOfUnity":
        if self.zero:
            return self
        return RootOfUnity(False, -self.expo)


@dataclass(frozen=True)
class LocalUnitGroup:
    """Generators, their orders, and a discrete-log table for (Z/p^e)^*."""

    prime: int
    exp: int
    gens: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: dict

    def __hash__(self):
        return hash((self.prime, self.exp))


@lru_cache(maxsize=None)
def local_unit_group(p: int, e: int) -> LocalUnitGroup:
    q = p**e
    if p == 2:
        if e == 1:
            return LocalUnitGroup(2, 1, (), (), {1: ()})
        if e == 2:
            return LocalUnitGroup(2, 2, (3,), (2,), {1: (0,), 3: (1,)})
        half = 2 ** (e - 2)
        table = {}
        x = 1
        for a in range(2):
            y = x
            for b in range(half):
                table[y] = (a, b)
                y = y * 5 % q
            x = q - 1
        return LocalUnitGroup(2, e, (q - 1, 5), (2, half), table)
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
    return LocalUnitGroup(p, e, (g,), (phi,), table)


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod `modulus`, as exponent tuples on local generators.

    locals is a tuple of (p, e, exps) sorted by p, covering the full prime
    factorization of the modulus; exps[i] gives chi(g_i) = e(exps[i]/ord_i).
    """

    modulus: int
    locals: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __call__(self, n: int) -> RootOfUnity:
        return char_eval(self, n)


def _mk_char(parts: list[tuple[int, int, tuple[int, ...]]]) -> DirichletCharacter:
    parts = sorted(parts)
    modulus = 1
    for p, e, _ in parts:
        modulus *= p**e
    return DirichletCharacter(modulus, tuple(parts))


def principal_character(modulus: int) -> DirichletCharacter:
    parts = []
    for p, e in factorize(modulus):
        group = local_unit_group(p, e)
        parts.append((p, e, (0,) * len(group.gens)))
    return _mk_char(parts)


def char_eval(chi: DirichletCharacter, n: int) -> RootOfUnity:
    if chi.modulus == 1:
        return RootOfUnity.one()
    n %= chi.modulus
    if math.gcd(n, chi.modulus) != 1:
        return RootOfUnity.zero_value()
    expo = Fraction(0)
    for p, e, exps in chi.locals:
        group = local_unit_group(p, e)
        digits = group.dlog[n % p**e]
        for a, d, o in zip(exps, digits, group.orders):
            if a:
                expo += Fraction(a * d, o)
    return RootOfUnity.from_expo(expo)


def enumerate_chars(modulus: int) -> list[DirichletCharacter]:
    """All characters mod `modulus` in a deterministic order (principal first)."""
    groups = [(p, e, local_unit_group(p, e)) for p, e in factorize(modulus)]
    ranges = []
    for _, _, group in groups:
        ranges.extend(range(o) for o in group.orders)
    out = []
    for combo in iter_product(*ranges):
        parts = []
        i = 0
        for p, e, group in groups:
            k = len(group.gens)
            parts.append((p, e, combo[i : i + k]))
            i += k
        out.append(_mk_char(parts))
    return out


def _local_order(exps: tuple[int, ...], orders: tuple[int, ...]) -> int:
    """Order of a local component, given its exponents and generator orders."""
    order = 1
    for a, o in zip(exps, orders):
        order = math.lcm(order, o // math.gcd(a, o))
    return order


def char_order(chi: DirichletCharacter) -> int:
    order = 1
    for p, e, exps in chi.locals:
        order = math.lcm(order, _local_order(exps, local_unit_group(p, e).orders))
    return order


def is_real(chi: DirichletCharacter) -> bool:
    return char_order(chi) <= 2


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


@lru_cache(maxsize=None)
def primitive_chars(modulus: int) -> tuple[DirichletCharacter, ...]:
    return tuple(chi for chi in enumerate_chars(modulus) if is_primitive(chi))


def _crt_unit_lift(residue: int, q: int, modulus: int) -> int:
    """The unit mod `modulus` that is `residue` mod q and 1 mod modulus/q."""
    rest = modulus // q
    if rest == 1:
        return residue % modulus
    inv = inverse_mod(rest % q, q)
    return (1 + rest * ((residue - 1) * inv % q)) % modulus


def from_values(modulus: int, value_at) -> DirichletCharacter:
    """Build the character mod `modulus` from a function giving its values.

    value_at(x) must return a RootOfUnity for units x; it is only queried at
    lifts of the local generators. Raises if the values are not a character
    of this modulus (non-integral exponent on some generator).
    """
    parts = []
    for p, e in factorize(modulus):
        group = local_unit_group(p, e)
        q = p**e
        exps = []
        for g, o in zip(group.gens, group.orders):
            r = value_at(_crt_unit_lift(g, q, modulus))
            if r.zero:
                raise ValueError("character value vanished on a unit")
            a = r.expo * o
            if a.denominator != 1:
                raise ValueError("values do not define a character of this modulus")
            exps.append(int(a) % o)
        parts.append((p, e, tuple(exps)))
    return _mk_char(parts)


def _coprime_lift(x: int, n: int, modulus: int) -> int:
    """Some y = x (mod n) with gcd(y, modulus) = 1."""
    y = x % n
    if y == 0 and n == 1:
        y = 1
    while math.gcd(y, modulus) != 1:
        y += n
    return y


def induce_primitive(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi."""
    n = conductor(chi)
    if n == chi.modulus:
        return chi
    return from_values(n, lambda x: char_eval(chi, _coprime_lift(x, n, chi.modulus)))


def induce_to(chi: DirichletCharacter, modulus: int) -> DirichletCharacter:
    """The character mod `modulus` induced by chi (conductor must divide it)."""
    prim = induce_primitive(chi)
    if modulus % prim.modulus:
        raise ValueError("conductor does not divide the target modulus")
    return from_values(modulus, lambda x: char_eval(prim, x))


def char_product(a: DirichletCharacter, b: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product, as a character mod lcm of the two moduli."""
    m = math.lcm(a.modulus, b.modulus)
    return from_values(m, lambda x: char_eval(a, x) * char_eval(b, x))


@lru_cache(maxsize=None)
def kronecker_character(bottom: int) -> DirichletCharacter:
    """The primitive character agreeing with x -> kronecker(x, bottom) on units.

    bottom must be >= 1. Only primes of odd multiplicity survive; the result
    has squarefree odd conductor times a factor 8 when ord_2(bottom) is odd.
    """
    if bottom < 1:
        raise ValueError("kronecker_character requires a positive bottom argument")
    parts = []
    for p, e in factorize(bottom):
        if e % 2 == 0:
            continue
        if p == 2:
            parts.append((2, 3, (0, 1)))
        else:
            parts.append((p, 1, ((p - 1) // 2,)))
    return _mk_char(parts)


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


@lru_cache(maxsize=None)
def star_char(eta: DirichletCharacter) -> DirichletCharacter:
    """Primitive character inducing (non-quadratic part) * kronecker(x, its conductor)."""
    _, tilde = quad_decomp(eta)
    kc = kronecker_character(tilde.modulus)
    return induce_primitive(char_product(tilde, kc))


@lru_cache(maxsize=None)
def gauss_sum(chi: DirichletCharacter) -> complex:
    """Classical Gauss sum: sum of chi(x) e(x/M) over x mod M."""
    m = chi.modulus
    if m == 1:
        return 1 + 0j
    total = 0j
    for x in range(m):
        v = char_eval(chi, x)
        if not v.zero:
            total += v.value * cmath.exp(TWO_PI * 1j * x / m)
    return total


def gauss_quad_direct(a: int, b: int, c: int) -> complex:
    """Sum of e((a x^2 + b x)/c) over x mod c, by direct summation."""
    if c < 1:
        raise ValueError("modulus must be positive")
    total = 0j
    for x in range(c):
        total += cmath.exp(TWO_PI * 1j * ((a * x * x + b * x) % c) / c)
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
        k = inverse_mod(4 * a, c)
        phase = Fraction(-k * b * b, c)
        return _phase_value(phase) * eps(c).value * kronecker(a, c) * math.sqrt(c)
    if c % 4 == 2:
        if b % 2 == 0:
            return 0j
        c0 = c // 2
        k = inverse_mod(8 * a, c0)
        phase = Fraction(-k * b * b, c0)
        return (
            _phase_value(phase)
            * eps(c0).value
            * kronecker(2 * a, c0)
            * math.sqrt(2 * c)
        )
    if b % 2 == 1:
        return 0j
    k = inverse_mod(a, c)
    phase = Fraction(-k * b * b, 4 * c)
    return (
        _phase_value(phase)
        * (eps(a) ** 3).value
        * kronecker(c, a)
        * (1 + 1j)
        * math.sqrt(c)
    )


def _phase_value(expo: Fraction) -> complex:
    return RootOfUnity.from_expo(expo).value


def chi8() -> DirichletCharacter:
    return kronecker_character(8)
