import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzbias.arith import euler_phi, factorize, kronecker
from hurwitzbias.characters import (
    DirichletCharacter,
    char_eval,
    _local_order,
    char_values,
    conductor,
    enumerate_chars,
    eps,
    gauss_quad_closed,
    gauss_quad_direct,
    gauss_sum,
    is_primitive,
    primitive_chars,
    quad_decomp,
    local_unit_group,
    root,
    root_values,
    star_char,
)


def power(chi, k):
    """chi^k, with each local exponent multiplied by k."""
    return DirichletCharacter(chi.modulus, tuple(
        (p, e, tuple(k * a % o for a, o in zip(exps, local_unit_group(p, e).orders)))
        for p, e, exps in chi.locals
    ))


def char_order(chi):
    """Order of chi: the lcm of its local components' orders."""
    order = 1
    for p, e, exps in chi.locals:
        order = math.lcm(order, _local_order(exps, local_unit_group(p, e).orders))
    return order


def units(n):
    return [x for x in range(1, n + 1) if math.gcd(x, n) == 1]


def brute_conductor(chi):
    m = chi.modulus
    for n in range(1, m + 1):
        if m % n:
            continue
        if all(
            char_eval(chi, x) == 0
            for x in range(1, m + 1)
            if math.gcd(x, m) == 1 and x % n == 1 % n
        ):
            return n
    raise AssertionError


def test_root_of_unity_exact_values():
    assert root(Fraction(0)) == 1
    assert root(Fraction(1, 2)) == -1
    assert root(Fraction(1, 4)) == 1j
    assert root(Fraction(3, 4)) == -1j
    assert root(None) == 0
    # exponents are read mod 1
    assert root(Fraction(5, 4)) == 1j
    assert root(Fraction(-1, 4)) == -1j
    assert root(Fraction(7)) == 1
    r = Fraction(1, 3)
    assert abs(root(r) - cmath.exp(2j * cmath.pi / 3)) < 1e-15
    assert root(r + r + r) == 1
    assert abs(root(-r) - root(r).conjugate()) < 1e-15


def test_eps_values():
    i = eps(3)
    assert root(2 * i) == -1
    assert root(3 * i) == -1j
    assert root(4 * i) == 1
    assert eps(1) == 0 and root(eps(1)) == 1
    assert eps(3) == Fraction(1, 4) and root(eps(3)) == 1j
    assert eps(7) == Fraction(1, 4) and root(eps(7)) == 1j
    assert eps(13) == 0 and root(eps(13)) == 1
    assert eps(-1) == Fraction(1, 4) and root(eps(-1)) == 1j
    with pytest.raises(ValueError):
        eps(4)


def test_eps_squared_is_sign():
    for d in range(1, 50, 2):
        assert root(2 * eps(d)) == kronecker(-1, d)


def digitwise_expo(chi, x):
    """The exponent of chi(x) in [0, 1), as the sum of a * d / o over the
    discrete-log digits d of x; None off the units."""
    if math.gcd(x, chi.modulus) != 1:
        return None
    expo = Fraction(0)
    for p, e, exps in chi.locals:
        group = local_unit_group(p, e)
        digits = group.dlog[x % p**e]
        for a, d, o in zip(exps, digits, group.orders):
            if a * d:
                expo += Fraction(a * d, o)
    return expo % 1


def test_local_generators():
    # star_char, phi2 and _local_conductor read exponents on these generators:
    # -1 at 4, -1 and 5 at 2^e with e >= 3, the least primitive root at odd p^e
    assert local_unit_group(2, 2).dlog[3] == (1,)
    for e in range(3, 11):
        dlog = local_unit_group(2, e).dlog
        assert dlog[2**e - 1] == (1, 0) and dlog[5] == (0, 1), e
    for p in (3, 5, 7, 11, 13, 23, 29, 31, 37, 41, 43):
        for e in range(1, 4):
            q = p**e
            if q > 5000:
                continue
            g = next(g for g in range(2, q)
                     if len({pow(g, i, q) for i in range(euler_phi(q))}) == euler_phi(q))
            assert local_unit_group(p, e).dlog[g] == (1,), (p, e)


def test_char_eval_matches_digitwise_sum():
    for m in range(1, 151):
        for chi in enumerate_chars(m):
            for x in range(-1, m + 1):
                assert char_eval(chi, x) == digitwise_expo(chi, x % m), (chi, x)


def test_char_values_shape():
    chi = enumerate_chars(15)[5]
    values = char_values(chi)
    assert len(values) == 15
    assert [x for x in range(15) if char_eval(chi, x) is None] == [0, 3, 5, 6, 9, 10, 12]
    assert [x for x in range(15) if values[x] == 0j] == [0, 3, 5, 6, 9, 10, 12]
    # chi(2) = chi_3(2) * chi_5(2) = (-1) * i = e(3/4), with L = lcm(2, 4) = 4
    assert char_eval(chi, 2) == Fraction(3, 4)
    assert values[2] is root_values(4)[3]
    principal = enumerate_chars(1)[0]
    assert char_eval(principal, 0) == 0 and char_values(principal) == (1 + 0j,)


@lru_cache(maxsize=None)
def exponent_table(chi):
    """(L, ks) read from char_eval: chi(x) = e(ks[x]/L) for x mod the modulus
    and ks[x] = -1 off the units, with L the lcm of the local generator orders."""
    L = math.lcm(1, *(o for p, e, _ in chi.locals for o in local_unit_group(p, e).orders))
    ks = []
    for x in range(chi.modulus):
        expo = char_eval(chi, x)
        ks.append(-1 if expo is None else expo.numerator * (L // expo.denominator))
    return L, tuple(ks)


def test_char_values_are_the_root_objects_of_the_table():
    # char_values is a character's one table. Every float sum that reads it
    # keeps its bits only while each unit's entry is root_values' own complex
    # object: root_values(L)[k] where char_eval(chi, x) = k/L. 3039 = 3 * 1013
    # sums digits of two local parts past L (1012), 4999 has L = 4998.
    for N in [*range(1, 61), 3039, 4999]:
        for chi in enumerate_chars(N)[: None if N <= 60 else 40]:
            L, ks = exponent_table(chi)
            values = char_values(chi)
            assert len(values) == N
            for x, k in enumerate(ks):
                if k >= 0:
                    assert values[x] is root_values(L)[k], (chi, x)
                else:
                    assert values[x] == 0j, (chi, x)


def reference_root(k, L):
    """e(k/L) written out apart from root: exact at reduced denominators 1, 2
    and 4, otherwise cmath.exp of 2 pi i num/den on the fraction reduced to
    [0, 1). The main-term bit pins hold only while root_values gives these
    bits."""
    g = math.gcd(k, L)
    num, den = k // g % (L // g), L // g
    if den == 1:
        return 1 + 0j
    if den == 2:
        return -1 + 0j
    if den == 4:
        return 1j if num % 4 == 1 else -1j
    return cmath.exp(2.0 * math.pi * 1j * num / den)


def test_root_values_bits():
    def bits(z):
        return z.real.hex(), z.imag.hex()

    for L in range(1, 241):
        roots = root_values(L)
        assert len(roots) == L
        for k, z in enumerate(roots):
            w = reference_root(k, L)
            assert bits(z) == bits(w), (k, L)
            assert bits(root(Fraction(k + 3 * L, L))) == bits(w), (k, L)


def test_character_counts():
    for m in range(1, 40):
        chars = enumerate_chars(m)
        assert len(chars) == euler_phi(m)
        assert char_order(chars[0]) == 1  # principal first


def flat_enumeration(modulus):
    """Every character mod modulus as one flat product over the generator
    orders of every local unit group, each tuple of exponents cut back into
    its local parts by index."""
    groups = [(p, e, local_unit_group(p, e).orders) for p, e in factorize(modulus)]
    out = []
    for combo in product(*(range(o) for _, _, orders in groups for o in orders)):
        parts, i = [], 0
        for p, e, orders in groups:
            parts.append((p, e, combo[i : i + len(orders)]))
            i += len(orders)
        out.append(DirichletCharacter(modulus, tuple(parts)))
    return out


def test_enumeration_order_equals_the_flat_product():
    for m in range(1, 1201):
        assert enumerate_chars(m) == flat_enumeration(m), m


def test_primitive_counts():
    expected = {1: 1, 2: 0, 3: 1, 4: 1, 5: 3, 6: 0, 7: 5, 8: 2, 9: 4, 12: 1, 16: 4, 24: 2}
    for m, k in expected.items():
        assert len(primitive_chars(m)) == k


def test_conductor_matches_bruteforce():
    for m in (1, 2, 3, 4, 5, 8, 9, 12, 16, 24, 36, 40, 45):
        for chi in enumerate_chars(m):
            assert conductor(chi) == brute_conductor(chi)


@settings(max_examples=150)
@given(st.integers(1, 48), st.integers(-100, 100), st.integers(-100, 100))
def test_characters_are_multiplicative(m, x, y):
    for chi in enumerate_chars(m):
        a, b = char_eval(chi, x), char_eval(chi, y)
        rhs = None if a is None or b is None else (a + b) % 1
        assert char_eval(chi, x * y) == rhs


def test_orthogonality():
    for m in (3, 4, 5, 8, 12, 15):
        for chi in enumerate_chars(m):
            total = sum(root(char_eval(chi, x)) for x in range(m))
            if char_order(chi) == 1:
                assert abs(total - euler_phi(m)) < 1e-12
            else:
                assert abs(total) < 1e-12
        for x in range(2, m):
            if math.gcd(x, m) != 1:
                continue
            total = sum(root(char_eval(chi, x)) for chi in enumerate_chars(m))
            expect = euler_phi(m) if x % m == 1 else 0
            assert abs(total - expect) < 1e-12


def test_quad_decomp_structure():
    for n in range(1, 73):
        for eta in primitive_chars(n):
            hat, tilde = quad_decomp(eta)
            assert math.gcd(hat.modulus, tilde.modulus) == 1
            assert hat.modulus * tilde.modulus == n
            assert char_order(hat) in (1, 2)
            sq = power(tilde, 2)
            for x in units(n):
                assert (char_eval(hat, x) + char_eval(tilde, x)) % 1 == char_eval(eta, x)
                assert char_eval(sq, x) == 2 * char_eval(tilde, x) % 1
            if n % 16:
                assert conductor(sq) == tilde.modulus
            else:
                assert conductor(sq) < tilde.modulus


def test_quad_decomp_examples():
    (eta4,) = [c for c in primitive_chars(5) if char_order(c) == 4 and char_eval(c, 2) == Fraction(1, 4)]
    hat, tilde = quad_decomp(eta4)
    assert hat.modulus == 1 and tilde == eta4
    (leg5,) = [c for c in primitive_chars(5) if char_order(c) == 2]
    hat, tilde = quad_decomp(leg5)
    assert hat == leg5 and tilde.modulus == 1
    # The split is cached per character; a non-primitive one raises every time.
    for _ in range(2):
        with pytest.raises(ValueError):
            quad_decomp(enumerate_chars(15)[0])


def test_star_char():
    triv = enumerate_chars(1)[0]
    assert star_char(triv) == triv
    (leg5,) = [c for c in primitive_chars(5) if char_order(c) == 2]
    assert star_char(leg5) == triv
    for eta in primitive_chars(5):
        if char_order(eta) == 4:
            star = star_char(eta)
            assert star.modulus == 5
            # the quartic exponent on the generator shifts by phi(5)/2
            assert star.locals[0][2][0] == (eta.locals[0][2][0] + 2) % 4
            for x in units(5):
                assert char_eval(star, x) == (char_eval(eta, x) + char_eval(leg5, x)) % 1
    for eta in primitive_chars(7):
        if char_order(eta) == 3:
            assert char_order(star_char(eta)) == 6
            assert star_char(eta).modulus == 7


def test_star_char_is_the_kronecker_twist():
    # Conductors 32 and 64 shift the exponent on 5, 27 and 81 an odd p^e with e odd.
    for n in range(1, 101):
        for eta in primitive_chars(n):
            _, tilde = quad_decomp(eta)
            star = star_char(eta)
            assert star.modulus == tilde.modulus, eta
            for x in units(tilde.modulus):
                twist = Fraction(int(kronecker(x, tilde.modulus) == -1), 2)
                assert char_eval(star, x) == (char_eval(tilde, x) + twist) % 1, (eta, x)


def test_star_char_keeps_the_non_quadratic_conductor():
    # Why the Euler phi needs no reading: eta_star and eta_tilde share a conductor.
    for n in range(1, 121):
        for eta in primitive_chars(n):
            star = star_char(eta)
            assert is_primitive(star), eta
            assert star.modulus == quad_decomp(eta)[1].modulus, eta


def test_gauss_sum_classics():
    assert gauss_sum(enumerate_chars(1)[0]) == 1
    (chi3,) = primitive_chars(3)
    assert abs(gauss_sum(chi3) - 1j * math.sqrt(3)) < 1e-12
    (chi4,) = primitive_chars(4)
    assert abs(gauss_sum(chi4) - 2j) < 1e-12
    (leg5,) = [c for c in primitive_chars(5) if char_order(c) == 2]
    assert abs(gauss_sum(leg5) - math.sqrt(5)) < 1e-12
    for n in (3, 5, 7, 11, 13):
        (leg,) = [c for c in primitive_chars(n) if char_order(c) == 2]
        expect = math.sqrt(n) * (1 if n % 4 == 1 else 1j)
        assert abs(gauss_sum(leg) - expect) < 1e-12


def test_gauss_sum_magnitude_and_conjugate():
    for n in (1, 3, 4, 5, 7, 8, 9, 12, 15, 16):
        for chi in primitive_chars(n):
            g = gauss_sum(chi)
            assert abs(abs(g) - math.sqrt(n)) < 1e-10
            conj_chi = power(chi, -1)
            for x in units(n):
                assert char_eval(conj_chi, x) == -char_eval(chi, x) % 1
            sign = root(char_eval(chi, n - 1))
            assert abs(gauss_sum(conj_chi) - sign * g.conjugate()) < 1e-10


def test_gauss_quad_examples():
    assert abs(gauss_quad_closed(1, 0, 4) - (2 + 2j)) < 1e-12
    assert abs(gauss_quad_closed(1, 0, 3) - 1j * math.sqrt(3)) < 1e-12
    assert gauss_quad_closed(2, 1, 4) == 0
    assert gauss_quad_closed(0, 0, 5) == 5
    assert gauss_quad_closed(0, 3, 5) == 0


def test_gauss_quad_closed_matches_direct_sample():
    for c in range(1, 25):
        for a in range(c):
            for b in range(c):
                lhs = gauss_quad_closed(a, b, c)
                rhs = gauss_quad_direct(a, b, c)
                assert abs(lhs - rhs) < 1e-9, (a, b, c)

