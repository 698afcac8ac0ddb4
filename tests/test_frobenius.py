"""Tests for the curve-count tables and the trace-moment bridge."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hurwitzbias import frobenius
from hurwitzbias.arith import kronecker, primes_upto
from hurwitzbias.frobenius import S_direct, S_via_moments, TraceMassTable, trace_mass_table
from hurwitzbias.hurwitz import hurwitz_H, moment_H

FIELD_SIZES = (5, 7, 11, 13, 25, 49, 121)


def tilde_moment(k, m, M, p, r):
    """Class-number moment with the traces divisible by p left out."""
    n = p**r
    tmax = math.isqrt(4 * n)
    total = Fraction(0)
    for t in range(-tmax + (m + tmax) % M, tmax + 1, M):
        if t % p != 0:
            total += t**k * hurwitz_H(4 * n - t * t)
    return total


def rho(k, m, M, n):
    """Signed count of square roots t of n with t = m (mod M)."""
    if n < 0:
        return 0
    if n == 0:
        return 1 if m % M == 0 and k == 0 else 0
    s = math.isqrt(n)
    if s * s != n:
        return 0
    out = 0
    if (s - m) % M == 0:
        out += 1
    if (-s - m) % M == 0:
        out += (-1) ** k
    return out


def error_E(k, m, M, p, r):
    """Correction restoring the p | t traces dropped by tilde_moment.

    The indicator on the first two terms reads "trace zero occurs in the
    class", i.e. M | m; the exact identity tests pin this reading.
    """
    out = Fraction(0)
    if m % M == 0 and k == 0:
        if r % 2:
            out += hurwitz_H(4 * p)
        else:
            out += Fraction(1 - kronecker(-1, p), 2)
    r1 = rho(k, m, M, p**r)
    if r1:
        out += Fraction(1 - kronecker(-3, p), 3) * p ** (r * k // 2) * r1
    r2 = rho(k, m, M, 4 * p**r)
    if r2:
        out += Fraction(2**k * (p - 1), 12) * p ** (r * k // 2) * r2
    return out


def test_total_mass_is_field_size():
    # one twist orbit per j-invariant, so the weighted count is exactly q
    for q in FIELD_SIZES:
        assert trace_mass_table(q).total_mass() == q


def test_traces_satisfy_hasse_bound():
    for q in FIELD_SIZES:
        bound = math.isqrt(4 * q)
        assert all(abs(t) <= bound for t, _ in trace_mass_table(q).counts)


def test_trace_symmetry():
    # quadratic twisting negates the trace and preserves the weights
    for q in FIELD_SIZES:
        masses = trace_mass_table(q).masses
        by_trace = dict(masses)
        for t, mass in masses:
            assert by_trace.get(-t) == mass


def test_f5_table_by_hand():
    table = trace_mass_table(5)
    assert table.p == 5 and table.r == 1
    by_trace = dict(table.masses)
    assert by_trace[1] == Fraction(1, 2)
    assert 7 not in by_trace
    # 25 coefficient pairs, 5 of them singular
    raw = sum(mass for _, mass in table.masses) * (5 - 1)
    assert raw == 20 == sum(c for _, c in table.counts)
    assert table.masses == tuple((t, Fraction(c, 4)) for t, c in table.counts)


def test_hand_built_table_divides_its_counts_by_q_minus_1():
    # one curve pair of trace 0 over F_5: mass 1/4, whatever else the table
    # holds; the counts are integers, so no mass has to be scaled back
    table = TraceMassTable(5, 1, ((0, 1), (2, 3)))
    assert table.masses == ((0, Fraction(1, 4)), (2, Fraction(3, 4)))
    assert table.moment(0, 0, 2) == table.total_mass() == 1
    assert table.moment(0, 0, 4) == Fraction(1, 4)
    assert table.moment(2, 0, 1) == 3


def _assert_bridge_table(p):
    # Away from the characteristic the weighted count of trace t is
    # H(4p - t^2)/2.  t = 0 is the only trace in the Hasse range that p
    # divides, so this and the total mass p fix the whole table.
    table = trace_mass_table(p)
    assert table.total_mass() == p
    by_trace = dict(table.masses)
    bound = math.isqrt(4 * p)
    for t in range(-bound, bound + 1):
        if t != 0:
            assert by_trace.get(t, 0) == Fraction(hurwitz_H(4 * p - t * t), 2), (p, t)


def test_mass_matches_class_number_count():
    for p in primes_upto(599):
        if p >= 5:
            _assert_bridge_table(p)


def test_direct_moment_examples():
    assert S_direct(0, 0, 1, 5) == 5
    assert S_direct(2, 1, 2, 5) == 10
    # tallying never needs the modulus to be coprime to the characteristic
    assert S_direct(0, 1, 5, 25) == Fraction(23, 4)
    # the traces t = 1 (mod 5) with t^2 <= 100 are -9, -4, 1, 6; 5 divides
    # none of them, so each has the class-number count H(100 - t^2)/2
    assert S_direct(0, 1, 5, 25) == sum(hurwitz_H(100 - t * t) for t in (-9, -4, 1, 6)) / 2


def test_moment_route_examples():
    assert S_via_moments(0, 0, 1, 5, 1) == 5
    assert S_via_moments(0, 1, 3, 5, 2) == S_direct(0, 1, 3, 25)
    assert S_direct(0, 1, 3, 25) == Fraction(37, 4)
    # M = 1 with r >= 2 reads the inverse of p mod 1, which pow gives as 0
    assert S_via_moments(2, 0, 1, 7, 2) == S_direct(2, 0, 1, 49) == 2400


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
def test_bridge_prime_fields(p):
    for M in range(1, 9):
        if M % p == 0:
            continue
        for k in (0, 1, 2):
            for m in range(M):
                assert S_direct(k, m, M, p) == S_via_moments(k, m, M, p, 1)


@pytest.mark.parametrize("p", [5, 7])
def test_bridge_quadratic_fields(p):
    for M in range(1, 9):
        if M % p == 0:
            continue
        for k in (0, 1, 2):
            for m in range(M):
                assert S_direct(k, m, M, p * p) == S_via_moments(k, m, M, p, 2)


def cubic_field_tables(p, f):
    """The addition and multiplication tables of F_p[x]/(x^3 + f[2] x^2 +
    f[1] x + f[0]) for an irreducible cubic; c0 + c1 x + c2 x^2 is stored at
    index c0 + p c1 + p^2 c2."""
    idx = np.arange(p**3)
    digits = [idx // p**i % p for i in range(3)]
    add = sum((d[:, None] + d[None, :]) % p * p**i for i, d in enumerate(digits))
    prod = [0] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] = prod[i + j] + digits[i][:, None] * digits[j][None, :]
    for top in (4, 3):  # x^top = -x^(top - 3) (f[2] x^2 + f[1] x + f[0])
        for i in range(3):
            prod[top - 3 + i] = prod[top - 3 + i] - prod[top] * f[i]
    mul = sum(prod[i] % p * p**i for i in range(3))
    return add, mul


def cubic_field_counts(p, f):
    """The number of pairs (a, b) with 4a^3 + 27b^2 != 0 over F_{p^3}, by the
    trace -sum_x chi(x^3 + ax + b) of y^2 = x^3 + ax + b, counted point by
    point with chi the quadratic character of the field."""
    q = p**3
    add, mul = cubic_field_tables(p, f)
    idx = np.arange(q)
    sq = mul[idx, idx]
    cube = mul[sq, idx]
    chi = np.full(q, -1)
    chi[sq] = 1
    chi[0] = 0
    disc_b = mul[27 % p, sq]  # 27 b^2 for each b
    counts = {}
    for a in range(q):
        # row x, column b: x^3 + ax + b
        traces = -chi[add[add[cube, mul[a]]]].sum(axis=0)
        good = add[mul[4 % p, cube[a]], disc_b] != 0
        for t, c in zip(*np.unique(traces[good], return_counts=True)):
            counts[int(t)] = counts.get(int(t), 0) + int(c)
    return counts


# x^3 + x + 1 over F_5 and x^3 - 5 over F_7: neither has a root, so both are
# irreducible
@pytest.mark.parametrize("p, f", [(5, (1, 1, 0)), (7, (-5, 0, 0))])
def test_bridge_cubic_fields_by_brute_force(p, f):
    # trace_mass_table enumerates only F_p and F_{p^2}, while S_via_moments
    # takes any r: each pair (a, b) over F_{p^3} weighs 1/(q - 1)
    assert all((x**3 + f[2] * x * x + f[1] * x + f[0]) % p for x in range(p))
    q = p**3
    counts = cubic_field_counts(p, f)
    # the singular pairs are (-3s^2, 2s^3), one per s
    assert sum(counts.values()) == q * q - q
    assert all(t * t <= 4 * q for t in counts)
    table = TraceMassTable(p, 3, tuple(sorted(counts.items())))
    assert table.total_mass() == q
    for M in range(1, 9):
        if M % p == 0:
            continue
        for k in (0, 1, 2):
            for m in range(M):
                assert table.moment(k, m, M) == S_via_moments(k, m, M, p, 3), (k, m, M)
    if p == 5:
        assert S_via_moments(2, 1, 3, 5, 3) == Fraction(7875, 2)


def test_tilde_moment_drops_characteristic_traces():
    assert tilde_moment(0, 0, 1, 5, 1) == 8
    # full moment = restricted moment + the t = 0 column (5 | t forces t = 0 here)
    assert moment_H(0, 0, 1, 5) == tilde_moment(0, 0, 1, 5, 1) + hurwitz_H(20)


def test_rho_counts_signed_square_roots():
    assert rho(0, 2, 5, 4) == 1
    assert rho(1, 3, 5, 4) == -1
    assert rho(0, 0, 1, 0) == 1
    assert rho(1, 0, 1, 0) == 0
    assert rho(0, 1, 2, 9) == 2
    assert rho(0, 0, 1, 5) == 0


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)])
def test_restricted_moment_plus_error(p, r):
    # the correction term absorbs exactly the traces divisible by p
    for M in (1, 2, 3, 4, 6, 8):
        if M % p == 0:
            continue
        for k in (0, 1, 2):
            for m in range(M):
                lhs = 2 * S_direct(k, m, M, p**r)
                rhs = tilde_moment(k, m, M, p, r) + error_E(k, m, M, p, r)
                assert lhs == rhs, (k, m, M, p, r)


def test_integer_moments_equal_the_fraction_sums():
    # every table these tests build: the masses summed as Fractions, term by
    # term, are the reference for the sums over one denominator q - 1
    fields = {p for p in primes_upto(599) if p >= 5} | set(FIELD_SIZES) | {5801, 19997}
    for q in sorted(fields):
        table = trace_mass_table(q)
        assert table.total_mass() == sum((w for _, w in table.masses), Fraction(0)) == q
        for M in range(1, 7):
            for m in range(-1, M):
                for k in range(4):
                    want = sum((t**k * w for t, w in table.masses if (t - m) % M == 0), Fraction(0))
                    assert table.moment(k, m, M) == want, (q, k, m, M)


def test_twist_class_rows_match_every_a(monkeypatch):
    # One weighted row per quartic-twist class must tally exactly what the
    # full enumeration, one row of weight 1 for every a in F_q, tallies.
    fields = [(p, 1) for p in primes_upto(200) if p >= 5]
    fields += [(p, 2) for p in (5, 7, 11, 13, 17, 19)]
    classes = {(p, r): frobenius._field_tally(p, r) for p, r in fields}
    monkeypatch.setattr(frobenius, "_twist_classes", lambda q, power: [(a, 1) for a in range(q)])
    for (p, r), tally in classes.items():
        assert tally == frobenius._field_tally(p, r), p**r


def test_argument_validation():
    with pytest.raises(ValueError):
        trace_mass_table(4)
    with pytest.raises(ValueError):
        trace_mass_table(9)
    with pytest.raises(ValueError):
        trace_mass_table(125)
    with pytest.raises(ValueError):
        trace_mass_table(30_011 * 30_011)
    with pytest.raises(ValueError):
        S_via_moments(0, 1, 5, 5, 1)
    with pytest.raises(ValueError):
        S_via_moments(0, 1, 3, 4, 1)
    with pytest.raises(ValueError, match="p must be a prime >= 5"):
        S_via_moments(0, 1, 3, 9, 1)
    with pytest.raises(ValueError, match="r must be >= 1"):
        S_via_moments(0, 1, 3, 5, 0)
    with pytest.raises(ValueError):
        S_direct(0, 1, 0, 5)
    with pytest.raises(ValueError, match="k must be >= 0"):
        S_direct(-1, 0, 1, 5)
    with pytest.raises(ValueError, match="k must be >= 0"):
        S_direct(-1, 1, 2, 5)


def test_prime_fields_up_to_the_cap():
    # The kernel holds O(p) arrays, so prime fields up to the cap enumerate.
    for p in (5801, 19997):
        _assert_bridge_table(p)
        for k in (0, 1, 2):
            for m in range(3):
                assert S_direct(k, m, 3, p) == S_via_moments(k, m, 3, p, 1), (k, m, p)
    assert S_via_moments(0, 1, 3, 19997, 1) == Fraction(9999, 2)
