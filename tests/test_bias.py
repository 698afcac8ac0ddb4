"""Tests for residue-class bias averages, sign rules, and density scans."""

import math
from fractions import Fraction

import pytest

from hurwitzbias.arith import euler_phi, factorize, ord_p, primes_upto
from hurwitzbias.bias import (
    A1_chars,
    A1_closed,
    A2_chars,
    A2_closed,
    _a1_ratios,
    a1_class_table,
    bias_result,
    delta_star,
    delta_star_sq,
    density_scan,
    empirical_A1,
    epsilon_mM,
    leading_sum,
    sign_rules,
)
from hurwitzbias.eisenstein import main_term, reduce_residue
from hurwitzbias.hurwitz import moment_H


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_main_term_at_p_and_p2_is_the_leading_sum(p):
    # The leading block of the trace moment: at n = p and n = p^2 the main
    # term is the leading-coefficient average times sigma(n).
    for M in range(1, 13):
        if M % p == 0:
            continue
        for m in range(1, M + 1):
            assert main_term(m, M, p) == pytest.approx(
                (p + 1) * leading_sum(m, M, p, 1), rel=1e-12, abs=1e-12), (m, M)
            assert main_term(m, M, p * p) == pytest.approx(
                (p * p + p + 1) * leading_sum(m, M, p, 2), rel=1e-12, abs=1e-12), (m, M)


def test_boundary_indicators():
    assert delta_star(1, 1, 3) == 1
    assert delta_star(3, 0, 4) == 2
    assert delta_star(1, 3, 4) == 0
    # with no congruence condition (M = 1) both slots always fire
    assert delta_star(0, 1, 1) == 2
    assert delta_star_sq(1, 2, 4) == 2
    assert delta_star_sq(3, 1, 5) == 1
    assert delta_star_sq(1, 1, 5) == 0
    with pytest.raises(ValueError):
        delta_star(2, 1, 4)
    with pytest.raises(ValueError):
        delta_star_sq(3, 1, 9)


def test_first_moment_average_oracles():
    assert A1_closed(1, 3) == Fraction(1, 16)
    assert A1_closed(2, 5) == Fraction(-5, 96)
    for m in (1, 2, 5):
        assert A1_closed(m, 1) == 0


def test_first_moment_average_symmetries():
    # negating the class or shifting by the modulus changes nothing
    for M in range(1, 61):
        for m in range(1, M + 1):
            assert A1_closed(-m, M) == A1_closed(m, M)
            assert A1_closed(m + M, M) == A1_closed(m, M)


def test_first_moment_routes_agree():
    for M in range(1, 13):
        for m in range(1, M + 1):
            assert abs(A1_chars(m, M) - float(A1_closed(m, M))) < 1e-9


def test_second_moment_average_oracles():
    assert abs(A2_closed(1, 3) - (-0.125)) < 1e-12
    assert abs(A2_closed(5, 5) - 0.25) < 1e-12
    assert A2_closed(3, 3) > 0
    assert A2_closed(1, 5) < 0
    # at a prime modulus, with c = chi_{-4}(p): the unit class and the zero class
    for p in [*primes_upto(1000)[1:], 100003, 1000003]:
        c = 1 if p % 4 == 1 else -1
        assert A2_closed(1, p) == float(Fraction(-1, (p - 1) * (p - c))), p
        assert A2_closed(p, p) == float(Fraction(1, p - c)), p
    # A2 vanishes exactly on the odd classes mod a power of two M >= 4
    for a in range(2, 8):
        for m in range(1, 2**a, 2):
            assert A2_closed(m, 2**a) == 0.0, (m, a)
            if a <= 5:
                assert abs(A2_chars(m, 2**a)) < 1e-12, (m, a)
    with pytest.raises(ValueError):
        A2_closed(1, 2)
    with pytest.raises(ValueError):
        A2_chars(1, 1)


def test_second_moment_routes_agree():
    for M in range(3, 11):
        for m in range(1, M + 1):
            assert abs(A2_chars(m, M) - A2_closed(m, M)) < 1e-12, (m, M)


def test_constant_block_matches_indicator_average():
    # regression for the doubled-solution classes such as (2, 4)
    for M in range(3, 41):
        for m in range(1, M + 1):
            direct = Fraction(0)
            for x in range(1, M + 1):
                if math.gcd(x, M) != 1:
                    continue
                xbar = pow(x, -1, M)
                direct -= delta_star_sq(x, m, M) + moment_H(2, (xbar * m) % M, M, 1)
            assert epsilon_mM(m, M) == direct, (m, M)


def test_sign_rule_examples():
    assert [(r.quantity, r.sign) for r in sign_rules(1, 27)] == [("A1", 1), ("A2", -1)]
    assert [(r.quantity, r.sign) for r in sign_rules(5, 12)] == [("A1", 1)]
    assert [(r.quantity, r.sign) for r in sign_rules(2, 6)] == [("A1", -1), ("A2", -1)]
    assert [(r.quantity, r.sign) for r in sign_rules(3, 1)] == [("A1", 0)]
    assert [(r.quantity, r.sign) for r in sign_rules(3, 10)] == [("A2", -1)]
    assert sign_rules(1, 4) == ()


def test_sign_rules_match_computed_values():
    for M in range(1, 61):
        for m in range(1, M + 1):
            for rule in sign_rules(m, M):
                if rule.quantity == "A1":
                    value = A1_closed(m, M)
                    got = 0 if value == 0 else (1 if value > 0 else -1)
                else:
                    value = A2_closed(m, M)
                    assert value != 0
                    got = 1 if value > 0 else -1
                assert got == rule.sign, (m, M, rule)


def test_leading_product_stays_in_the_open_interval():
    # for M > 1 the sign of the first moment average is decided by the two
    # indicator terms because the product block can never reach 0 or 2
    for M in range(2, 301):
        primes = [f for f, _ in factorize(M)]
        for m in range(1, M + 1):
            prod = Fraction(2)
            for p in primes:
                delta = 0 if m % p == 0 else 1
                prod *= Fraction(p * p - p - delta, p * p - 1)
            assert 0 < prod < 2


def test_bias_result_routes():
    closed = bias_result("a1", 2, 5)
    chars = bias_result("a1", 2, 5, route="chars")
    assert closed.value == Fraction(-5, 96)
    assert abs(float(closed.value) - chars.value) < 1e-9
    assert closed.predicted_sign == -1
    with pytest.raises(ValueError):
        bias_result("a3", 1, 3)
    with pytest.raises(ValueError):
        bias_result("a1", 1, 3, route="guess")


def test_density_scan_small():
    rep = density_scan(1)
    assert rep.pairs == 1 and rep.zero == 1
    rep = density_scan(30)
    assert rep.pairs == 30 * 31 // 2
    assert rep.positive + rep.negative + rep.zero == rep.pairs
    assert rep.positive_fraction + rep.negative_fraction + rep.zero_fraction == pytest.approx(1.0)
    with pytest.raises(ValueError):
        density_scan(0)
    with pytest.raises(ValueError):
        density_scan(10**5 + 1)
    with pytest.raises(ValueError):
        density_scan(10**6)


def test_density_scan_matches_signs():
    rep = density_scan(40)
    pos = neg = zero = 0
    for M in range(1, 41):
        for m in range(1, M + 1):
            v = A1_closed(m, M)
            pos += v > 0
            neg += v < 0
            zero += v == 0
    assert (rep.positive, rep.negative, rep.zero) == (pos, neg, zero)
    # modulus by modulus, the class table against the per-m closed form
    total = [0, 0, 0]
    for M in range(1, 301):
        table = a1_class_table(M)
        index = table.index()
        assert len(index) == M
        walk = [0, 0, 0]
        for m, num, den in _a1_ratios(M, range(1, M + 1)):
            assert (table.nums[index[m - 1]], table.den) == (num, den), (m, M)
            walk[(num > 0) - (num < 0) + 1] += 1
        assert table.counts == tuple(map(index.count, range(len(table.counts)))), M
        tally = [0, 0, 0]
        for num, count in zip(table.nums, table.counts):
            tally[(num > 0) - (num < 0) + 1] += count
        assert tally == walk, M
        total = [a + b for a, b in zip(total, tally)]
    rep = density_scan(300)
    assert (rep.negative, rep.zero, rep.positive) == tuple(total) == (25_638, 1, 19_511)


def _A2_fraction(m, M):
    """A2_closed as it was summed in Fractions before its integer form."""
    m = reduce_residue(m, M)
    block = Fraction(1)
    for p, a in factorize(M):
        if p == 2 and a == 1:
            block *= Fraction(2 - m % 2, 3)
        elif p == 2:
            block *= Fraction((2, 5, 3)[min(ord_p(m, 2), 2)], 3 * 2**a)
        else:
            c = 1 if p % 4 == 1 else -1
            num = p - 1 - c if m % p else p - 1
            block *= Fraction(num, (p - 1) * (p - c) * p ** (a - 1))
    return float(block + epsilon_mM(m, M) / (2 * euler_phi(M)))


def test_second_moment_closed_form_keeps_its_bits():
    for M in range(3, 401):
        for m in range(1, M + 1):
            assert A2_closed(m, M).hex() == _A2_fraction(m, M).hex(), (m, M)


def test_empirical_average_tracks_closed_form():
    assert abs(empirical_A1(1, 3, 3000) - float(A1_closed(1, 3))) < 0.05
    with pytest.raises(ValueError):
        empirical_A1(1, 3, 1)
