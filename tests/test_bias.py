"""Tests for residue-class bias averages, sign rules, and density scans."""

import math
from fractions import Fraction

import pytest

from hurwitzbias.arith import factorize
from hurwitzbias.bias import (
    A1_chars,
    A1_closed,
    A2_chars,
    A2_closed,
    bias_result,
    delta_star,
    delta_star_sq,
    density_scan,
    empirical_A1,
    epsilon_mM,
    sign_rules,
)
from hurwitzbias.hurwitz import moment_H


def test_boundary_indicators():
    assert delta_star(1, 1, 3) == 1
    assert delta_star(3, 0, 4) == 2
    assert delta_star(1, 3, 4) == 0
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
    with pytest.raises(ValueError):
        A2_closed(1, 2)
    with pytest.raises(ValueError):
        A2_chars(1, 1)


def test_second_moment_routes_agree():
    for M in range(3, 11):
        for m in range(1, M + 1):
            assert abs(A2_chars(m, M) - A2_closed(m, M)) < 1e-9, (m, M)


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
                    assert abs(value) > 1e-9
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


def test_empirical_average_tracks_closed_form():
    assert abs(empirical_A1(1, 3, 3000) - float(A1_closed(1, 3))) < 0.05
    with pytest.raises(ValueError):
        empirical_A1(1, 3, 1)
