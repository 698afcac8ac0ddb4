"""Tests for the zeroth-moment main-term expansion and its cusp residual."""

import math
from fractions import Fraction

import pytest

from hurwitzbias.arith import divisors, euler_phi, factorize
from hurwitzbias.characters import (
    char_order,
    chi8,
    kronecker_character,
    primitive_chars,
    principal_character,
)
from hurwitzbias.eisenstein import (
    Config,
    S_set,
    build_expansion,
    coeff_a,
    cusp_residual_0,
    in_S,
    main_term,
    phi2,
    prefactor,
    psi,
    reduce_residue,
    residual_series,
    sigma_twisted,
)
from hurwitzbias.hurwitz import lambda_moment, moment_H

TRIV = principal_character(1)
CHI_M3 = kronecker_character(3)
CHI_M4 = primitive_chars(4)[0]
CHI5 = next(c for c in primitive_chars(5) if char_order(c) == 2)
ETA4S = tuple(c for c in primitive_chars(5) if char_order(c) == 4)


def test_reduce_residue():
    assert reduce_residue(7, 5) == 2
    assert reduce_residue(5, 5) == 5
    assert reduce_residue(10, 5) == 5
    assert reduce_residue(-1, 5) == 4
    with pytest.raises(ValueError):
        reduce_residue(0, 5)


def test_prefactor_values():
    expected = {
        1: Fraction(2),
        2: Fraction(4, 3),
        3: Fraction(3, 4),
        4: Fraction(2, 3),
        5: Fraction(5, 12),
        6: Fraction(1, 2),
    }
    for M, want in expected.items():
        assert prefactor(M) == want


def test_psi_examples():
    # d_p = m_p^2 with m_p < M_p picks up the -1/(p^2-p) correction.
    assert psi(1, 1, 3, 3) == Fraction(5, 6)
    # d_p strictly below m_p^2 and a perfect square contributes 1.
    assert psi(1, 3, 3, 9) == Fraction(1)
    # d_p = p * m_p^2.
    assert psi(5, 1, 5, 5) == Fraction(3, 10)
    # d_p = p^2 * m_p^2.
    assert psi(25, 1, 5, 5) == 1 - Fraction(25, 20)
    # d_p below m_p^2 in p * (squares): the sign of the 1/p term is pinned
    # by the exact vanishing of cusp residuals on every class with M <= 5.
    assert psi(2, 2, 2, 4) == Fraction(-3, 2)
    assert psi(3, 3, 3, 9) == Fraction(-4, 3)


def test_in_S_examples():
    assert in_S(TRIV, 1, 1, 1)
    assert in_S(TRIV, 1, 2, 4)
    assert in_S(CHI_M3, 1, 3, 1)
    assert in_S(CHI_M3, 3, 3, 1)
    # Quadratic component with conductor square exceeding p^2 m_p^2.
    assert not in_S(CHI_M4, 1, 4, 1)
    assert in_S(CHI_M4, 2, 4, 1)


def test_in_S_rejects_bad_input():
    with pytest.raises(ValueError):
        in_S(TRIV, 0, 3, 1)
    with pytest.raises(ValueError):
        in_S(CHI_M3, 1, 5, 1)  # conductor does not divide the modulus
    with pytest.raises(ValueError):
        in_S(TRIV, 1, 2, 8)  # d does not divide (M/N)^2


def test_phi2_values():
    assert phi2(TRIV) == 1
    assert phi2(chi8()) == 1
    assert abs(phi2(CHI_M4) - (-1j)) < 1e-15


def test_sigma_twisted_values():
    assert sigma_twisted(TRIV, 6) == 12
    assert abs(sigma_twisted(CHI_M4, 5) - 6) < 1e-12
    assert abs(sigma_twisted(CHI_M3, 3)) < 1e-12
    with pytest.raises(ValueError):
        sigma_twisted(TRIV, 0)


# Hand-expanded values of the expansion coefficients at d = 1 (and, for the
# class 1 mod 2, the deeper divisors d = 2 and d = 4).
COEFF_ORACLES = [
    (TRIV, 1, 1, 1, 1.0),
    (TRIV, 1, 1, 3, 5 / 6),
    (CHI_M3, 1, 1, 3, 1 / 6),
    (TRIV, 1, 3, 3, 1.0),
    (CHI_M3, 1, 3, 3, -1 / 3),
    (TRIV, 1, 1, 5, 19 / 20),
    (CHI5, 1, 1, 5, -1 / 20),
    (TRIV, 1, 5, 5, 1.0),
    (CHI5, 1, 5, 5, 1 / 5),
    (CHI_M4, 1, 2, 4, 1 / 4),
    (CHI_M4, 1, 4, 4, -1 / 4),
    (TRIV, 1, 1, 2, 1 / 2),
    (TRIV, 2, 1, 2, 3 / 2),
    (TRIV, 4, 1, 2, -2.0),
    (TRIV, 1, 2, 8, 1.0),
    (CHI_M4, 1, 2, 8, 1 / 4),
]


def test_coefficient_oracles():
    for eta, d, m, M, want in COEFF_ORACLES:
        got = coeff_a(eta, d, m, M)
        assert abs(got - want) < 1e-12, (eta, d, m, M, got, want)


def test_coefficient_order_four_pair():
    got = {coeff_a(eta, 1, 1, 5) for eta in ETA4S}
    want = {(-1 + 2j) / 20, (-1 - 2j) / 20}
    for g in got:
        assert min(abs(g - w) for w in want) < 1e-12
    assert abs(sum(got) - (-1 / 10)) < 1e-12


def test_coefficient_rejects_vanishing_denominator():
    eta4 = ETA4S[0]
    with pytest.raises(ValueError):
        coeff_a(eta4, 1, 5, 5)


MAIN_TERM_ORACLES = [
    (1, 1, 1, 2.0),
    (1, 1, 6, 24.0),
    (1, 2, 1, 2 / 3),
    (1, 2, 2, 4.0),
    (1, 2, 4, 8.0),
    (1, 3, 1, 3 / 4),
    (1, 5, 1, 1 / 3),
    (2, 8, 1, 5 / 12),
    (6, 8, 1, 5 / 12),
    (5, 5, 1, 1 / 2),
]


def test_main_term_oracles():
    for m, M, n, want in MAIN_TERM_ORACLES:
        assert abs(main_term(m, M, n) - want) < 1e-9, (m, M, n)


def test_main_term_full_interval_is_twice_sigma():
    # M = 1 collapses to twice the ordinary divisor sum.
    for n in range(1, 60):
        sigma1 = sum(divisors(n))
        assert abs(main_term(1, 1, n) - 2 * sigma1) < 1e-9


ZERO_CLASSES = [(m, M) for M in range(1, 6) for m in range(1, M + 1)]
ZERO_CLASSES += [(2, 8), (6, 8)]


def test_residual_vanishes_on_zero_classes():
    for m, M in ZERO_CLASSES:
        series = residual_series(m, M, 200)
        worst = max(abs(v) for v in series.values)
        assert worst < 1e-8, (m, M, worst)


def test_residual_nonzero_elsewhere():
    for m, M in [(1, 6), (1, 7), (3, 8), (1, 9)]:
        series = residual_series(m, M, 100)
        assert max(abs(v) for v in series.values) > 1e-3, (m, M)


def test_residual_series_matches_pointwise():
    series = residual_series(3, 7, 25)
    for n in range(1, 26):
        assert series.value(n) == pytest.approx(cusp_residual_0(3, 7, n), abs=1e-12)
    with pytest.raises(IndexError):
        series.value(0)
    with pytest.raises(IndexError):
        series.value(26)


def test_main_term_is_real_on_wide_grid():
    # evaluate() raises ArithmeticError whenever the imaginary part survives.
    for M in range(1, 13):
        for m in range(1, M + 1):
            for n in range(1, 501):
                main_term(m, M, n)


def test_progression_sum_collapses_to_full_interval():
    for M in range(2, 11):
        for n in range(1, 200):
            if math.gcd(n, M) > 1:
                continue
            total = sum(main_term(m, M, n) for m in range(1, M + 1))
            assert abs(total - main_term(1, 1, n)) < 1e-6, (M, n)


def test_leading_coefficient_product_formula():
    # phi(M) * prefactor(M) * a(triv, 1) equals an explicit local product.
    for M in range(1, 37):
        for m in range(1, M + 1):
            lhs = euler_phi(M) * float(prefactor(M)) * coeff_a(TRIV, 1, m, M).real
            rhs = 2.0
            for p, _ in factorize(M):
                d = 1 if m % p else 0
                rhs *= (p * p - p - d) / (p * p - 1)
            assert abs(lhs - rhs) < 1e-9, (m, M)


def test_residual_growth_stays_cusp_like():
    # A weight-3/2 cusp form has coefficients O(n^(1/2 + eps)); the observed
    # ratio |residual| / (sigma0(n) sqrt(n)) on 200 < n <= 2000 must not blow
    # past twice the ratio seen on n <= 200.
    for M in range(1, 9):
        for m in range(1, M + 1):
            series = residual_series(m, M, 2000)
            ratios = [
                abs(series.value(n)) / (len(divisors(n)) * math.sqrt(n))
                for n in range(1, 2001)
            ]
            head = max(ratios[:200])
            if head < 1e-9:
                assert max(ratios) < 1e-9, (m, M)
            else:
                assert max(ratios) <= 2 * head, (m, M)


def test_S_set_examples():
    assert S_set(1, 1) == (TRIV,)
    assert S_set(1, 2) == (TRIV,)
    assert set(S_set(1, 3)) == {TRIV, CHI_M3}
    assert set(S_set(2, 3)) == {TRIV, CHI_M3}
    assert set(S_set(2, 5)) == {TRIV, *primitive_chars(5)}
    # All four characters of conductor dividing 5 participate for 1 mod 5,
    # including the pair of order four.
    s15 = S_set(1, 5)
    assert len(s15) == 4
    assert sum(1 for c in s15 if char_order(c) == 4) == 2


def test_expansion_structure():
    ex = build_expansion(2, 4)
    pairs = {(eta.modulus, d) for eta, d, _ in ex.terms}
    assert (1, 1) in pairs and (1, 16) in pairs and (4, 1) in pairs
    assert ex.prefactor == Fraction(2, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        Config(eta0_reading="bogus")
    with pytest.raises(ValueError):
        Config(phi_reading="bogus")


def test_phi_reading_is_immaterial():
    # The star character keeps the conductor of the non-quadratic part, so
    # both normalizations produce the same expansion.
    alt = Config(phi_reading="eta_star")
    for m, M in [(1, 3), (2, 4), (1, 5), (3, 8), (1, 12)]:
        for n in (1, 7, 30):
            assert main_term(m, M, n, alt) == pytest.approx(
                main_term(m, M, n), abs=1e-12
            )


def test_residual_is_exactly_moment_plus_lambda_minus_main():
    for m, M, n in [(1, 3, 10), (2, 5, 17), (1, 7, 30)]:
        exact = float(moment_H(0, m, M, n) + lambda_moment(0, m, M, n))
        assert cusp_residual_0(m, M, n) == pytest.approx(
            exact - main_term(m, M, n), abs=1e-12
        )
