"""Tests for the zeroth-moment main-term expansion and its cusp residual."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from hurwitzbias import eisenstein
from hurwitzbias.arith import divisors, euler_phi, factorize, ord_p
from hurwitzbias.characters import (
    char_eval,
    char_values,
    enumerate_chars,
    primitive_chars,
    root_values,
)
from hurwitzbias.eisenstein import (
    MainTermExpansion,
    S_set,
    build_expansion,
    coeff_a,
    leading_coefficients,
    cusp_residual_0,
    in_S,
    main_term,
    phi2,
    prefactor,
    psi,
    reduce_residue,
    residual_rows,
    sigma_twisted,
)
from hurwitzbias.hurwitz import lambda_moment, moment_H
from test_characters import char_order, exponent_table

TRIV = enumerate_chars(1)[0]
CHI_M3 = primitive_chars(3)[0]
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


def psi_termwise(d, m, p, M):
    """psi with every branch written as the sum of its terms."""
    d_p, m_p, M_p = (p ** ord_p(x, p) for x in (d, m, M))
    m_p2 = m_p * m_p
    if d_p == m_p2:
        out = Fraction(1)
        if 1 < d_p < M_p * M_p:
            out += Fraction(1, p * p)
        if m_p < M_p:
            out -= Fraction(1, p * p - p)
        return out
    if d_p == p * m_p2:
        return -1 + Fraction(p * p + 1, p * p - p)
    if d_p == p * p * m_p2:
        return 1 - Fraction(p * p, p * p - p)
    if d_p < m_p2:
        if math.isqrt(d_p) ** 2 == d_p:
            return 1 + (Fraction(1, p * p) if 1 < d_p < M_p * M_p else 0)
        return -1 - Fraction(1, p)
    return None


def test_psi_matches_termwise_form():
    seen = 0
    for M in range(2, 41):
        for m in range(1, M + 1):
            for d in divisors(4 * M * M):
                for p, _ in factorize(M):
                    want = psi_termwise(d, m, p, M)
                    if want is None:
                        with pytest.raises(ValueError):
                            psi(d, m, p, M)
                    else:
                        assert psi(d, m, p, M) == want, (d, m, p, M)
                        seen += 1
    assert seen > 10_000


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
    (chi8,) = [c for c in primitive_chars(8) if char_eval(c, -1) == 0]
    assert phi2(chi8) == 1
    assert abs(phi2(CHI_M4) - (-1j)) < 1e-15


def test_chi8_is_read_from_values():
    # _is_chi8 reads eta's 2-part through char_eval; on every primitive
    # character with 8 | N <= 240 it agrees with the exponent tuple of the
    # generators -1 and 5 mod 8 that local_unit_group fixes today
    count = 0
    for N in range(8, 241, 8):
        for eta in primitive_chars(N):
            assert eisenstein._is_chi8(eta) == (eta.locals[0] == (2, 3, (0, 1))), eta
            count += eisenstein._is_chi8(eta)
    assert count > 0


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
        worst = max(abs(row[-1]) for row in residual_rows(m, M, 200))
        assert worst < 1e-8, (m, M, worst)


def test_residual_nonzero_elsewhere():
    for m, M in [(1, 6), (1, 7), (3, 8), (1, 9)]:
        assert max(abs(row[-1]) for row in residual_rows(m, M, 100)) > 1e-3, (m, M)


def _rows_match_pointwise(m, M, rows):
    for n, moment, lam, main, residual in rows:
        assert type(moment) is type(lam) is Fraction, n
        assert type(main) is type(residual) is float, n
        assert moment == moment_H(0, m, M, n), n
        assert lam == lambda_moment(0, m, M, n), n
        assert main.hex() == main_term(m, M, n).hex(), n
        assert residual.hex() == cusp_residual_0(m, M, n).hex(), n


def test_residual_series_matches_pointwise():
    # the rows from n = 1 and on both sides of the first block boundary,
    # each against the single-n routes, bit for bit
    block = eisenstein._ROW_BLOCK
    rows = list(residual_rows(3, 7, block + 25))
    assert [row[0] for row in rows] == list(range(1, block + 26))
    _rows_match_pointwise(3, 7, rows[:25] + rows[block - 25 :])


def test_residual_series_across_many_blocks(monkeypatch):
    # blocks of 7 rows: every boundary, and a last block cut short
    monkeypatch.setattr(eisenstein, "_ROW_BLOCK", 7)
    for m, M in ((1, 1), (2, 4), (3, 7), (5, 12), (9, 9)):
        rows = list(residual_rows(m, M, 60))
        assert [row[0] for row in rows] == list(range(1, 61))
        _rows_match_pointwise(m, M, rows)


def test_residual_rows_leave_the_moment_caches_alone():
    # the rows read whole columns, never moment_H or lambda_moment: no call,
    # so no entry, hit or miss
    before = moment_H.cache_info(), lambda_moment.cache_info()
    for _ in residual_rows(2, 9, 500):
        pass
    assert (moment_H.cache_info(), lambda_moment.cache_info()) == before


def test_residual_rows_rejects_a_bad_class_when_called():
    # each raises at the call, before any row is read: M past the character
    # cap, M < 1 and m = 0
    for m, M in ((1, 10007), (1, 0), (0, 5)):
        with pytest.raises(ValueError):
            residual_rows(m, M, 5)


def _eta6_fourth(n_max):
    """a_n for n <= n_max of eta(6z)^4 = q * prod_k (1 - q^(6k))^4, by integer
    power-series multiplication; index 0 holds 0."""
    series = [1] + [0] * (n_max - 1)  # prod_k (1 - q^(6k))^4 below q^n_max
    for step in range(6, n_max, 6):
        for _ in range(4):
            for i in range(n_max - 1, step - 1, -1):
                series[i] -= series[i - step]
    return [0] + series


# The residual of the class m (mod 6) is c_m * eta(6z)^4, the weight-2 cusp
# form of level 36.  The constants are observed, not derived: they fit every
# n <= 200 to about 6e-14.
ETA6_CONSTANTS = {1: 1 / 12, 2: -1 / 12, 3: -1 / 6, 4: -1 / 12, 5: 1 / 12, 6: 1 / 6}


def test_residual_mod_6_is_a_multiple_of_eta_6z_fourth():
    a = _eta6_fourth(200)
    for m, c in ETA6_CONSTANTS.items():
        for n, *_, residual in residual_rows(m, 6, 200):
            assert abs(residual - c * a[n]) < 1e-9, (m, n)


def _e49_coefficients(n_max):
    """a_n for n <= n_max of the newform of E49: y^2 + xy = x^3 - x^2 - 2x - 1,
    conductor 49, CM by Q(sqrt(-7)).  a_p = p - #affine points mod p at
    p != 7, a_(7^k) = 0, then the Hecke recursion at prime powers and
    multiplicativity; index 0 holds 0."""
    a = [0, 1] + [None] * (n_max - 1)
    for p in range(2, n_max + 1):
        if a[p] is not None:
            continue  # composite: filled from its prime-power parts below
        if p == 7:
            ap = 0
        else:
            ap = p - sum(1 for x in range(p) for y in range(p)
                         if (y * y + x * y - (x**3 - x * x - 2 * x - 1)) % p == 0)
        prev, cur, q = 1, ap, p
        while q <= n_max:
            for r in range(1, n_max // q + 1):
                if r % p and a[r] is not None and a[q * r] is None:
                    a[q * r] = a[r] * cur
            prev, cur, q = cur, (ap * cur - p * prev if p != 7 else 0), q * p
    return a


def test_residual_mod_7_is_a_multiple_of_e49():
    # The residual of the class m (mod 7) is c * a_n(E49), with c observed,
    # not derived: c = 1/4 when 7 | m; for a unit m, c reads x = n / m^2
    # mod 7 and is 0, 1/8 or -1/4 at x = 1, 2 or 4, while a_n = 0 at the
    # non-squares x = 3, 5, 6 and whenever 7 | n.  The fit holds for every
    # n <= 300 to about 1e-13.
    a = _e49_coefficients(300)
    # q + q^2 - q^4 - 3q^8 - 3q^9 + 4q^11 + ..., as Cremona's tables give 49a
    assert a[1:12] == [1, 1, 0, -1, 0, 0, 0, -3, -3, 0, 4]
    c_at = {1: 0.0, 2: 1 / 8, 4: -1 / 4}
    for m in range(1, 8):
        for n, *_, residual in residual_rows(m, 7, 300):
            if m == 7:
                c = 1 / 4
            elif n % 7 == 0:
                assert a[n] == 0
                c = 0.0
            else:
                x = n * pow(m, -2, 7) % 7
                if x not in c_at:
                    assert a[n] == 0, n
                c = c_at.get(x, 0.0)
            assert abs(residual - c * a[n]) < 1e-9, (m, n)


def test_main_term_is_real_on_wide_grid():
    # evaluate() raises ArithmeticError whenever the imaginary part survives.
    # Other readings of the eps factor went non-real from M = 3 and M = 7 on;
    # the one kept stays real on every class up to M = 24.
    for moduli, n_max in ((range(1, 13), 500), (range(13, 25), 200)):
        for M in moduli:
            for m in range(1, M + 1):
                for n in range(1, n_max + 1):
                    main_term(m, M, n)


def test_main_term_stays_real_at_large_n(monkeypatch):
    # The rounding left in the imaginary part grows with the value: here it
    # is 1.2e-9, above an absolute 1e-9 but only 6.4e-17 of the main term.
    assert main_term(1, 3, 10**7) == 18676710
    # moment_H(0, 1, 3, 10^7) as the 4*10^7 class-number sieve gives it; the
    # sieve takes about 45 s and 450 MB on a 2-core machine, so it is pinned.
    pinned = {(0, 1, 3, 10**7): Fraction(18660630)}
    monkeypatch.setattr(eisenstein, "moment_H", lambda *args: pinned[args])
    assert cusp_residual_0(1, 3, 10**7) == 0.0  # (1, 3) is a zero class


def test_non_real_main_term_raises_at_every_size():
    skew = MainTermExpansion(Fraction(1), ((TRIV, 1, 1 + 1e-6j),))
    for n in (1, 10**7):
        with pytest.raises(ArithmeticError, match="off the real axis"):
            skew.evaluate(n)


def test_evaluate_rejects_n_below_one():
    for n in (0, -4):
        with pytest.raises(ValueError, match="n >= 1"):
            build_expansion(1, 3).evaluate(n)


@lru_cache(maxsize=None)
def sigma_ascending(eta, q):
    """Sum of x * eta(x) * eta(q/x) over the divisors x of q, smallest first."""
    L, e = exponent_table(eta)
    roots = root_values(L)
    total = 0j
    for x in divisors(q):
        a, b = e[q // x % eta.modulus], e[x % eta.modulus]
        if a >= 0 and b >= 0:
            total += roots[(a + b) % L] * x
    return total


def evaluate_per_term(ex, n):
    """The expansion summed term by term, each with its own divisor list of n/d."""
    total = 0j
    for eta, d, coeff in ex.terms:
        if n % d == 0:
            total += coeff * sigma_ascending(eta, n // d)
    total *= float(ex.prefactor)
    return total.real


# highly composite, prime powers of 2 and 3, and a prime
LARGE_N = (55440, 65536, 59049, 720720, 999983)


def test_evaluate_is_bit_identical_to_the_per_term_sum():
    # evaluate shares one divisor list of n between the terms; the float sum
    # must not move, since CSV bytes and benchmark digests hash its %.12g.
    ns = (*range(1, 301), *LARGE_N)
    etas = set()
    for M in range(1, 25):
        for m in range(1, M + 1):
            ex = build_expansion(m, M)
            etas.update(eta for eta, _, _ in ex.terms)
            for n in ns:
                want = evaluate_per_term(ex, n)
                assert main_term(m, M, n).hex() == want.hex(), (m, M, n)
    for eta in etas:
        for n in ns:
            got, want = sigma_twisted(eta, n), sigma_ascending(eta, n)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (eta, n)


def test_sigma_twisted_matches_the_per_divisor_sum_for_every_small_conductor():
    # the twisted sum reads eta(q) once; the two-lookup loop must agree bit
    # for bit, and every sum with gcd(q, N_eta) > 1 is exactly 0j
    for N in range(1, 61):
        for eta in primitive_chars(N):
            for n in range(1, 301):
                got, want = sigma_twisted(eta, n), sigma_ascending.__wrapped__(eta, n)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (eta, n)
                if math.gcd(n, N) > 1:
                    assert got == 0j, (eta, n)


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
    # A weight-2 cusp form has coefficients O(n^(1/2 + eps)); the observed
    # ratio |residual| / (sigma0(n) sqrt(n)) on 200 < n <= 2000 must not blow
    # past twice the ratio seen on n <= 200.
    for M in range(1, 9):
        for m in range(1, M + 1):
            ratios = [
                abs(residual) / (len(divisors(n)) * math.sqrt(n))
                for n, *_, residual in residual_rows(m, M, 2000)
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


def test_d1_terms_match_the_walk_over_characters():
    # S_set and leading_coefficients read build_expansion's d = 1 terms; the
    # reference is the walk over divisors(M) x primitive_chars filtered by
    # in_S, with coeff_a called here: the same etas in the same order, and
    # the same weights bit for bit
    for M in range(1, 37):
        pref = float(prefactor(M))
        for m in range(1, M + 1):
            walk = [eta for N in divisors(M) for eta in primitive_chars(N)
                    if in_S(eta, m, M, 1)]
            assert S_set(m, M) == tuple(walk), (m, M)
            leading = leading_coefficients(m, M)
            assert len(leading) == len(walk), (m, M)
            for eta, (values, weight) in zip(walk, leading):
                assert values is char_values(eta), (m, M, eta)
                want = pref * coeff_a(eta, 1, m, M)
                assert (weight.real.hex(), weight.imag.hex()) == \
                    (want.real.hex(), want.imag.hex()), (m, M, eta)


def test_expansion_structure():
    ex = build_expansion(2, 4)
    pairs = {(eta.modulus, d) for eta, d, _ in ex.terms}
    assert (1, 1) in pairs and (1, 16) in pairs and (4, 1) in pairs
    assert ex.prefactor == Fraction(2, 3)


def test_residual_is_exactly_moment_plus_lambda_minus_main():
    for m, M, n in [(1, 3, 10), (2, 5, 17), (1, 7, 30)]:
        exact = float(moment_H(0, m, M, n) + lambda_moment(0, m, M, n))
        assert cusp_residual_0(m, M, n) == pytest.approx(
            exact - main_term(m, M, n), abs=1e-12
        )
