"""Main term of the zeroth class-number moment as a twisted divisor-sum
expansion, and extraction of the cusp component as a residual.

The expansion runs over primitive characters with conductor dividing the
progression modulus and over an admissibility set of auxiliary divisors;
each term carries an explicitly computable complex coefficient. The eps
factors read the odd part of eta's own conductor; the Euler phi reads the
non-quadratic part's, which the star character shares (see
characters.star_char).

A main term at n is evaluated from one divisor list of n: every term (eta,
d) with d | n sums over the divisors of n that divide n/d, through the one
twisted-sum loop that sigma_twisted uses too. Each eta's values come from
characters.char_values, the one reader of a character's complex values,
and are read once per expansion, when it is first evaluated.
The expansion is the one source of coefficients: S_set and the bias
weights of leading_coefficients are its d = 1 terms.
A Dirichlet character is completely multiplicative, so eta(x) * eta(q/x) =
eta(q) for every x | q: a twisted sum reads eta(q) once, and is exactly 0j
when gcd(q, N_eta) > 1, since then every term vanishes.
The sums still add eta(q) * x over the divisors in ascending order, and the
terms in build order, so every main term keeps its bits; residual CSVs print
them as %.12g, and the float noise of a zero-class residual shows in its
last digits. The closed form eta(q) * sigma(q) would round differently.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .arith import (
    divisors,
    euler_phi,
    factorize,
    is_square,
    odd_part,
    p_part,
    squarefree_part,
)
from .characters import (
    DirichletCharacter,
    char_eval,
    char_values,
    eps,
    gauss_sum,
    primitive_chars,
    quad_decomp,
    root,
    star_char,
)
from .hurwitz import lambda2_column, lambda_moment, moment12_column, moment_H

IM_TOL = 1e-9


def reduce_residue(m: int, M: int) -> int:
    """Representative of m in 1..M; the class of 0 is represented by M itself."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if m == 0:
        raise ValueError("the residue m = 0 is excluded")
    return m % M or M


def prefactor(M: int) -> Fraction:
    """2*zeta(2)/(M*L(2, principal mod M)) collapsed to a rational."""
    out = Fraction(2, M)
    for p, _ in factorize(M):
        out /= 1 - Fraction(1, p * p)
    return out


def in_S(eta: DirichletCharacter, m: int, M: int, d: int) -> bool:
    """Admissibility of the auxiliary divisor d for character eta and class m.

    Checks the three local conditions (split by whether p divides the
    quadratic or the non-quadratic part of the conductor) at every p | M.
    """
    m = reduce_residue(m, M)
    n_eta = eta.modulus
    if M % n_eta:
        raise ValueError("conductor must divide the progression modulus")
    big = (M // n_eta) ** 2
    if d < 1 or big % d:
        raise ValueError("d must divide M^2 / N_eta^2")
    hat, _ = quad_decomp(eta)
    for p, _ in factorize(M):
        d_p = p_part(d, p)
        m_p2 = p_part(m, p) ** 2
        if n_eta % p:
            if (p * p * m_p2) % d_p:
                return False
        elif hat.modulus % p == 0:
            n_p = p_part(n_eta, p)
            if (p * p * m_p2) % (d_p * n_p * n_p) or not is_square(d_p):
                return False
        else:
            four_p = p_part(4, p)
            if four_p * d_p != m_p2:
                return False
    return True


def psi(d: int, m: int, p: int, M: int) -> Fraction:
    """Local Euler-type factor at a prime p | M away from the conductor."""
    d_p = p_part(d, p)
    m_p = p_part(m, p)
    M_p = p_part(M, p)
    m_p2 = m_p * m_p
    pp = p * p
    # Each branch is one exact Fraction; the comments give the unsimplified form.
    if d_p == m_p2:
        # 1 + [1 < d_p < M_p^2] / p^2 - [m_p < M_p] / (p^2 - p)
        num = den = pp * (p - 1)
        if 1 < d_p < M_p * M_p:
            num += p - 1
        if m_p < M_p:
            num -= p
        return Fraction(num, den)
    if d_p == p * m_p2:
        return Fraction(p + 1, pp - p)  # -1 + (p^2 + 1) / (p^2 - p)
    if d_p == pp * m_p2:
        return Fraction(-1, p - 1)  # 1 - p^2 / (p^2 - p)
    if d_p < m_p2:
        if is_square(d_p):
            # 1 + [1 < d_p < M_p^2] / p^2
            return Fraction(pp + 1, pp) if 1 < d_p < M_p * M_p else Fraction(1)
        # The non-square branch needs -1 - 1/p: pinned empirically by the
        # exact vanishing of the cusp residual for every class with M <= 5,
        # across p in {2, 3, 5} and several divisor depths.
        return Fraction(-p - 1, p)
    raise ValueError("local divisor outside the admissible range")


def _is_chi8(eta: DirichletCharacter) -> bool:
    """Whether eta's component at 2 is chi8, read from its values: modulus 8,
    eta_2(-1) = 1 and eta_2(5) = -1."""
    if p_part(eta.modulus, 2) != 8:
        return False
    eta2 = DirichletCharacter(8, eta.locals[:1])  # locals are sorted by p
    return char_eval(eta2, -1) == 0 and char_eval(eta2, 5) == Fraction(1, 2)


def phi2(eta: DirichletCharacter) -> complex:
    """Correction factor at the prime 2, split by where 2 sits in the conductor."""
    hat, tilde = quad_decomp(eta)
    # the primes of eta are sorted, so an even conductor puts 2 at locals[0]
    if hat.modulus % 2 == 0:
        if _is_chi8(eta):
            return 1 + 0j
        return -1j * root(2 * eps(odd_part(eta.modulus)))
    if tilde.modulus % 2 == 0:
        n2 = p_part(eta.modulus, 2)
        eta2 = DirichletCharacter(n2, eta.locals[:1])
        return 1 + root(char_eval(eta2, 1 + n2 // 4))
    return 1 + 0j


@lru_cache(maxsize=1 << 12)
def _char_factors(eta: DirichletCharacter) -> tuple:
    """The factors of coeff_a that depend on eta alone, in the order it uses them.

    Each of eta, tilde and hat comes as its char_values.
    """
    hat, tilde = quad_decomp(eta)
    star = star_char(eta)
    phi_n = euler_phi(tilde.modulus)
    return (
        char_values(eta),
        char_values(tilde),
        char_values(hat),
        root(3 * eps(odd_part(eta.modulus))),
        root(char_eval(star, hat.modulus)),
        phi2(eta),
        gauss_sum(star),
        phi_n,
        gauss_sum(eta),
        math.sqrt(eta.modulus),
    )


def coeff_a(eta: DirichletCharacter, d: int, m: int, M: int) -> complex:
    """Coefficient of sigma_twisted(eta, n/d) in the main-term expansion
    (without the global rational prefactor)."""
    m = reduce_residue(m, M)
    (
        v_eta, v_tilde, v_hat,
        eps3, star_at_hat, phi2_eta, g_star, phi_n, g_eta, sqrt_n,
    ) = _char_factors(eta)
    n_eta, n_hat = len(v_eta), len(v_hat)
    g = math.gcd(4 * d, m * m)

    num = eps3
    num *= v_eta[4 * d // g % n_eta]
    num *= star_at_hat
    num *= phi2_eta
    num *= g_star

    at_tilde = v_tilde[m * m // g % len(v_tilde)]
    at_hat = v_hat[squarefree_part(m * m // g) % n_hat]
    if not (at_tilde and at_hat):
        raise ValueError("denominator character vanished; d is not admissible")
    den = at_tilde * at_hat * phi_n * g_eta

    sq = squarefree_part(d)
    scale = math.isqrt(d // sq) / sqrt_n

    local = Fraction(1)
    for p, _ in factorize(M):
        if n_eta % p:
            local *= psi(d, m, p, M)
    for p, _ in factorize(n_hat):
        n_p = p_part(n_eta, p)
        if p_part(d, p) * n_p * n_p == p * p * p_part(m, p) ** 2:
            local *= Fraction(1, 1 - p)

    return num / den * scale * float(local)


def _twisted_sum(values: tuple[complex, ...], q: int, divs: list[int]) -> complex:
    """Sum of x * eta(x) * eta(q/x) over the divisors x of q, given in
    ascending order as divs, with eta given as its char_values.

    eta is completely multiplicative, so eta(x) * eta(q/x) = eta(q) for
    every x | q: the root is read once. If gcd(q, N_eta) > 1 a prime of
    N_eta divides x or q/x for every x, every term is 0 and the sum is 0j.
    Otherwise it is eta(q) * x added smallest x first. The sum is not
    eta(q) * sigma(q): that product, like another order, would move the
    last bits of the sum.
    """
    root_q = values[q % len(values)]
    if not root_q:
        return 0j
    total = 0j
    for x in divs:
        total += root_q * x
    return total


@lru_cache(maxsize=1 << 16)
def _sigma_twisted_cached(eta: DirichletCharacter, n: int) -> complex:
    return _twisted_sum(char_values(eta), n, divisors(n))


def sigma_twisted(eta: DirichletCharacter, n: int) -> complex:
    """Divisor sum of d * eta(d) * eta(n/d) over d | n, in ascending order of d."""
    if n < 1:
        raise ValueError("sigma_twisted requires n >= 1")
    return _sigma_twisted_cached(eta, n)


@dataclass(frozen=True)
class MainTermExpansion:
    """Immutable expansion of the zeroth-moment main term for one class m (M).

    Each term (eta, d, coeff) stands for coeff * sigma_twisted(eta, n/d) at
    d | n. Each eta's char_values are read once, at the first evaluation.
    """

    prefactor: Fraction
    terms: tuple[tuple[DirichletCharacter, int, complex], ...]

    @cached_property
    def _kernels(self) -> tuple:
        return tuple((char_values(eta), d, coeff) for eta, d, coeff in self.terms)

    @cached_property
    def _scale(self) -> float:
        return float(self.prefactor)

    def evaluate(self, n: int) -> float:
        """The main term at n: every term's twisted sum over one divisor list of n.

        The divisors of n/d are the divisors of n that divide n/d, in the same
        ascending order, filtered once for each distinct d | n; so each term
        equals sigma_twisted(eta, n/d) bit for bit. The terms are added in
        build order and scaled once by the prefactor.
        """
        if n < 1:
            raise ValueError("evaluate requires n >= 1")
        divs = divisors(n)
        sub = {1: divs}  # d -> the divisors of n/d
        total = 0j
        for values, d, coeff in self._kernels:
            if n % d == 0:
                q = n // d
                if d not in sub:
                    sub[d] = [x for x in divs if q % x == 0]
                total += coeff * _twisted_sum(values, q, sub[d])
        total *= self._scale
        # the value grows like sigma(n), so the rounding in its imaginary part does too
        if abs(total.imag) >= IM_TOL * max(1.0, abs(total.real)):
            raise ArithmeticError(
                f"main term at n={n} strayed off the real axis: {total!r}"
            )
        return total.real


@lru_cache(maxsize=1 << 12)
def build_expansion(m: int, M: int) -> MainTermExpansion:
    m = reduce_residue(m, M)
    terms = []
    for n_eta in divisors(M):
        quot2 = (M // n_eta) ** 2
        for eta in primitive_chars(n_eta):
            for d in divisors(quot2):
                if in_S(eta, m, M, d):
                    terms.append((eta, d, coeff_a(eta, d, m, M)))
    return MainTermExpansion(prefactor(M), tuple(terms))


def main_term(m: int, M: int, n: int) -> float:
    """Eisenstein part of the zeroth moment at n."""
    if n < 1:
        raise ValueError("main_term requires n >= 1")
    return build_expansion(reduce_residue(m, M), M).evaluate(n)


def cusp_residual_0(m: int, M: int, n: int) -> float:
    """Coefficient of the weight-2 cusp component: moment + divisor sum - main term."""
    return float(moment_H(0, m, M, n) + lambda_moment(0, m, M, n)) - main_term(m, M, n)


# residual_rows computes its moment and divisor-sum columns this many n at a time
_ROW_BLOCK = 1 << 14


def residual_rows(
    m: int, M: int, n_max: int
) -> Iterator[tuple[int, Fraction, Fraction, float, float]]:
    """Rows (n, moment, lambda, main term, residual) for n = 1..n_max; the
    residual is cusp_residual_0 at n.  A bad class raises here, before any
    row: M < 1, m = 0, or an M whose main term passes the character cap.

    The rows are computed as they are read, _ROW_BLOCK at a time: the
    block's 12 moment_H(0) and 2 lambda_moment(0) come as whole columns
    (hurwitz.moment12_column, hurwitz.lambda2_column), which grow the
    class-number table block by block and leave both functions' caches
    alone, and main_term is evaluated at each n.  The residual
    (12 moment + 6 (2 lambda)) / 12 - main is one int true division, which
    rounds correctly, so it has the bits of float(moment + lambda) - main.
    """
    m = reduce_residue(m, M)
    build_expansion(m, M)

    def rows():
        for n0 in range(1, n_max + 1, _ROW_BLOCK):
            n1 = min(n0 + _ROW_BLOCK - 1, n_max)
            moments = moment12_column(m, M, n0, n1).tolist()
            lambdas = lambda2_column(m, M, n0, n1).tolist()
            for n, s, w in zip(range(n0, n1 + 1), moments, lambdas):
                main = main_term(m, M, n)
                yield n, Fraction(s, 12), Fraction(w, 2), main, (s + 6 * w) / 12 - main

    return rows()


@lru_cache(maxsize=1 << 12)
def leading_coefficients(m: int, M: int) -> tuple[tuple[tuple[complex, ...], complex], ...]:
    """The d = 1 terms of build_expansion(m, M) in build order, each as
    (char_values(eta), its coefficient times the prefactor).

    These weights drive the leading term of the expansion at n coprime to M
    and every residue-average built on top of it.
    """
    ex = build_expansion(reduce_residue(m, M), M)
    pref = float(ex.prefactor)
    return tuple((char_values(eta), pref * coeff)
                 for eta, d, coeff in ex.terms if d == 1)


def S_set(m: int, M: int) -> tuple[DirichletCharacter, ...]:
    """Primitive characters admitting the trivial auxiliary divisor d = 1:
    the etas of build_expansion's d = 1 terms, in build order."""
    ex = build_expansion(reduce_residue(m, M), M)
    return tuple(eta for eta, d, _ in ex.terms if d == 1)
