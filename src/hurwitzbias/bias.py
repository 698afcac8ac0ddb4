"""Residue-class averages behind the trace-moment biases.

The two averages studied here are the prime-averaged coefficients of the
subleading blocks of twice the second trace moment, over F_p and over
F_{p^2}.  Both collapse to finite sums over residues x coprime to M; the
closed forms and the character-sum routes are kept strictly separate so
they can check each other.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .arith import euler_phi, factorize, odd_part, primes_upto
from .characters import char_order
from .eisenstein import (
    Config,
    DEFAULT_CONFIG,
    S_set,
    coeff_a,
    leading_coefficients,
    prefactor,
)
from .hurwitz import moment_H

_IM_TOL = 1e-9


def delta_star(x: int, m: int, M: int) -> int:
    """Indicator weight of the divisor pair (1, x) in the class m (mod M)."""
    if math.gcd(x, M) != 1:
        raise ValueError("x must be a unit mod M")
    return int((x + 1 - m) % M == 0) + int((x + 1 + m) % M == 0)


def delta_star_sq(x: int, m: int, M: int) -> int:
    """Indicator weight of the square divisor pair (x, x), trace 2x."""
    if math.gcd(x, M) != 1:
        raise ValueError("x must be a unit mod M")
    return int((2 * x - m) % M == 0) + int((2 * x + m) % M == 0)


def leading_sum(
    m: int, M: int, x: int, power: int = 1, cfg: Config = DEFAULT_CONFIG
) -> float:
    """Real part of the leading-coefficient average at residue x.

    Sums prefactor * coeff_a(eta, 1) * eta(x)^power over the participating
    characters; the imaginary parts must cancel.
    """
    from .characters import char_eval

    total = 0j
    for eta, coeff in leading_coefficients(m, M, cfg):
        total += coeff * char_eval(eta, x).value ** power
    if abs(total.imag) >= _IM_TOL:
        raise ArithmeticError(f"residue average strayed off the real axis: {total!r}")
    return total.real


def _a1_ratios(M: int, ms: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """The closed form of A1(m, M) for each m in ms, as (m, num, den).

    num/den is unreduced with den > 0, so the sign of A1 is the sign of num:
    A1 = (2 * prod (p^2 - p - [p !| m]) - d * prod (p^2 - 1))
         / (2 * phi(M) * prod (p^2 - 1)), over the primes p | M,
    where d counts which of m - 1, m + 1 are units mod M.
    """
    primes = [p for p, _ in factorize(M)]
    full = 1
    phi = M
    for p in primes:
        full *= p * p - 1
        phi = phi // p * (p - 1)
    den = 2 * phi * full
    for m in ms:
        lead = 2
        for p in primes:
            lead *= p * p - p - (1 if m % p else 0)
        d = (math.gcd(m - 1, M) == 1) + (math.gcd(m + 1, M) == 1)
        yield m, lead - d * full, den


@lru_cache(maxsize=1 << 16)
def A1_closed(m: int, M: int) -> Fraction:
    """Closed form of the F_p bias average, exact."""
    if M < 1:
        raise ValueError("M must be >= 1")
    ((_, num, den),) = _a1_ratios(M, (m,))
    return Fraction(num, den)


def A1_chars(m: int, M: int, cfg: Config = DEFAULT_CONFIG) -> float:
    """The F_p bias average straight from its residue-sum definition."""
    if M < 1:
        raise ValueError("M must be >= 1")
    total = 0.0
    for x in range(1, M + 1):
        if math.gcd(x, M) != 1:
            continue
        total += leading_sum(m, M, x, 1, cfg) - delta_star(x, m, M)
    return total / (2 * euler_phi(M))


def _unit_halvings(m: int, M: int) -> int:
    """Number of units x mod M with 2x = m (mod M)."""
    m = m % M
    if M % 2 == 1:
        return 1 if math.gcd(m, M) == 1 else 0
    if m % 2 == 1:
        return 0
    half = m // 2
    return sum(1 for x in (half, half + M // 2) if math.gcd(x, M) == 1)


def epsilon_mM(m: int, M: int) -> Fraction:
    """Constant block of the F_{p^2} bias average.

    Derived by resolving the two indicator sums against the t = +-1, +-2
    boundary moments: -(2/3) * (2 * #{units x: 2x = m} + [gcd(m, M) = 1]).
    """
    return Fraction(-2, 3) * (
        2 * _unit_halvings(m, M) + (1 if math.gcd(m, M) == 1 else 0)
    )


def A2_closed(m: int, M: int, cfg: Config = DEFAULT_CONFIG) -> float:
    """Closed form of the F_{p^2} bias average.

    Orthogonality kills every non-real character in the residue average, so
    the first block is phi(M) * prefactor * sum of the real-character
    leading coefficients.
    """
    if M < 3:
        raise ValueError("M must be >= 3")
    total = 0j
    for eta in S_set(m, M):
        if char_order(eta) <= 2:
            total += coeff_a(eta, 1, m, M, cfg)
    if abs(total.imag) >= _IM_TOL:
        raise ArithmeticError(f"real-character block came out complex: {total!r}")
    first = euler_phi(M) * float(prefactor(M)) * total.real
    return (first + float(epsilon_mM(m, M))) / (2 * euler_phi(M))


def A2_chars(m: int, M: int, cfg: Config = DEFAULT_CONFIG) -> float:
    """The F_{p^2} bias average from its residue-sum definition.

    The boundary moment is always computed from the definition; short
    tables of its values are ambiguous when M <= 4 because the classes
    of +-1 and +-2 collide.
    """
    if M < 3:
        raise ValueError("M must be >= 3")
    total = 0.0
    for x in range(1, M + 1):
        if math.gcd(x, M) != 1:
            continue
        xbar = pow(x, -1, M)
        total += leading_sum(m, M, x, 2, cfg)
        total -= delta_star_sq(x, m, M)
        total -= float(moment_H(2, (xbar * m) % M, M, 1))
    return total / (2 * euler_phi(M))


@dataclass(frozen=True)
class SignPrediction:
    quantity: str
    rule: str
    sign: int


def sign_rules(m: int, M: int) -> tuple[SignPrediction, ...]:
    """Predicted signs from the proved classification rules covering (m, M)."""
    out = []
    if M == 1:
        out.append(SignPrediction("A1", "full interval is unbiased", 0))
    fac = tuple(factorize(M)) if M > 1 else ()
    if M > 1 and M % 2 == 1 and len(fac) == 1:
        p = fac[0][0]
        positive = m % p in (1, p - 1)
        out.append(
            SignPrediction("A1", "odd prime power modulus", 1 if positive else -1)
        )
    if M % 6 == 0:
        negative = math.gcd(m - 1, M) == 1 or math.gcd(m + 1, M) == 1
        out.append(
            SignPrediction("A1", "modulus divisible by six", -1 if negative else 1)
        )
    if M >= 3 and M % 4 != 0:
        negative = math.gcd(m, odd_part(M)) == 1
        out.append(
            SignPrediction("A2", "odd-part coprimality", -1 if negative else 1)
        )
    return tuple(out)


@dataclass(frozen=True)
class BiasResult:
    quantity: str
    m: int
    M: int
    value: Fraction | float
    predicted_sign: int | None


def bias_result(
    quantity: str, m: int, M: int, route: str = "closed", cfg: Config = DEFAULT_CONFIG
) -> BiasResult:
    if quantity not in ("a1", "a2"):
        raise ValueError("quantity must be 'a1' or 'a2'")
    if route not in ("closed", "chars"):
        raise ValueError("route must be 'closed' or 'chars'")
    if quantity == "a1":
        value = A1_closed(m, M) if route == "closed" else A1_chars(m, M, cfg)
    else:
        value = A2_closed(m, M, cfg) if route == "closed" else A2_chars(m, M, cfg)
    wanted = "A1" if quantity == "a1" else "A2"
    predicted = next((s.sign for s in sign_rules(m, M) if s.quantity == wanted), None)
    return BiasResult(quantity=quantity, m=m, M=M, value=value, predicted_sign=predicted)


@dataclass(frozen=True)
class DensityReport:
    X: int
    positive: int
    zero: int
    negative: int

    @property
    def pairs(self) -> int:
        return self.positive + self.zero + self.negative

    @property
    def positive_fraction(self) -> float:
        return self.positive / self.pairs

    @property
    def negative_fraction(self) -> float:
        return self.negative / self.pairs

    @property
    def zero_fraction(self) -> float:
        return self.zero / self.pairs


def a1_census(X: int) -> Iterator[tuple[int, Iterator[tuple[int, int, int]]]]:
    """The closed form of A1 over all 1 <= m <= M <= X, one modulus at a time:
    (M, the (m, num, den) of every m in 1..M), as _a1_ratios gives them."""
    if not 1 <= X <= 5000:
        raise ValueError("X must lie in 1..5000")
    return ((M, _a1_ratios(M, range(1, M + 1))) for M in range(1, X + 1))


def density_scan(X: int) -> DensityReport:
    """Sign counts of the closed-form F_p bias over all 1 <= m <= M <= X."""
    positive = zero = negative = 0
    for _, ratios in a1_census(X):
        for _, num, _ in ratios:
            if num > 0:
                positive += 1
            elif num < 0:
                negative += 1
            else:
                zero += 1
    return DensityReport(X=X, positive=positive, zero=zero, negative=negative)


def empirical_A1(m: int, M: int, X: int, cfg: Config = DEFAULT_CONFIG) -> float:
    """Average of the exact subleading coefficient over actual primes <= X."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if X < 2:
        raise ValueError("X must be >= 2")
    summand = {}
    for x in range(1, M + 1):
        if math.gcd(x, M) == 1:
            summand[x % M] = (leading_sum(m, M, x, 1, cfg) - delta_star(x, m, M)) / 2
    total = 0.0
    count = 0
    for p in primes_upto(X):
        if math.gcd(p, M) != 1:
            continue
        total += summand[p % M]
        count += 1
    return total / count
