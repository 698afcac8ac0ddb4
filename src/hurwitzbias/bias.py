"""Residue-class averages behind the trace-moment biases.

The two averages studied here are the prime-averaged coefficients of the
subleading blocks of twice the second trace moment, over F_p and over
F_{p^2}.  Both collapse to finite sums over residues x coprime to M; the
closed forms and the character-sum routes are kept strictly separate so
they can check each other.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .arith import euler_phi, factorize, odd_part, ord_p, primes_upto
from .eisenstein import IM_TOL, leading_coefficients, reduce_residue
from .hurwitz import moment_H

# empirical_A1 sieves every integer up to X in memory: about 100 MB of bytes
# and a few hundred MB of prime list at the cap.
_X_CAP = 10**8
# density_scan counts at most 4^omega(M) classes per modulus: about 6 s at the
# cap on a 2-core machine.
_DENSITY_X_CAP = 10**5


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


def leading_sum(m: int, M: int, x: int, power: int = 1) -> float:
    """Real part of the leading-coefficient average at residue x.

    Sums each participating character's leading_coefficients weight times
    eta(x)^power; the imaginary parts must cancel.
    """
    total = 0j
    for values, coeff in leading_coefficients(m, M):
        total += coeff * values[x % len(values)] ** power
    if abs(total.imag) >= IM_TOL:
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
    full = math.prod(p * p - 1 for p in primes)
    den = 2 * euler_phi(M) * full
    for m in ms:
        lead = 2
        for p in primes:
            lead *= p * p - p - (1 if m % p else 0)
        d = (math.gcd(m - 1, M) == 1) + (math.gcd(m + 1, M) == 1)
        yield m, lead - d * full, den


def _class_digits(p: int) -> list[int]:
    """The class of each residue x mod p as a digit: 0 if p | x, 1 if x = 1,
    2 if x = -1, 3 for the other units.  Mod 2 the unit 1 = -1 is digit 1."""
    if p == 2:
        return [0, 1]
    return [0, 1] + [3] * (p - 3) + [2]


@dataclass(frozen=True)
class A1ClassTable:
    """A1(m, M) over m in 1..M, one entry per class vector of m.

    A class vector gives the digit of m mod each prime p | M, the primes in
    increasing order, read as a mixed-radix number with the first prime
    least significant.  Class k holds counts[k] of the m in 1..M, and A1 is
    nums[k] / den on all of them, unreduced as _a1_ratios gives it.
    """

    M: int
    primes: tuple[int, ...]
    den: int
    nums: tuple[int, ...]
    counts: tuple[int, ...]

    def index(self) -> list[int]:
        """The class of each m in 1..M, in order of m."""
        period = self.period()
        return period * (self.M // len(period))

    def period(self) -> list[int]:
        """The class of each m in 1..rad M, in order of m; the class of m
        depends only on m mod rad M, the product of the primes."""
        rad = math.prod(self.primes)
        index = [0]  # M = 1 has no primes and one class
        weight = 1
        for p in self.primes:
            digits = _class_digits(p)
            # the digits of m = 1, 2, ..., p, repeated through m = rad M
            row = [weight * d for d in digits[1:] + digits[:1]] * (rad // p)
            index = row if weight == 1 else list(map(operator.add, index, row))
            weight *= max(digits) + 1
        return index


def a1_class_table(M: int) -> A1ClassTable:
    """The closed form of A1 by class of m mod the primes of M.

    A1's numerator depends on m only through the digits of m mod each
    p | M (see _a1_ratios): p | m sets p's factor of lead, and the digits
    1 and -1 decide whether m - 1 and m + 1 are units.  Digit 3 covers
    p - 3 residues mod p, the others one each, and every residue mod rad M
    appears M / rad M times in 1..M.
    """
    primes = tuple(p for p, _ in factorize(M))
    # one (lead, count, some p has m = 1, some p has m = -1) per class vector
    classes = [(2, M // math.prod(primes), False, False)]
    full = math.prod(p * p - 1 for p in primes)
    for p in primes:
        unit = p * p - p - 1
        # (factor of lead, residues mod p, m = 1, m = -1) for digits 0, 1, 2, 3
        options = [(unit + 1, 1, False, False), (unit, 1, True, p == 2)]
        if p > 2:
            options.append((unit, 1, False, True))
        if p > 3:
            options.append((unit, p - 3, False, False))
        classes = [(lead * f, count * size, plus or is_plus, minus or is_minus)
                   for f, size, is_plus, is_minus in options
                   for lead, count, plus, minus in classes]
    return A1ClassTable(
        M=M,
        primes=primes,
        den=2 * euler_phi(M) * full,
        nums=tuple(lead - ((not plus) + (not minus)) * full
                   for lead, _, plus, minus in classes),
        counts=tuple(count for _, count, _, _ in classes),
    )


@lru_cache(maxsize=1 << 16)
def A1_closed(m: int, M: int) -> Fraction:
    """Closed form of the F_p bias average, exact."""
    ((_, num, den),) = _a1_ratios(M, (reduce_residue(m, M),))
    return Fraction(num, den)


def _a1_summands(m: int, M: int) -> dict[int, float]:
    """The F_p bias at each unit x mod M, keyed by x % M in increasing x:
    half the leading sum less the indicator."""
    return {x % M: (leading_sum(m, M, x, 1) - delta_star(x, m, M)) / 2
            for x in range(1, M + 1) if math.gcd(x, M) == 1}


def A1_chars(m: int, M: int) -> float:
    """The F_p bias average straight from its residue-sum definition.

    Summing eta(x) over the units x mod M cancels every non-principal eta,
    so this route reads only the principal character's leading coefficient:
    it cannot see star_char, phi2 or any non-principal coeff_a.  The checks
    that reach star_char are the main-term values, such as the console-script
    pins `main-term --m 2 --M 32 --n 97` and `main-term --m 5 --M 27 --n 50`.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    total = 0.0
    for value in _a1_summands(m, M).values():
        total += value
    return total / euler_phi(M)


def _epsilon_units(m: int, M: int) -> int:
    """2 * #{units x mod M: 2x = m (mod M)} + [gcd(m, M) = 1]."""
    m %= M
    unit = int(math.gcd(m, M) == 1)
    if M % 2 == 1:
        return 3 * unit  # x = m/2 is a unit exactly when m is
    if m % 2 == 1:
        return unit
    half = m // 2
    return 2 * sum(1 for x in (half, half + M // 2) if math.gcd(x, M) == 1) + unit


def epsilon_mM(m: int, M: int) -> Fraction:
    """Constant block of the F_{p^2} bias average.

    Derived by resolving the two indicator sums against the t = +-1, +-2
    boundary moments: -(2/3) * (2 * #{units x: 2x = m} + [gcd(m, M) = 1]).
    """
    return Fraction(-2, 3) * _epsilon_units(m, M)


def A2_closed(m: int, M: int) -> float:
    """Closed form of the F_{p^2} bias average, exact up to one rounding.

    A2(m, M) = prod_{p^a || M} f_{p^a}(m) + epsilon_mM(m, M) / (2 phi(M)),
    summed as one integer numerator and denominator and divided once, which
    rounds correctly.  For odd p, with c = chi_{-4}(p),
    f_{p^a}(m) * p^(a-1) is (p - 1 - c)/((p - 1)(p - c)) if p !| m and
    1/(p - c) if p | m.  For p = 2 it is 1/3 or 2/3 (m odd or even) at
    a = 1, and 1/6, 5/12 or 1/4 (v_2(m) = 0, 1 or >= 2) over 2^(a-2) at
    a >= 2.

    The factors were fitted to the real-character part of the character sum,
    half the sum of the leading_coefficients weights of the real characters,
    which is multiplicative in M; they are not derived from the paper's
    proof.  The bias-routes verify suite checks them against the character
    sum A2_chars to 1e-12 on every class with 3 <= M <= 60.
    """
    if M < 3:
        raise ValueError("M must be >= 3")
    m = reduce_residue(m, M)
    num = den = 1
    for p, a in factorize(M):
        q = p ** (a - 1)
        if p == 2 and a == 1:
            num *= 2 - m % 2
            den *= 3
        elif p == 2:
            num *= (2, 5, 3)[min(ord_p(m, 2), 2)]
            den *= 6 * q
        else:
            c = 1 if p % 4 == 1 else -1
            num *= p - 1 - c if m % p else p - 1
            den *= (p - 1) * (p - c) * q
    # epsilon_mM / (2 phi) = -units / (3 phi)
    units = _epsilon_units(m, M)
    phi = euler_phi(M)
    return (3 * phi * num - units * den) / (3 * phi * den)


def A2_chars(m: int, M: int) -> float:
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
        total += leading_sum(m, M, x, 2)
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
    fac = factorize(M)
    if M % 2 == 1 and len(fac) == 1:
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
    value: Fraction | float
    predicted_sign: int | None


def bias_result(quantity: str, m: int, M: int, route: str = "closed") -> BiasResult:
    if quantity not in ("a1", "a2"):
        raise ValueError("quantity must be 'a1' or 'a2'")
    if route not in ("closed", "chars"):
        raise ValueError("route must be 'closed' or 'chars'")
    if quantity == "a1":
        value = A1_closed(m, M) if route == "closed" else A1_chars(m, M)
    else:
        value = A2_closed(m, M) if route == "closed" else A2_chars(m, M)
    wanted = "A1" if quantity == "a1" else "A2"
    predicted = next((s.sign for s in sign_rules(m, M) if s.quantity == wanted), None)
    return BiasResult(value=value, predicted_sign=predicted)


@dataclass(frozen=True)
class DensityReport:
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


def density_scan(X: int) -> DensityReport:
    """Sign counts of the closed-form F_p bias over all 1 <= m <= M <= X."""
    if not 1 <= X <= _DENSITY_X_CAP:
        raise ValueError(f"X must lie in 1..{_DENSITY_X_CAP}")
    counts = [0, 0, 0]
    for M in range(1, X + 1):
        table = a1_class_table(M)
        for num, count in zip(table.nums, table.counts):
            counts[(num > 0) - (num < 0) + 1] += count
    return DensityReport(positive=counts[2], zero=counts[1], negative=counts[0])


def empirical_A1(m: int, M: int, X: int) -> float:
    """Average of the exact subleading coefficient over actual primes <= X."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if X < 2:
        raise ValueError("X must be >= 2")
    if X > _X_CAP:
        raise ValueError(f"X = {X} exceeds the prime-sieve cap {_X_CAP}")
    summand = _a1_summands(m, M)
    total = 0.0
    count = 0
    for p in primes_upto(X):
        if math.gcd(p, M) != 1:
            continue
        total += summand[p % M]
        count += 1
    if count == 0:
        raise ValueError(f"no prime p <= {X} is coprime to M = {M}")
    return total / count
