"""Self-check suites behind the `verify` subcommand.

Each suite recomputes one family of identities by two independent routes
and records every mismatch with its inputs.  The suites double as the
package's acceptance gates, so they are deliberately exhaustive rather
than sampled, and deterministic across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import factorize, odd_part, primes_upto
from .bias import (
    A1_chars,
    A1_closed,
    A2_chars,
    A2_closed,
    density_scan,
    empirical_A1,
)
from .characters import gauss_quad_closed, gauss_quad_direct
from .eisenstein import residual_series
from .frobenius import S_direct, S_via_moments, trace_mass_table
from .hurwitz import (
    ensure_table,
    lambda_moment,
    moment_H,
    moment_via_reduction,
    reduction_coefficient,
    reduction_coefficient_rec,
    reduction_identity_sum,
)


@dataclass(frozen=True)
class CheckFailure:
    inputs: str
    expected: str
    got: str


@dataclass
class VerifySuiteReport:
    name: str
    checks: int = 0
    failures: list[CheckFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def check(self, ok: bool, inputs: object, expected: object, got: object) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(CheckFailure(str(inputs), str(expected), str(got)))

    def summary(self) -> str:
        word = "pass" if self.passed else "FAIL"
        return (
            f"{word} {self.name}: {self.checks} checks, "
            f"{len(self.failures)} failures, {self.elapsed:.2f}s"
        )


def suite_kronecker_hurwitz() -> VerifySuiteReport:
    """Class numbers summed over a full trace column equal 2p, p < 1000."""
    rep = VerifySuiteReport("kronecker-hurwitz")
    t0 = time.perf_counter()
    ensure_table(4 * 997)
    for p in primes_upto(999):
        got = moment_H(0, 1, 1, p)
        rep.check(got == 2 * p, f"p={p}", 2 * p, got)
    rep.elapsed = time.perf_counter() - t0
    rep.check(rep.elapsed < 10, "runtime", "< 10 s", f"{rep.elapsed:.2f} s")
    return rep


def suite_progressions() -> VerifySuiteReport:
    """Parity-split zeroth moments at odd primes match their closed forms."""
    rep = VerifySuiteReport("progressions")
    t0 = time.perf_counter()
    ensure_table(4 * 997)
    for p in primes_upto(999):
        if p == 2:
            continue
        even = moment_H(0, 2, 2, p)
        odd = moment_H(0, 1, 2, p)
        rep.check(even == Fraction(4 * p - 2, 3), f"p={p} even traces",
                  Fraction(4 * p - 2, 3), even)
        rep.check(odd == Fraction(2 * p + 2, 3), f"p={p} odd traces",
                  Fraction(2 * p + 2, 3), odd)
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_reduction_coefficients() -> VerifySuiteReport:
    """Closed form equals recursion; the alternating factorial sum vanishes."""
    rep = VerifySuiteReport("reduction-coefficients")
    t0 = time.perf_counter()
    for k in range(41):
        for mu in range((k + 1) // 2 + 1):
            a = reduction_coefficient(k, mu)
            b = reduction_coefficient_rec(k, mu)
            rep.check(a == b, f"k={k} mu={mu}", b, a)
    for mu in range(1, 11):
        for k in range(2 * mu + 1, 31):
            s = reduction_identity_sum(k, mu)
            rep.check(s == 0, f"identity k={k} mu={mu}", 0, s)
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_gauss() -> VerifySuiteReport:
    """Quadratic exponential sums: closed evaluation against direct summation."""
    rep = VerifySuiteReport("gauss")
    t0 = time.perf_counter()
    for c in range(1, 61):
        for a in range(c):
            for b in range(c):
                direct = gauss_quad_direct(a, b, c)
                closed = gauss_quad_closed(a, b, c)
                rep.check(abs(closed - direct) < 1e-9,
                          f"a={a} b={b} c={c}", direct, closed)
    rep.elapsed = time.perf_counter() - t0
    return rep


ZERO_RESIDUAL_CLASSES = tuple(
    (m, M) for M in range(1, 6) for m in range(1, M + 1)
) + ((2, 8), (6, 8))

NONZERO_RESIDUAL_CLASSES = ((1, 6), (1, 7), (3, 8), (1, 9))


def suite_eisenstein() -> VerifySuiteReport:
    """Cusp residuals vanish on the small-modulus classes and not on four others.

    Under the default readings, the residual stays below 1e-6 for n <= 500
    on every zero class, and exceeds 1e-3 somewhere in n <= 100 on each of
    the four nonzero classes.  The suite does not tell the readings apart:
    phi_reading gives the same residuals either way, and the other
    eta0_reading values make the main term non-real on some visited class
    (eta_hat only on (1, 7)), which raises instead of failing a check.
    """
    rep = VerifySuiteReport("eisenstein")
    t0 = time.perf_counter()
    for m, M in ZERO_RESIDUAL_CLASSES:
        series = residual_series(m, M, 500)
        dev = max(abs(v) for v in series.values)
        rep.check(dev < 1e-6, f"zero class m={m} M={M}", "< 1e-6", dev)
    for m, M in NONZERO_RESIDUAL_CLASSES:
        series = residual_series(m, M, 100)
        peak = max(abs(v) for v in series.values)
        rep.check(peak > 1e-3, f"nonzero class m={m} M={M}", "> 1e-3", peak)
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_boundary() -> VerifySuiteReport:
    """First coefficient of moment plus correction matches the boundary table."""
    rep = VerifySuiteReport("boundary")
    t0 = time.perf_counter()
    for M in range(6, 31):
        for m in range(1, M + 1):
            if m == M:
                want = Fraction(1, 2)
            elif m in (1, M - 1):
                want = Fraction(1, 3)
            elif m in (2, M - 2):
                want = Fraction(5, 12)
            else:
                want = Fraction(0)
            got = moment_H(0, m, M, 1) + lambda_moment(0, m, M, 1)
            rep.check(got == want, f"m={m} M={M}", want, got)
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_schoof() -> VerifySuiteReport:
    """Curve tallies against the moment route, plus the total mass formula."""
    rep = VerifySuiteReport("schoof")
    t0 = time.perf_counter()
    for q in (5, 7, 11, 13, 25, 49, 121):
        total = trace_mass_table(q).total_mass()
        rep.check(total == q, f"total mass q={q}", q, total)
    r1_primes = [p for p in primes_upto(47) if p >= 5]
    for p in r1_primes:
        for M in range(1, 9):
            if M % p == 0:
                continue
            for k in (0, 1, 2):
                for m in range(1, M + 1):
                    lhs = S_direct(k, m, M, p)
                    rhs = S_via_moments(k, m, M, p, 1)
                    rep.check(lhs == rhs, f"r=1 k={k} m={m} M={M} p={p}", rhs, lhs)
    for p in (5, 7, 11):
        for M in range(1, 9):
            if M % p == 0:
                continue
            for k in (0, 1, 2):
                for m in range(1, M + 1):
                    lhs = S_direct(k, m, M, p * p)
                    rhs = S_via_moments(k, m, M, p, 2)
                    rep.check(lhs == rhs, f"r=2 k={k} m={m} M={M} p={p}", rhs, lhs)
    rep.elapsed = time.perf_counter() - t0
    rep.check(rep.elapsed < 60, "runtime", "< 60 s", f"{rep.elapsed:.2f} s")
    return rep


def suite_moments() -> VerifySuiteReport:
    """Higher moments rebuilt from the zeroth moment agree exactly."""
    rep = VerifySuiteReport("moments")
    t0 = time.perf_counter()
    for k in range(7):
        for M in range(1, 7):
            for m in range(1, M + 1):
                for n in range(1, 201):
                    a = moment_via_reduction(k, m, M, n)
                    b = moment_H(k, m, M, n)
                    rep.check(a == b, f"k={k} m={m} M={M} n={n}", b, a)
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_bias_routes() -> VerifySuiteReport:
    """Residue-sum and closed-form bias averages agree; pinned values hold."""
    rep = VerifySuiteReport("bias-routes")
    t0 = time.perf_counter()
    for M in range(1, 37):
        for m in range(1, M + 1):
            dev = abs(A1_chars(m, M) - float(A1_closed(m, M)))
            rep.check(dev < 1e-9, f"A1 m={m} M={M}", "< 1e-9", dev)
    for M in range(3, 31):
        for m in range(1, M + 1):
            dev = abs(A2_chars(m, M) - A2_closed(m, M))
            rep.check(dev < 1e-9, f"A2 m={m} M={M}", "< 1e-9", dev)
    rep.check(A1_closed(1, 3) == Fraction(1, 16), "A1(1,3)", Fraction(1, 16),
              A1_closed(1, 3))
    rep.check(A1_closed(2, 5) == Fraction(-5, 96), "A1(2,5)", Fraction(-5, 96),
              A1_closed(2, 5))
    rep.check(abs(A2_closed(1, 3) + 0.125) < 1e-9, "A2(1,3)", -0.125,
              A2_closed(1, 3))
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_signs() -> VerifySuiteReport:
    """The four sign classifications, scanned over their full ranges."""
    rep = VerifySuiteReport("signs")
    t0 = time.perf_counter()
    # the first moment average vanishes exactly when there is no congruence
    for M in range(1, 501):
        ok = all((A1_closed(m, M) == 0) == (M == 1) for m in range(1, M + 1))
        rep.check(ok, f"zero iff M=1, M={M}", True, ok)
    # odd prime power modulus: positive exactly next to the identity classes
    for M in range(3, 344, 2):
        fac = tuple(factorize(M))
        if len(fac) != 1:
            continue
        p = fac[0][0]
        for m in range(1, M + 1):
            v = A1_closed(m, M)
            want_pos = m % p in (1, p - 1)
            rep.check((v > 0) == want_pos and v != 0,
                      f"odd prime power m={m} M={M}", want_pos, v)
    # modulus divisible by six: negative exactly on the near-identity classes
    for M in range(6, 301, 6):
        for m in range(1, M + 1):
            v = A1_closed(m, M)
            want_neg = math.gcd(m - 1, M) == 1 or math.gcd(m + 1, M) == 1
            rep.check((v < 0) == want_neg and v != 0,
                      f"six divides M, m={m} M={M}", want_neg, v)
    # second moment average: negative exactly on odd-part units
    for M in range(3, 201):
        if M % 4 == 0:
            continue
        for m in range(1, M + 1):
            v = A2_closed(m, M)
            want_neg = math.gcd(m, odd_part(M)) == 1
            rep.check(abs(v) > 1e-9 and (v < 0) == want_neg,
                      f"A2 sign m={m} M={M}", want_neg, v)
    rep.elapsed = time.perf_counter() - t0
    return rep


def suite_density() -> VerifySuiteReport:
    """Sign densities over all classes with modulus up to 1000."""
    rep = VerifySuiteReport("density")
    t0 = time.perf_counter()
    report = density_scan(1000)
    rep.check(abs(report.positive_fraction - 0.44) <= 0.01,
              "positive fraction", "0.44 +- 0.01", report.positive_fraction)
    rep.check(abs(report.negative_fraction - 0.56) <= 0.01,
              "negative fraction", "0.56 +- 0.01", report.negative_fraction)
    rep.check(report.positive_fraction >= 0.25,
              "positive lower bound", ">= 1/4", report.positive_fraction)
    rep.check(report.negative_fraction >= 1 / (2 * math.pi**2),
              "negative lower bound", ">= 1/(2 pi^2)", report.negative_fraction)
    rep.elapsed = time.perf_counter() - t0
    rep.check(rep.elapsed < 30, "runtime", "< 30 s", f"{rep.elapsed:.2f} s")
    return rep


def suite_equidistribution() -> VerifySuiteReport:
    """Averages over actual primes track the closed forms at X = 10^5."""
    rep = VerifySuiteReport("equidistribution")
    t0 = time.perf_counter()
    for m, M in ((1, 3), (2, 5), (1, 4), (3, 8)):
        emp = empirical_A1(m, M, 100_000)
        dev = abs(emp - float(A1_closed(m, M)))
        rep.check(dev < 0.02, f"m={m} M={M}", "< 0.02", dev)
    rep.elapsed = time.perf_counter() - t0
    return rep


SUITES = {
    "kronecker-hurwitz": suite_kronecker_hurwitz,
    "progressions": suite_progressions,
    "reduction-coefficients": suite_reduction_coefficients,
    "gauss": suite_gauss,
    "eisenstein": suite_eisenstein,
    "boundary": suite_boundary,
    "schoof": suite_schoof,
    "moments": suite_moments,
    "bias-routes": suite_bias_routes,
    "signs": suite_signs,
    "density": suite_density,
    "equidistribution": suite_equidistribution,
}


def run_suites(names: list[str] | None = None) -> list[VerifySuiteReport]:
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    return [SUITES[n]() for n in names]
