"""Self-check suites behind the `verify` subcommand.

Each suite checks one family of identities or stated values and records
every mismatch with its inputs in the report it is given.  Some compare two
routes to one quantity (closed Gauss sums against direct summation, curve
tallies against the moment route, the closed A1 and A2 against their
character sums); the others compare against closed forms, a table, a sign
rule or a tolerance.  Not every pair of routes is independent: `moments`
rebuilds moment_H from cusp_coefficient, which is itself built from
moment_H.  run_suite builds the report, times the suite and checks its
runtime bound.  The suites double as the package's acceptance gates, so
they are deliberately exhaustive rather than sampled, and deterministic
across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import factorize, primes_upto
from .bias import (
    A1_chars,
    A1_closed,
    A2_chars,
    A2_closed,
    _a1_ratios,
    density_scan,
    empirical_A1,
    sign_rules,
)
from .characters import gauss_quad_closed, gauss_quad_direct
from .eisenstein import residual_rows
from .frobenius import S_direct, S_via_moments, trace_mass_table
from .hurwitz import (
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


def suite_kronecker_hurwitz(rep: VerifySuiteReport) -> None:
    """Class numbers summed over a full trace column equal 2p, p < 1000."""
    for p in primes_upto(999):
        got = moment_H(0, 1, 1, p)
        rep.check(got == 2 * p, f"p={p}", 2 * p, got)


def suite_progressions(rep: VerifySuiteReport) -> None:
    """Parity-split zeroth moments at odd primes match their closed forms."""
    for p in primes_upto(999):
        if p == 2:
            continue
        even = moment_H(0, 2, 2, p)
        odd = moment_H(0, 1, 2, p)
        rep.check(even == Fraction(4 * p - 2, 3), f"p={p} even traces",
                  Fraction(4 * p - 2, 3), even)
        rep.check(odd == Fraction(2 * p + 2, 3), f"p={p} odd traces",
                  Fraction(2 * p + 2, 3), odd)


def suite_reduction_coefficients(rep: VerifySuiteReport) -> None:
    """Closed form equals recursion; the alternating factorial sum vanishes."""
    for k in range(41):
        for mu in range((k + 1) // 2 + 1):
            a = reduction_coefficient(k, mu)
            b = reduction_coefficient_rec(k, mu)
            rep.check(a == b, f"k={k} mu={mu}", b, a)
    for mu in range(1, 11):
        for k in range(2 * mu + 1, 31):
            s = reduction_identity_sum(k, mu)
            rep.check(s == 0, f"identity k={k} mu={mu}", 0, s)


def suite_gauss(rep: VerifySuiteReport) -> None:
    """Quadratic exponential sums: closed evaluation against direct summation."""
    for c in range(1, 61):
        for a in range(c):
            for b in range(c):
                direct = gauss_quad_direct(a, b, c)
                closed = gauss_quad_closed(a, b, c)
                rep.check(abs(closed - direct) < 1e-9,
                          f"a={a} b={b} c={c}", direct, closed)


ZERO_RESIDUAL_CLASSES = tuple(
    (m, M) for M in range(1, 6) for m in range(1, M + 1)
) + ((2, 8), (6, 8))

NONZERO_RESIDUAL_CLASSES = ((1, 6), (1, 7), (3, 8), (1, 9))


def suite_eisenstein(rep: VerifySuiteReport) -> None:
    """Cusp residuals vanish on the small-modulus classes and not on four others.

    The residual stays below 1e-6 for n <= 500 on every zero class, and
    exceeds 1e-3 somewhere in n <= 100 on each of the four nonzero classes.
    """
    for m, M in ZERO_RESIDUAL_CLASSES:
        dev = max(abs(row[-1]) for row in residual_rows(m, M, 500))
        rep.check(dev < 1e-6, f"zero class m={m} M={M}", "< 1e-6", dev)
    for m, M in NONZERO_RESIDUAL_CLASSES:
        peak = max(abs(row[-1]) for row in residual_rows(m, M, 100))
        rep.check(peak > 1e-3, f"nonzero class m={m} M={M}", "> 1e-3", peak)


def suite_boundary(rep: VerifySuiteReport) -> None:
    """First coefficient of moment plus correction matches the boundary table."""
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


def suite_schoof(rep: VerifySuiteReport) -> None:
    """Curve tallies against the moment route, plus the total mass formula.

    The prime fields are every p from 5 to 47 and the large field p = 5801;
    the quadratic fields are p^2 for p = 5, 7, 11.
    """
    for q in (5, 7, 11, 13, 25, 49, 121, 5801):
        total = trace_mass_table(q).total_mass()
        rep.check(total == q, f"total mass q={q}", q, total)
    fields = [(p, 1) for p in primes_upto(47) if p >= 5]
    for p, r in fields + [(5801, 1), (5, 2), (7, 2), (11, 2)]:
        for M in range(1, 9):
            if M % p == 0:
                continue
            for k in (0, 1, 2):
                for m in range(1, M + 1):
                    lhs = S_direct(k, m, M, p**r)
                    rhs = S_via_moments(k, m, M, p, r)
                    rep.check(lhs == rhs, f"r={r} k={k} m={m} M={M} p={p}", rhs, lhs)


def suite_moments(rep: VerifySuiteReport) -> None:
    """moment_via_reduction equals moment_H exactly for k <= 6, M <= 6, n <= 200.

    This checks the reduction coefficients and the bookkeeping of the
    rebuild, not the moments themselves: the rebuild reads cusp_coefficient,
    which is built from moment_H, so the identity holds whatever moment_H
    returns.
    """
    for k in range(7):
        for M in range(1, 7):
            for m in range(1, M + 1):
                for n in range(1, 201):
                    a = moment_via_reduction(k, m, M, n)
                    b = moment_H(k, m, M, n)
                    rep.check(a == b, f"k={k} m={m} M={M} n={n}", b, a)


def suite_bias_routes(rep: VerifySuiteReport) -> None:
    """Residue-sum and closed-form bias averages agree; pinned values hold.

    The A1 residue sum (A1_chars) keeps only the principal character's
    leading coefficient, since every non-principal eta sums to 0 over the
    units, so this suite does not check star_char, phi2 or any non-principal
    coeff_a; the `main-term --m 2 --M 32 --n 97` and `--M 27` console-script
    pins are the checks that reach star_char.
    """
    for M in range(1, 37):
        for m in range(1, M + 1):
            dev = abs(A1_chars(m, M) - float(A1_closed(m, M)))
            rep.check(dev < 1e-9, f"A1 m={m} M={M}", "< 1e-9", dev)
    for M in range(3, 61):
        for m in range(1, M + 1):
            dev = abs(A2_chars(m, M) - A2_closed(m, M))
            rep.check(dev < 1e-12, f"A2 m={m} M={M}", "< 1e-12", dev)
    rep.check(A1_closed(1, 3) == Fraction(1, 16), "A1(1,3)", Fraction(1, 16),
              A1_closed(1, 3))
    rep.check(A1_closed(2, 5) == Fraction(-5, 96), "A1(2,5)", Fraction(-5, 96),
              A1_closed(2, 5))
    rep.check(A2_closed(1, 3) == -0.125, "A2(1,3)", -0.125, A2_closed(1, 3))


def suite_signs(rep: VerifySuiteReport) -> None:
    """A1 is zero exactly at M = 1; each shipped sign rule (sign_rules), the
    one `bias --format json` prints as predicted_sign, is scanned over its
    full range against the sign of the closed form."""
    for M in range(1, 501):
        ok = all((A1_closed(m, M) == 0) == (M == 1) for m in range(1, M + 1))
        rep.check(ok, f"zero iff M=1, M={M}", True, ok)
    scans = (
        ("odd prime power modulus", "odd prime power", A1_closed,
         [M for M in range(3, 344, 2) if len(factorize(M)) == 1]),
        ("modulus divisible by six", "six divides M,", A1_closed, range(6, 301, 6)),
        ("odd-part coprimality", "A2 sign", A2_closed, [M for M in range(3, 201) if M % 4]),
    )
    for rule, label, closed, moduli in scans:
        for M in moduli:
            for m in range(1, M + 1):
                v = closed(m, M)
                want = next((s.sign for s in sign_rules(m, M) if s.rule == rule), None)
                rep.check((v > 0) - (v < 0) == want, f"{label} m={m} M={M}", want, v)


# Exact (positive, zero, negative) counts of A1's sign over 1 <= m <= M <= X.
# The X = 10^4 counts were recorded once from the per-m route (_a1_ratios),
# which takes about 80 s there.
DENSITY_COUNTS = {1000: (219_586, 1, 280_913), 10_000: (21_917_904, 1, 28_087_095)}


def suite_density(rep: VerifySuiteReport) -> None:
    """Exact A1 sign counts at X = 1000 and 10^4, and the densities at 1000.

    density_scan counts each modulus by class vectors of m mod its primes.
    At X = 1000 the counts are also tallied m by m through _a1_ratios, the
    per-m route behind A1_closed: it shares the A1 formula with the class
    table but not its evaluation, since it reads the gcds of each m where
    the table counts classes.  At X = 10^4 the class counts are checked
    against counts recorded from the per-m route.
    """
    walk = [0, 0, 0]  # negative, zero, positive
    for M in range(1, 1001):
        for _, num, _ in _a1_ratios(M, range(1, M + 1)):
            walk[(num > 0) - (num < 0) + 1] += 1
    got = (walk[2], walk[1], walk[0])
    rep.check(got == DENSITY_COUNTS[1000], "per-m counts X=1000",
              DENSITY_COUNTS[1000], got)
    reports = {X: density_scan(X) for X in DENSITY_COUNTS}
    for X, want in DENSITY_COUNTS.items():
        got = (reports[X].positive, reports[X].zero, reports[X].negative)
        rep.check(got == want, f"class counts X={X}", want, got)
    report = reports[1000]
    rep.check(abs(report.positive_fraction - 0.44) <= 0.01,
              "positive fraction", "0.44 +- 0.01", report.positive_fraction)
    rep.check(abs(report.negative_fraction - 0.56) <= 0.01,
              "negative fraction", "0.56 +- 0.01", report.negative_fraction)
    rep.check(report.positive_fraction >= 0.25,
              "positive lower bound", ">= 1/4", report.positive_fraction)
    rep.check(report.negative_fraction >= 1 / (2 * math.pi**2),
              "negative lower bound", ">= 1/(2 pi^2)", report.negative_fraction)


def suite_equidistribution(rep: VerifySuiteReport) -> None:
    """Averages over actual primes track the closed forms at X = 10^5."""
    for m, M in ((1, 3), (2, 5), (1, 4), (3, 8)):
        emp = empirical_A1(m, M, 100_000)
        dev = abs(emp - float(A1_closed(m, M)))
        rep.check(dev < 0.02, f"m={m} M={M}", "< 0.02", dev)


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


# Wall-clock bounds in seconds, checked by run_suite on the suites listed.
RUNTIME_BOUNDS = {"kronecker-hurwitz": 10, "schoof": 60, "density": 30}


def run_suite(name: str) -> VerifySuiteReport:
    """Run one suite, timing it alone, then check its runtime bound if any."""
    rep = VerifySuiteReport(name)
    t0 = time.perf_counter()
    SUITES[name](rep)
    rep.elapsed = time.perf_counter() - t0
    bound = RUNTIME_BOUNDS.get(name)
    if bound is not None:
        rep.check(rep.elapsed < bound, "runtime", f"< {bound} s",
                  f"{rep.elapsed:.2f} s")
    return rep


def run_suites(names: list[str] | None = None) -> list[VerifySuiteReport]:
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}")
    return [run_suite(n) for n in names]
