"""The benchmark's two workloads: seeded inputs, the closed-loop query
stream, the output checks and the output digest.

Every workload is one client issuing one query after the previous one
returns, in one process, with no threads.  Inputs come only from the seed.
Library functions are looked up on their modules at call time, so a tracer
installed on those modules sees every call the stream makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import hurwitzbias as hb
import hurwitzbias.cli as hb_cli
from hurwitzbias import hurwitz

from tracer import NullTracer

WORKLOADS = ("moment-stream", "main-term-census")


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Plan:
    """A workload's query stream plus the inputs of its after-stream checks."""

    workload: str
    queries: tuple[Query, ...]
    probes: dict = field(default_factory=dict)


@dataclass
class Context:
    """Where CLI queries write their files, and the tracer in use."""

    workspace: str
    tracer: object = field(default_factory=NullTracer)


# -- input generation ---------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


# moment-stream: each segment opens with a query at its cap, so the shared
# sieve grows exactly once per segment, to 4 * cap; the rest of the segment
# arrives in shuffled n order below the cap.  The query mix is fixed, so the
# seed moves arguments and order but not the amount of work.  One-time builds
# (sieve growth, curve tables) stay near 0.5% of the queries, so p99 falls
# among the largest moment queries rather than among the builds.
SEGMENT_CAPS = (15_625, 31_250, 62_500, 125_000, 250_000)
SEGMENT_MIX = {"moment_H": 400, "repeat": 60, "prime": 20, "lambda_moment": 150,
               "moment_via_reduction": 40}
CURVE_PRIME_STRIDE = 12
CURVE_SQUARE_BINS = ((5, 7, 11, 13), (17, 19, 23), (37,))
CURVE_PAIRS = 2
SIEVE_PROBES = ((12, 3, 10_000), (8, 10_000, 200_000), (4, 200_000, 1_000_000))
PARTITION_PROBES = 8


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One uniform draw from each of `count` equal slices of lo..hi, shuffled."""
    width = (hi - lo + 1) / count
    out = [lo + int(width * (i + rng.random())) for i in range(count)]
    rng.shuffle(out)
    return out


def _turns(rng: random.Random, count: int, values) -> list:
    """`count` values taken from `values` in turn, shuffled."""
    values = list(values)
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _moment_queries(rng: random.Random, count: int, cap: int) -> list[tuple]:
    """(k, m, M, n) with k <= 4, M <= 12 and n <= cap, spread evenly over each."""
    Ms = _turns(rng, count, range(1, 13))
    return [(k, rng.randrange(M), M, n) for k, M, n in
            zip(_turns(rng, count, range(5)), Ms, _strata(rng, count, 1, cap))]


def _moment_stream(rng: random.Random) -> tuple[list[Query], dict]:
    primes = [p for p in range(5, 600) if _is_prime(p)]
    fields = [(p, 1) for p in primes[rng.randrange(CURVE_PRIME_STRIDE)::CURVE_PRIME_STRIDE]]
    fields += [(rng.choice(choices), 2) for choices in CURVE_SQUARE_BINS]
    rng.shuffle(fields)
    blocks = []
    for p, r in fields:
        q = p**r
        block = [Query("trace_mass_table", (q,))]
        for _ in range(CURVE_PAIRS):
            M = rng.choice([M for M in range(1, 9) if math.gcd(M, p) == 1])
            k, m = rng.randrange(3), rng.randrange(M)
            block += [Query("S_direct", (k, m, M, q)), Query("S_via_moments", (k, m, M, p, r))]
        blocks.append(block)

    queries: list[Query] = []
    seen: list[tuple] = []
    for j, cap in enumerate(SEGMENT_CAPS):
        M = rng.randint(1, 12)
        head = Query("moment_H", (rng.randrange(5), rng.randrange(M), M, cap))
        seen += _moment_queries(rng, SEGMENT_MIX["moment_H"], cap)
        units = [[Query("moment_H", args)] for args in seen[-SEGMENT_MIX["moment_H"]:]]
        for _ in range(SEGMENT_MIX["repeat"]):
            units.append([Query("moment_H", rng.choice(seen))])
        for n in _strata(rng, SEGMENT_MIX["prime"], cap // 2, cap):
            units.append([Query("moment_H", (0, 1, 1, _next_prime(n)))])
        for args in _moment_queries(rng, SEGMENT_MIX["lambda_moment"], cap):
            units.append([Query("lambda_moment", args)])
        count = SEGMENT_MIX["moment_via_reduction"]
        for k, M, n in zip(_turns(rng, count, range(9)), _turns(rng, count, range(1, 7)),
                           _strata(rng, count, 1, 200)):
            units.append([Query("moment_via_reduction", (k, rng.randrange(M), M, n))])
        if j:  # curve blocks start once the sieve covers their small n
            units += blocks[j - 1::len(SEGMENT_CAPS) - 1]
        rng.shuffle(units)
        queries.append(head)
        queries += [q for unit in units for q in unit]

    sieve_probes = []
    for count, lo, hi in SIEVE_PROBES:
        for _ in range(count):
            d = rng.randint(lo, hi - 3)
            sieve_probes.append(d - d % 4 + rng.choice((0, 3)))
    keyed = sorted({q.args for q in queries if q.kind == "moment_H" and q.args[2] > 1})
    partition = rng.sample(keyed, PARTITION_PROBES)
    return queries, {"sieve": sieve_probes, "partition": partition}


ZERO_CLASSES = tuple((m, M) for M in range(1, 6) for m in range(1, M + 1)) + ((2, 8), (6, 8))
NONZERO_CLASSES = ((1, 6), (1, 7), (3, 8), (1, 9))
SEEDED_MODULI = range(6, 25)
PER_CLASS = {"zero": 24, "nonzero": 40, "seeded": 32}
RESIDUAL_N = (200, 3000)  # a quarter of the n come from 1..200, the rest from 1..3000
CLI_RESIDUAL_MAX_N = 200
CLI_SEEDED_M = 12
ZERO_TOL = 1e-6
NONZERO_PEAK = 1e-3


def _main_term(rng: random.Random) -> tuple[list[Query], dict]:
    # one class per modulus, with m a unit: the class's cost then depends on M
    seeded = tuple((rng.choice([m for m in range(1, M) if math.gcd(m, M) == 1]), M)
                   for M in SEEDED_MODULI)
    groups = (("zero", ZERO_CLASSES), ("nonzero", NONZERO_CLASSES), ("seeded", seeded))
    queries = []
    for group, classes in groups:
        count = PER_CLASS[group]
        for m, M in classes:
            ns = (_strata(rng, count // 4, 1, RESIDUAL_N[0])
                  + _strata(rng, count - count // 4, 1, RESIDUAL_N[1]))
            queries += [Query("residual", (m, M, n)) for n in ns]
    rng.shuffle(queries)
    # a zero, a nonzero and a seeded class, each of a fixed modulus, so that
    # the seed does not change how much work the CLI does
    cli_classes = ((rng.randint(1, 4), 5), (1, 7), seeded[CLI_SEEDED_M - SEEDED_MODULI[0]])
    queries += [Query("cli_residual", (m, M, CLI_RESIDUAL_MAX_N)) for m, M in cli_classes]
    return queries, {}


SCAN_X = 300
A2_MAX_M = 120
A2_BIN = 2  # one modulus from each pair of consecutive same-parity moduli
A1_MAX_M = 500
A1_MIX = {"prime power": 224, "multiple of six": 224, "one": 32, "any": 160}


def _census(rng: random.Random) -> tuple[list[Query], dict]:
    moduli = []
    for parity in (1, 0):
        eligible = [M for M in range(3, A2_MAX_M + 1) if M % 4 and M % 2 == parity]
        moduli += [rng.choice(eligible[i:i + A2_BIN]) for i in range(0, len(eligible), A2_BIN)]
    families = {
        "prime power": [p**e for p in range(3, A1_MAX_M + 1, 2) if _is_prime(p)
                        for e in range(1, 9) if p**e <= A1_MAX_M],
        "multiple of six": list(range(6, A1_MAX_M + 1, 6)),
        "one": [1],
        "any": list(range(2, A1_MAX_M + 1)),
    }
    signs = [Query("a2_signs", (M,)) for M in moduli]
    for family, count in A1_MIX.items():
        for _ in range(count):
            M = rng.choice(families[family])
            signs.append(Query("bias_a1", (rng.randint(1, M), M)))
    rng.shuffle(signs)
    return [Query("cli_scan", (SCAN_X,)), Query("density_scan", (SCAN_X,))] + signs, {}


def _main_term_census(rng: random.Random) -> tuple[list[Query], dict]:
    """The main-term residual stream, then the sign census."""
    residuals, _ = _main_term(rng)
    signs, _ = _census(rng)
    return residuals + signs, {}


GENERATORS = {"moment-stream": _moment_stream, "main-term-census": _main_term_census}


def _cross_traffic(rng: random.Random, queries: list[Query]) -> list[Query]:
    """One small query of each kind the workload does not issue itself.

    Every layer then does a little work in every workload, so that no
    per-layer time reads zero, while its bulk stays in its own workload.
    These come last, after the sieve growth the moment stream plans.
    """
    p = rng.choice((5, 7, 11, 13))
    M = rng.choice([M for M in range(1, 9) if M % p])
    k, m = rng.randrange(3), rng.randrange(M)
    A1_M = rng.randint(1, 50)
    small = {
        "moment_H": [("moment_H", (rng.randrange(5), rng.randrange(6), 6, rng.randint(1, 2000)))],
        "lambda_moment": [("lambda_moment", (rng.randrange(5), rng.randrange(6), 6,
                                             rng.randint(1, 2000)))],
        "moment_via_reduction": [("moment_via_reduction", (rng.randrange(9), rng.randrange(6), 6,
                                                           rng.randint(1, 50)))],
        "trace_mass_table": [("trace_mass_table", (p,)), ("S_direct", (k, m, M, p)),
                             ("S_via_moments", (k, m, M, p, 1))],
        "residual": [("residual", rng.choice(ZERO_CLASSES) + (rng.randint(1, 200),))],
        "cli_residual": [("cli_residual", rng.choice(ZERO_CLASSES) + (20,))],
        "cli_scan": [("cli_scan", (20,))],
        "density_scan": [("density_scan", (20,))],
        "bias_a1": [("bias_a1", (rng.randint(1, A1_M), A1_M))],
        "a2_signs": [("a2_signs", (rng.choice((5, 7, 9)),))],
    }
    present = {q.kind for q in queries}
    groups = [group for kind, group in small.items() if kind not in present]
    rng.shuffle(groups)
    return [Query(kind, args) for group in groups for kind, args in group]


def generate(workload: str, seed: int) -> Plan:
    """The workload's inputs; the same seed always gives the same plan."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    queries, probes = GENERATORS[workload](rng)
    return Plan(workload, tuple(queries + _cross_traffic(rng, queries)), probes)


# -- running ------------------------------------------------------------------


def _cli(ctx: Context, span: str, argv: list[str], path: str) -> tuple[int, bytes]:
    """Run one CLI command in this process; return its exit code and file bytes."""
    with ctx.tracer.span(span), contextlib.redirect_stdout(io.StringIO()):
        code = hb_cli.main(argv + ["--out", path])
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    ctx.tracer.add(span, "bytes", len(data))
    return code, data


def _residual(args, ctx):
    m, M, n = args
    mom = hb.moment_H(0, m, M, n)
    lam = hb.lambda_moment(0, m, M, n)
    main = hb.main_term(m, M, n)
    return mom, lam, main, float(mom + lam) - main


def _cli_residual(args, ctx):
    m, M, max_n = args
    path = os.path.join(ctx.workspace, f"residual-{m}-{M}.csv")
    return _cli(ctx, "cli.residual",
                ["residual", "--m", str(m), "--M", str(M), "--max-n", str(max_n)], path)


def _cli_scan(args, ctx):
    path = os.path.join(ctx.workspace, "scan.csv")
    return _cli(ctx, "cli.scan", ["scan", "--X", str(args[0])], path)


RUNNERS = {
    "moment_H": lambda a, ctx: hb.moment_H(*a),
    "lambda_moment": lambda a, ctx: hb.lambda_moment(*a),
    "moment_via_reduction": lambda a, ctx: hb.moment_via_reduction(*a),
    "trace_mass_table": lambda a, ctx: hb.trace_mass_table(*a),
    "S_direct": lambda a, ctx: hb.S_direct(*a),
    "S_via_moments": lambda a, ctx: hb.S_via_moments(*a),
    "residual": _residual,
    "cli_residual": _cli_residual,
    "cli_scan": _cli_scan,
    "density_scan": lambda a, ctx: hb.density_scan(*a),
    "bias_a1": lambda a, ctx: hb.bias_result("a1", *a),
    "a2_signs": lambda a, ctx: tuple(hb.A2_closed(m, a[0]) for m in range(1, a[0] + 1)),
}


@dataclass
class StreamResult:
    cpu_s: float
    wall_s: float
    latencies_ms: list[float]  # CPU time of each query
    outputs: list
    errors: dict[int, str]


def run_stream(plan: Plan, ctx: Context, traced: bool = False) -> StreamResult:
    """Issue every query in order, each after the previous one returned.

    Times are process CPU time: the stream is single-threaded and never waits
    on I/O, so this is wall time less the time the machine ran something else.
    """
    n = len(plan.queries)
    outputs: list = [None] * n
    latencies = [0.0] * n
    errors: dict[int, str] = {}
    clock = time.process_time_ns
    wall = time.perf_counter()
    start = clock()
    for i, query in enumerate(plan.queries):
        run = RUNNERS[query.kind]
        t0 = clock()
        try:
            if traced:
                with ctx.tracer.span(f"query.{query.kind}"):
                    outputs[i] = run(query.args, ctx)
            else:
                outputs[i] = run(query.args, ctx)
        except Exception as exc:  # a failed query is counted, not fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies[i] = (clock() - t0) / 1e6
    return StreamResult((clock() - start) / 1e9, time.perf_counter() - wall, latencies,
                        outputs, errors)


# -- digest -------------------------------------------------------------------


def canon(value) -> str:
    """Canonical text of an output: exact rationals as p/q, floats as the CLI
    prints them (%.12g), files as their SHA-256."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, bytes):
        return "sha256:" + hashlib.sha256(value).hexdigest()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canon(v) for v in value) + ")"
    if isinstance(value, hb.TraceMassTable):
        return canon(value.masses)
    if isinstance(value, hb.BiasResult):
        return canon((value.value, value.predicted_sign))
    if isinstance(value, hb.DensityReport):
        return canon((value.positive, value.zero, value.negative))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(plan: Plan, result: StreamResult) -> str:
    h = hashlib.sha256()
    for i, query in enumerate(plan.queries):
        out = f"!{result.errors[i]}" if i in result.errors else canon(result.outputs[i])
        h.update(f"{query.kind}{canon(query.args)}={out}\n".encode())
    return h.hexdigest()


# -- checks -------------------------------------------------------------------


class Checker:
    """Collects failed checks; each is keyed by query index or probe name."""

    def __init__(self, plan: Plan, result: StreamResult):
        self.plan = plan
        self.result = result
        self.failed: dict = {i: msg for i, msg in result.errors.items()}
        self.probes = 0

    def expect(self, ok: bool, key, message: str) -> None:
        if not ok:
            self.failed.setdefault(key, message)

    def probe(self, name: str, ok: bool, message: str) -> None:
        """An after-stream comparison; it counts as an operation of its own."""
        self.probes += 1
        self.expect(ok, ("probe", name, self.probes), message)

    def outputs(self, kind: str):
        for i, query in enumerate(self.plan.queries):
            if query.kind == kind and i not in self.result.errors:
                yield i, query.args, self.result.outputs[i]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _lambda_by_ordered_pairs(k: int, m: int, M: int, n: int) -> Fraction:
    """lambda_moment from its definition, summed over ordered pairs (u, v) with
    u * v = n: each ordered pair counts half, so u = v counts half as well."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    total = Fraction(0)
    for u in set(small) | {n // d for d in small}:
        t = u + n // u
        hits = ((t - m) % M == 0) + (-1) ** k * ((t + m) % M == 0)
        total += Fraction(min(u, n // u) ** (k + 1) * hits, 2)
    return total


def _check_moments(c: Checker) -> None:
    plan, outputs = c.plan, c.result.outputs
    for i, (k, m, M, n), value in c.outputs("moment_H"):
        if k == 0 and M == 1 and _is_prime(n):
            c.expect(value == 2 * n, i, f"moment_H(0,{m},1,{n}) = {value}, expected {2 * n}")
    for i, (k, m, M, n), value in c.outputs("lambda_moment"):
        direct = _lambda_by_ordered_pairs(k, m, M, n)
        c.expect(value == direct, i, f"lambda_moment({k},{m},{M},{n}) = {value}, expected {direct}")
    for i, (k, m, M, n), value in c.outputs("moment_via_reduction"):
        direct = hb.moment_H(k, m, M, n)
        c.expect(value == direct, i,
                 f"moment_via_reduction({k},{m},{M},{n}) = {value} but moment_H gives {direct}")
    for i, (q,), table in c.outputs("trace_mass_table"):
        c.expect(table.total_mass() == q, i, f"total mass over F_{q} is {table.total_mass()}")
    for i, args, direct in c.outputs("S_direct"):
        j = i + 1
        if j in c.result.errors:
            continue
        c.expect(direct == outputs[j], i,
                 f"S_direct{args} = {direct} but S_via_moments{plan.queries[j].args} = {outputs[j]}")
    for d in plan.probes.get("sieve", ()):
        table_value = hurwitz.ensure_table(d).value(d)
        direct = hurwitz.hurwitz_direct(d)
        c.probe("sieve", table_value == direct, f"sieve H({d}) = {table_value}, direct {direct}")
    for k, _, M, n in plan.probes.get("partition", ()):
        parts = sum(hb.moment_H(k, m, M, n) for m in range(M))
        whole = hb.moment_H(k, 0, 1, n)
        c.probe("partition", parts == whole,
                f"sum over m of moment_H({k},m,{M},{n}) = {parts}, moment_H({k},0,1,{n}) = {whole}")


def _csv_rows(c: Checker, i: int, data: bytes, header: tuple, rows: int):
    lines = data.decode("utf-8").split("\n")
    c.expect(lines[-1] == "", i, "file does not end with a newline")
    lines = lines[:-1]
    c.expect(bool(lines) and lines[0] == ",".join(header), i, f"header {lines[:1]}")
    c.expect(len(lines) - 1 == rows, i, f"{len(lines) - 1} rows, expected {rows}")
    return [line.split(",") for line in lines[1:]]


def _check_residuals(c: Checker) -> None:
    zero, nonzero = set(ZERO_CLASSES), set(NONZERO_CLASSES)
    peaks: dict = {}
    by_class: dict = {}
    for i, (m, M, n), out in c.outputs("residual"):
        residual = out[3]
        by_class.setdefault((m, M), {})[n] = out
        if (m, M) in zero:
            c.expect(abs(residual) < ZERO_TOL, i, f"residual({m},{M},{n}) = {residual!r} on a zero class")
        if (m, M) in nonzero:
            peak, _ = peaks.get((m, M), (0.0, i))
            peaks[(m, M)] = (max(peak, abs(residual)), i)
    for (m, M), (peak, i) in peaks.items():
        c.expect(peak > NONZERO_PEAK, i, f"peak |residual| on ({m},{M}) is {peak!r}")
    for i, (m, M, max_n), (code, data) in c.outputs("cli_residual"):
        c.expect(code == 0, i, f"residual CLI exit code {code}")
        rows = _csv_rows(c, i, data, hb_cli.RESIDUAL_COLUMNS, max_n)
        values = [abs(float(row[4])) for row in rows]
        if (m, M) in zero:
            c.expect(max(values, default=0.0) < ZERO_TOL, i, f"CLI residual on zero class ({m},{M})")
        if (m, M) in nonzero:
            c.expect(max(values, default=0.0) > NONZERO_PEAK, i, f"CLI residual peak on ({m},{M})")
        for row in rows:
            out = by_class.get((m, M), {}).get(int(row[0]))
            if out is not None:
                c.expect(row[1:] == [str(out[0]), str(out[1]), "%.12g" % out[2], "%.12g" % out[3]],
                         i, f"CLI row {row} disagrees with the query at n = {row[0]}")


def _check_signs(c: Checker) -> None:
    tallies = {}
    for i, (X,), report in c.outputs("density_scan"):
        c.expect(report.pairs == X * (X + 1) // 2, i, f"density_scan({X}) has {report.pairs} pairs")
        tallies[X] = (report.positive, report.zero, report.negative)
    for i, (X,), (code, data) in c.outputs("cli_scan"):
        c.expect(code == 0, i, f"scan CLI exit code {code}")
        counts = [0, 0, 0]
        for row in _csv_rows(c, i, data, hb_cli.SCAN_COLUMNS, X * (X + 1) // 2):
            sign = int(row[4])
            c.expect(int(row[3]) > 0 and sign == _sign(int(row[2])), i, f"scan row {row}")
            counts[(1, 0, -1).index(sign)] += 1
        c.expect(tallies.get(X) == tuple(counts), i,
                 f"scan tallies {counts} against density_scan {tallies.get(X)}")
    for i, (m, M), result in c.outputs("bias_a1"):
        for rule in hb.sign_rules(m, M):
            if rule.quantity == "A1":
                c.expect(_sign(result.value) == rule.sign, i,
                         f"A1({m},{M}) = {result.value} against rule '{rule.rule}' ({rule.sign})")
    for i, (M,), values in c.outputs("a2_signs"):
        for m, value in enumerate(values, start=1):
            c.expect(abs(value) > 1e-9, i, f"|A2({m},{M})| = {value!r} too small to sign")
            for rule in hb.sign_rules(m, M):
                if rule.quantity == "A2":
                    c.expect(_sign(value) == rule.sign, i,
                             f"A2({m},{M}) = {value!r} against rule '{rule.rule}' ({rule.sign})")


def check(plan: Plan, result: StreamResult) -> Checker:
    """Check every output of the stream; failures and operation counts are on
    the result.  Each check looks at the query kinds it knows, wherever they
    occur."""
    c = Checker(plan, result)
    for check_kinds in (_check_moments, _check_residuals, _check_signs):
        check_kinds(c)
    return c
