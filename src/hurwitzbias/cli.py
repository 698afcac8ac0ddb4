"""Command line frontend: single-value queries, batch scans, self checks.

Output conventions: rationals are printed as "p/q", reals with 12
significant digits, '.' decimal separator.  CSV files are UTF-8 with LF
line endings and carry exactly the documented columns.  JSON output is
canonical (sorted keys) so that parsing and re-emitting it is
byte-identical.  Exit codes: 0 success, 1 verification failure, 2 bad
flags or bad flag values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .bias import DensityReport, a1_class_table, bias_result, empirical_A1
from .eisenstein import main_term, residual_rows
from .frobenius import S_via_moments
from .hurwitz import _TABLE_HARD_LIMIT, ensure_table, hurwitz_H, lambda_moment, moment_H
from .verify import SUITES, run_suites


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    try:
        return str(value)
    except ValueError:  # past CPython's int-string digit limit: lift it for this value
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit_value(args, value, **inputs) -> None:
    if args.format == "json":
        payload = {k: _fmt(v) if isinstance(v, (Fraction, float)) else v
                   for k, v in inputs.items()}
        payload["value"] = _fmt(value)
        print(_canonical_json(payload))
    else:
        print(_fmt(value))


def _add_format_flag(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_value(args) -> int:
    inputs = {name: getattr(args, name) for name in args.inputs}
    _emit_value(args, args.compute(*inputs.values()), **inputs)
    return 0


def _add_value_command(sub, name, help, compute, *inputs) -> None:
    """A subcommand printing compute(*inputs): D is positional, the rest --flags."""
    p = sub.add_parser(name, help=help)
    for key in inputs:
        if key == "D":
            p.add_argument(key, type=int)
        else:
            p.add_argument(f"--{key}", type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_value, compute=compute, inputs=inputs)


# hurwitz-table rows are read from the table and written this many at a time
_TABLE_BLOCK = 1 << 14


def _cmd_hurwitz_table(args) -> int:
    if args.max < 0:
        raise ValueError("--max must be >= 0")
    table = ensure_table(args.max)
    texts: dict[int, str] = {}  # 12H -> H as _fmt prints it, each formatted once

    def blocks():
        for lo in range(0, args.max + 1, _TABLE_BLOCK):
            values = table.dense(lo, min(lo + _TABLE_BLOCK - 1, args.max)).tolist()
            for v in set(values).difference(texts):
                texts[v] = _fmt(Fraction(v, 12))
            yield lo, [texts[v] for v in values]

    if args.format == "json":
        values = {}
        for lo, block in blocks():
            values.update(zip(map(str, range(lo, lo + len(block))), block))
        print(_canonical_json({"max": args.max, "values": values}))
    else:
        for lo, block in blocks():
            sys.stdout.write("".join(
                [f"{d} {text}\n" for d, text in zip(range(lo, lo + len(block)), block)]))
    return 0


RESIDUAL_COLUMNS = ("n", "moment", "lambda", "main_term", "residual")
# moment_H at n reads class numbers up to 4n, which the cap bounds
RESIDUAL_N_CAP = _TABLE_HARD_LIMIT // 4


def _emit_csv(stream, header, lines) -> None:
    stream.write(",".join(header) + "\n")
    for line in lines:
        stream.write(line + "\n")


def _write_csv(path: str, header, lines) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _emit_csv(fh, header, lines)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _cmd_residual(args) -> int:
    if args.out and args.format == "json":
        raise ValueError("--out writes CSV; it cannot be combined with --format json")
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    if args.max_n > RESIDUAL_N_CAP:
        raise ValueError(f"--max-n must be <= {RESIDUAL_N_CAP}")
    # residual_rows checks the class, the character cap included, when it is
    # called here, so a bad class fails before the first line is written
    rows = (list(map(_fmt, row)) for row in residual_rows(args.m, args.M, args.max_n))
    lines = (",".join(row) for row in rows)
    if args.out:
        _write_csv(args.out, RESIDUAL_COLUMNS, lines)
        print(f"wrote {args.max_n} rows to {args.out}")
    elif args.format == "json":
        payload = {"columns": list(RESIDUAL_COLUMNS),
                   "rows": list(rows)}
        print(_canonical_json(payload))
    else:
        _emit_csv(sys.stdout, RESIDUAL_COLUMNS, lines)
    return 0


def _cmd_bias(args) -> int:
    result = bias_result(args.quantity, args.m, args.M, route=args.route)
    _emit_value(args, result.value, quantity=args.quantity, m=args.m,
                M=args.M, route=args.route,
                predicted_sign=result.predicted_sign)
    return 0


SCAN_COLUMNS = ("m", "M", "a1_num", "a1_den", "sign")
# scan writes every row: 12.5 million of them at the cap
SCAN_X_CAP = 5000


def _cmd_scan(args) -> int:
    if not 1 <= args.X <= SCAN_X_CAP:
        raise ValueError(f"X must lie in 1..{SCAN_X_CAP}")
    counts = [0, 0, 0]
    prefixes = [str(m) for m in range(1, args.X + 1)]

    def blocks():
        # one block of rows per modulus, each row its m and its class's
        # suffix.  The class of m repeats with period rad M, so one period
        # of suffixes is listed, repeated through m = M and interleaved
        # with the m.  The signs are counted as the blocks are written
        for M in range(1, args.X + 1):
            table = a1_class_table(M)
            suffixes = []
            for num, count in zip(table.nums, table.counts):
                sign = (num > 0) - (num < 0)
                counts[sign + 1] += count
                g = math.gcd(num, table.den)
                suffixes.append(f",{M},{num // g},{table.den // g},{sign}\n")
            period = [suffixes[k] for k in table.period()]
            parts = [""] * (2 * M)
            parts[::2] = prefixes[:M]
            parts[1::2] = period * (M // len(period))
            parts[-1] = parts[-1][:-1]  # the writer ends the block's last line
            yield "".join(parts)

    if args.out:
        _write_csv(args.out, SCAN_COLUMNS, blocks())
    else:
        _emit_csv(sys.stdout, SCAN_COLUMNS, blocks())
    report = DensityReport(positive=counts[2], zero=counts[1], negative=counts[0])
    summary = (f"pairs {report.pairs} positive {report.positive_fraction:.4f} "
               f"negative {report.negative_fraction:.4f} "
               f"zero {report.zero_fraction:.4f}")
    if args.out:
        print(f"wrote {report.pairs} rows to {args.out}")
    # keep stdout parseable as CSV: without --out the summary goes to stderr
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite in (None, "all") else [args.suite]
    failures = 0
    for rep in run_suites(names):
        print(rep.summary())
        for f in rep.failures[:10]:
            print(f"    {f.inputs}: expected {f.expected}, got {f.got}")
        failures += len(rep.failures)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitzbias",
        description="Moments of Hurwitz class numbers in arithmetic "
                    "progressions, trace statistics, and bias averages.")
    parser.add_argument(
        "--version", action="version",
        version=(f"hurwitzbias {__version__} "
                 "(eta0 reading: eta, phi conductor reading: eta_tilde)"))
    sub = parser.add_subparsers(dest="command", required=True)

    _add_value_command(sub, "hurwitz", "single class number H(D)", hurwitz_H, "D")

    p = sub.add_parser("hurwitz-table", help="table of H(D) for 0 <= D <= max")
    p.add_argument("--max", type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_hurwitz_table)

    _add_value_command(sub, "moment", "k-th moment over the class m mod M",
                       moment_H, "k", "m", "M", "n")
    _add_value_command(sub, "lambda", "divisor-pair correction sum",
                       lambda_moment, "k", "m", "M", "n")
    _add_value_command(sub, "main-term", "Eisenstein main term at n",
                       main_term, "m", "M", "n")

    p = sub.add_parser("residual", help="cusp residual series up to max-n")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_residual)

    _add_value_command(sub, "trace-moment",
                       "moment of traces of Frobenius over F_{p^r}",
                       S_via_moments, "k", "m", "M", "p", "r")

    p = sub.add_parser("bias", help="size-graded bias average")
    p.add_argument("quantity", choices=("a1", "a2"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--route", choices=("closed", "chars"), default="closed")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_bias)

    p = sub.add_parser("scan", help="sign census over all classes with M <= X")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_scan)

    _add_value_command(sub, "empirical", "bias average over actual primes below X",
                       empirical_A1, "m", "M", "X")

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all", *SUITES))
    p.set_defaults(func=_cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # the parser is built once per process; parse_args leaves it unchanged
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
