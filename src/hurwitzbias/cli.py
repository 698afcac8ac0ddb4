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
from .bias import DensityReport, a1_census, bias_result, empirical_A1
from .eisenstein import DEFAULT_CONFIG, Config, main_term, reduce_residue
from .frobenius import S_via_moments
from .hurwitz import ensure_table, hurwitz_H, lambda_moment, moment_H
from .verify import SUITES, run_suites


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit_value(args, value, **inputs) -> None:
    if getattr(args, "format", "text") == "json":
        payload = {k: _fmt(v) if isinstance(v, (Fraction, float)) else v
                   for k, v in inputs.items()}
        payload["value"] = _fmt(value)
        print(_canonical_json(payload))
    else:
        print(_fmt(value))


def _config_from_args(args) -> Config:
    return Config(eta0_reading=args.eta0_reading, phi_reading=args.phi_reading)


def _add_format_flag(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_reading_flags(parser) -> None:
    parser.add_argument("--eta0-reading", dest="eta0_reading",
                        choices=("eta", "eta_hat", "eta_tilde"),
                        default=DEFAULT_CONFIG.eta0_reading)
    parser.add_argument("--phi-reading", dest="phi_reading",
                        choices=("eta_tilde", "eta_star"),
                        default=DEFAULT_CONFIG.phi_reading)


def _cmd_hurwitz(args) -> int:
    _emit_value(args, hurwitz_H(args.D), D=args.D)
    return 0


def _cmd_hurwitz_table(args) -> int:
    if args.max < 0:
        raise ValueError("--max must be >= 0")
    ensure_table(args.max)
    rows = [(d, hurwitz_H(d)) for d in range(args.max + 1)]
    if args.format == "json":
        payload = {"max": args.max,
                   "values": {str(d): _fmt(h) for d, h in rows}}
        print(_canonical_json(payload))
    else:
        for d, h in rows:
            print(f"{d} {_fmt(h)}")
    return 0


def _cmd_moment(args) -> int:
    value = moment_H(args.k, args.m, args.M, args.n)
    _emit_value(args, value, k=args.k, m=args.m, M=args.M, n=args.n)
    return 0


def _cmd_lambda(args) -> int:
    value = lambda_moment(args.k, args.m, args.M, args.n)
    _emit_value(args, value, k=args.k, m=args.m, M=args.M, n=args.n)
    return 0


def _cmd_main_term(args) -> int:
    value = main_term(args.m, args.M, args.n, _config_from_args(args))
    _emit_value(args, value, m=args.m, M=args.M, n=args.n)
    return 0


RESIDUAL_COLUMNS = ("n", "moment", "lambda", "main_term", "residual")


def _residual_rows(m: int, M: int, max_n: int, cfg: Config):
    m = reduce_residue(m, M)
    for n in range(1, max_n + 1):
        mom = moment_H(0, m, M, n)
        lam = lambda_moment(0, m, M, n)
        main = main_term(m, M, n, cfg)
        # the same arithmetic as cusp_residual_0, from the values already in hand
        residual = float(mom + lam) - main
        yield (str(n), _fmt(mom), _fmt(lam), _fmt(main), _fmt(residual))


def _write_csv(path: str, header, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _cmd_residual(args) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    cfg = _config_from_args(args)
    rows = list(_residual_rows(args.m, args.M, args.max_n, cfg))
    if args.out:
        _write_csv(args.out, RESIDUAL_COLUMNS, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    elif args.format == "json":
        payload = {"columns": list(RESIDUAL_COLUMNS),
                   "rows": [list(r) for r in rows]}
        print(_canonical_json(payload))
    else:
        print(",".join(RESIDUAL_COLUMNS))
        for row in rows:
            print(",".join(row))
    return 0


def _cmd_trace_moment(args) -> int:
    value = S_via_moments(args.k, args.m, args.M, args.p, args.r)
    _emit_value(args, value, k=args.k, m=args.m, M=args.M, p=args.p, r=args.r)
    return 0


def _cmd_bias(args) -> int:
    result = bias_result(args.quantity, args.m, args.M, route=args.route,
                         cfg=_config_from_args(args))
    _emit_value(args, result.value, quantity=args.quantity, m=args.m,
                M=args.M, route=args.route,
                predicted_sign=result.predicted_sign)
    return 0


SCAN_COLUMNS = ("m", "M", "a1_num", "a1_den", "sign")


def _cmd_scan(args) -> int:
    rows = []
    counts = [0, 0, 0]
    for M, ratios in a1_census(args.X):
        for m, num, den in ratios:
            sign = (num > 0) - (num < 0)
            counts[sign + 1] += 1
            g = math.gcd(num, den)
            rows.append((str(m), str(M), str(num // g), str(den // g), str(sign)))
    report = DensityReport(X=args.X, positive=counts[2], zero=counts[1],
                           negative=counts[0])
    summary = (f"pairs {report.pairs} positive {report.positive_fraction:.4f} "
               f"negative {report.negative_fraction:.4f} "
               f"zero {report.zero_fraction:.4f}")
    if args.out:
        _write_csv(args.out, SCAN_COLUMNS, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
        print(summary)
    else:
        # keep stdout parseable as CSV; the summary goes to stderr
        print(",".join(SCAN_COLUMNS))
        for row in rows:
            print(",".join(row))
        print(summary, file=sys.stderr)
    return 0


def _cmd_empirical(args) -> int:
    value = empirical_A1(args.m, args.M, args.X, _config_from_args(args))
    _emit_value(args, value, m=args.m, M=args.M, X=args.X)
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
                 f"(eta0 reading: {DEFAULT_CONFIG.eta0_reading}, "
                 f"phi conductor reading: {DEFAULT_CONFIG.phi_reading})"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", help="single class number H(D)")
    p.add_argument("D", type=int)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("hurwitz-table", help="table of H(D) for 0 <= D <= max")
    p.add_argument("--max", type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_hurwitz_table)

    p = sub.add_parser("moment", help="k-th moment over the class m mod M")
    for flag in ("--k", "--m", "--M", "--n"):
        p.add_argument(flag, type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("lambda", help="divisor-pair correction sum")
    for flag in ("--k", "--m", "--M", "--n"):
        p.add_argument(flag, type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("main-term", help="Eisenstein main term at n")
    for flag in ("--m", "--M", "--n"):
        p.add_argument(flag, type=int, required=True)
    _add_format_flag(p)
    _add_reading_flags(p)
    p.set_defaults(func=_cmd_main_term)

    p = sub.add_parser("residual", help="cusp residual series up to max-n")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_format_flag(p)
    _add_reading_flags(p)
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("trace-moment",
                       help="moment of traces of Frobenius over F_{p^r}")
    for flag in ("--k", "--m", "--M", "--p", "--r"):
        p.add_argument(flag, type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_trace_moment)

    p = sub.add_parser("bias", help="size-graded bias average")
    p.add_argument("quantity", choices=("a1", "a2"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--route", choices=("closed", "chars"), default="closed")
    _add_format_flag(p)
    _add_reading_flags(p)
    p.set_defaults(func=_cmd_bias)

    p = sub.add_parser("scan", help="sign census over all classes with M <= X")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("empirical",
                       help="bias average over actual primes below X")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--X", type=int, required=True)
    _add_format_flag(p)
    _add_reading_flags(p)
    p.set_defaults(func=_cmd_empirical)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all", *SUITES))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
