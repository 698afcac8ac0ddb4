"""Tests for the command line frontend: formats, schemas, exit codes."""

import argparse
import hashlib
import json
import math
import sys

import pytest

from hurwitzbias import cli, eisenstein, verify
from hurwitzbias.bias import A1_closed, a1_class_table, density_scan
from hurwitzbias.cli import build_parser, main
from hurwitzbias.hurwitz import ensure_table, lambda_moment, moment_H


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_value_commands(capsys):
    assert run(capsys, "hurwitz", "3") == (0, "1/3\n", "")
    assert run(capsys, "hurwitz", "0") == (0, "-1/12\n", "")
    assert run(capsys, "moment", "--k", "0", "--m", "0", "--M", "2", "--n", "5") \
        == (0, "6\n", "")
    assert run(capsys, "bias", "a1", "--m", "1", "--M", "3") == (0, "1/16\n", "")
    assert run(capsys, "trace-moment", "--k", "0", "--m", "1", "--M", "3",
               "--p", "5", "--r", "2") == (0, "37/4\n", "")
    code, out, _ = run(capsys, "main-term", "--m", "1", "--M", "1", "--n", "6")
    assert code == 0 and out == "24\n"


def read_int(text):
    """int(text) for any number of digits, read in blocks short enough for
    the interpreter's int-string limit."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        block = digits[i : i + 1000]
        value = value * 10 ** len(block) + int(block)
    return -value if text.startswith("-") else value


def test_exact_values_past_the_int_digit_limit(capsys):
    # a numerator of 4,500 digits, past CPython's default limit of 4,300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "moment", "--k", "1500", "--m", "1", "--M", "3",
                         "--n", "250000")
    assert (code, err) == (0, "")
    # an integer, so printed without "/1"
    assert read_int(out.rstrip("\n")) == moment_H(1500, 1, 3, 250000)
    # t = 4 adds 4^8000 H(0) = -4^8000/12: a value with a denominator
    code, out, err = run(capsys, "moment", "--k", "8000", "--m", "0", "--M", "4",
                         "--n", "4")
    assert (code, err) == (0, "")
    num, den = out.rstrip("\n").split("/")
    want = moment_H(8000, 0, 4, 4)
    assert (read_int(num), read_int(den)) == (want.numerator, want.denominator)
    code, out, err = run(capsys, "lambda", "--k", "100000", "--m", "1", "--M", "3",
                         "--n", "36", "--format", "json")
    assert (code, err) == (0, "")
    assert read_int(json.loads(out)["value"]) == lambda_moment(100000, 1, 3, 36)
    # the limit is lifted for those conversions only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_bias_routes_agree_through_cli(capsys):
    _, closed, _ = run(capsys, "bias", "a2", "--m", "1", "--M", "3")
    _, chars, _ = run(capsys, "bias", "a2", "--m", "1", "--M", "3",
                      "--route", "chars")
    assert abs(float(closed) - float(chars)) < 1e-9
    assert abs(float(closed) + 0.125) < 1e-12


def test_hurwitz_table(capsys):
    code, out, _ = run(capsys, "hurwitz-table", "--max", "4")
    assert code == 0
    assert out.splitlines() == ["0 -1/12", "1 0", "2 0", "3 1/3", "4 1/2"]


def test_parser_is_built_once_and_leaks_no_defaults(capsys):
    # main keeps one parser per process; each call must print what a freshly
    # built parser prints, whatever flags the call before it set
    sequence = (
        ("residual", "--m", "1", "--M", "6", "--max-n", "4", "--format", "json"),
        ("residual", "--m", "1", "--M", "6", "--max-n", "4"),
        ("bias", "a1", "--m", "2", "--M", "5", "--route", "chars"),
        ("bias", "a1", "--m", "2", "--M", "5"),
    )
    main(list(sequence[0]))
    parser = cli._parser
    capsys.readouterr()
    for argv in sequence:
        got = run(capsys, *argv)
        args = build_parser().parse_args(list(argv))
        want = (args.func(args), *capsys.readouterr())
        assert got == want, argv
        assert cli._parser is parser
    assert run(capsys, *sequence[1])[1].startswith("n,moment,lambda,main_term,residual\n")
    assert run(capsys, *sequence[3])[1] == "-5/96\n"


def test_hurwitz_table_matches_the_table_row_by_row(capsys):
    # past one block of rows, in text and in JSON
    n = cli._TABLE_BLOCK + 100
    table = ensure_table(n)
    want = [cli._fmt(table.value(d)) for d in range(n + 1)]
    code, out, err = run(capsys, "hurwitz-table", "--max", str(n))
    assert (code, err) == (0, "")
    assert out == "".join(f"{d} {v}\n" for d, v in enumerate(want))
    code, out, err = run(capsys, "hurwitz-table", "--max", str(n), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"max": n, "values": {str(d): v for d, v in enumerate(want)}}
    assert run(capsys, "hurwitz-table", "--max", "0") == (0, "0 -1/12\n", "")


def test_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "moment", "--k", "0", "--m", "1", "--M", "2",
                       "--n", "5", "--format", "json")
    assert code == 0
    body = out.rstrip("\n")
    assert json.dumps(json.loads(body), sort_keys=True, indent=2) == body
    assert json.loads(body)["value"] == "4"


def test_residual_schema_and_zero_class(capsys):
    code, out, _ = run(capsys, "residual", "--m", "1", "--M", "4",
                       "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,moment,lambda,main_term,residual"
    assert len(lines) == 4
    for line in lines[1:]:
        assert abs(float(line.split(",")[4])) < 1e-9


def test_residual_csv_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "res.csv"
    code, out, _ = run(capsys, "residual", "--m", "1", "--M", "6",
                       "--max-n", "4", "--out", str(target))
    assert code == 0 and "wrote 4 rows" in out
    data = target.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "n,moment,lambda,main_term,residual"
    # (1, 6) is not one of the vanishing classes
    assert abs(float(lines[1].split(",")[4])) > 1e-3
    # rows are written as they are computed: a failure at n = 3 exits 2
    # with its message and leaves the rows before it in the file
    main_term = eisenstein.main_term

    def failing(m, M, n):
        if n == 3:
            raise ArithmeticError("main term at n=3 strayed off the real axis")
        return main_term(m, M, n)

    monkeypatch.setattr(eisenstein, "main_term", failing)
    assert run(capsys, "residual", "--m", "1", "--M", "6", "--max-n", "4",
               "--out", str(target)) \
        == (2, "", "error: main term at n=3 strayed off the real axis\n")
    assert target.read_text(encoding="utf-8").splitlines() == lines[:3]


def test_residual_json_with_out_exits_two_and_writes_nothing(tmp_path, capsys):
    # --out writes CSV only, so asking for JSON there is a bad flag pair
    target = tmp_path / "res.json"
    code, out, err = run(capsys, "residual", "--m", "1", "--M", "6", "--max-n", "2",
                         "--format", "json", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_scan_examples(capsys):
    code, out, err = run(capsys, "scan", "--X", "2")
    assert code == 0
    assert out.splitlines() == [
        "m,M,a1_num,a1_den,sign",
        "1,1,0,1,0",
        "1,2,1,3,1",
        "2,2,-1,3,-1",
    ]
    assert "pairs 3" in err

    code, out, err = run(capsys, "scan", "--X", "1")
    assert out.splitlines()[1] == "1,1,0,1,0"


def test_scan_csv_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--X", "5", "--out", str(target))
    assert code == 0 and "pairs 15" in out
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,M,a1_num,a1_den,sign"
    assert len(lines) == 16


def test_scan_rows_match_closed_form_and_census(capsys):
    code, out, err = run(capsys, "scan", "--X", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,M,a1_num,a1_den,sign"
    signs = []
    for line in lines[1:]:
        m, M, num, den, sign = map(int, line.split(","))
        value = A1_closed(m, M)
        assert (num, den) == (value.numerator, value.denominator)
        assert sign == (value > 0) - (value < 0)
        signs.append(sign)
    report = density_scan(30)
    assert len(signs) == report.pairs
    assert (signs.count(1), signs.count(0), signs.count(-1)) \
        == (report.positive, report.zero, report.negative)
    assert err == (f"pairs {report.pairs} positive {report.positive_fraction:.4f} "
                   f"negative {report.negative_fraction:.4f} "
                   f"zero {report.zero_fraction:.4f}\n")


def _scan_block_per_m(M):
    """scan's rows for one modulus the way it once wrote them: one f-string
    per m, from the class index of every m in 1..M."""
    table = a1_class_table(M)
    suffixes = []
    for num in table.nums:
        g = math.gcd(num, table.den)
        suffixes.append(f",{M},{num // g},{table.den // g},{(num > 0) - (num < 0)}")
    return [f"{m}{suffixes[k]}" for m, k in zip(range(1, M + 1), table.index())]


def test_scan_rows_repeat_the_class_period_like_the_per_m_rows(capsys):
    # every M <= 32, among them M = 4, 8, 9, 12, 18, 27, 32 with M != rad M,
    # whose rows repeat one period of rad M suffixes M / rad M times
    code, out, _ = run(capsys, "scan", "--X", "32")
    assert code == 0
    want = ["m,M,a1_num,a1_den,sign"]
    for M in range(1, 33):
        want += _scan_block_per_m(M)
    assert out.splitlines() == want


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "boundary")
    assert code == 0
    assert out.startswith("pass boundary: 450 checks")


def test_runtime_bound_failure_path(capsys, monkeypatch):
    monkeypatch.setattr(verify, "RUNTIME_BOUNDS", {"boundary": 0})
    report = verify.run_suite("boundary")
    assert report.checks == 451
    assert [f.inputs for f in report.failures] == ["runtime"]
    code, out, _ = run(capsys, "verify", "boundary")
    assert code == 1
    assert out.startswith("FAIL boundary: 451 checks, 1 failures")
    assert "    runtime: expected < 0 s, got " in out


def test_moment_past_the_cap_exits_two_before_the_gather(capsys):
    # the class is gathered only after the table's cap is checked: t would
    # hold about 1.3 * 10^10 entries at n = 10^20 and 1.3 * 10^14 at n = 5^40,
    # the moment that trace-moment reads over F_q with q = 5^40
    for argv, d in (
            (("moment", "--k", "0", "--m", "1", "--M", "3", "--n",
              "100000000000000000000"), 4 * 10**20),
            (("trace-moment", "--k", "0", "--m", "1", "--M", "3", "--p", "5",
              "--r", "40"), 4 * 5**40)):
        err = f"error: d = {d} exceeds the class-number cap 50000000\n"
        assert run(capsys, *argv) == (2, "", err), argv


def test_flag_errors_exit_two(capsys):
    assert run(capsys, "moment", "--k", "0", "--m", "1", "--M", "0",
               "--n", "5")[0] == 2
    for argv in (("empirical", "--m", "1", "--M", "0", "--X", "100"),
                 ("empirical", "--m", "1", "--M", "-1", "--X", "100"),
                 ("residual", "--m", "1", "--M", "0", "--max-n", "5"),
                 ("main-term", "--m", "1", "--M", "0", "--n", "5")):
        assert run(capsys, *argv) == (2, "", "error: M must be >= 1\n"), argv
    char_cap = "error: modulus 10007 exceeds the character-enumeration cap 5000\n"
    for argv, err in (
            # empirical: no prime p <= X is coprime to M, so nothing is averaged
            (("empirical", "--m", "1", "--M", "2", "--X", "2"),
             "error: no prime p <= 2 is coprime to M = 2\n"),
            (("empirical", "--m", "1", "--M", "6", "--X", "3"),
             "error: no prime p <= 3 is coprime to M = 6\n"),
            # a prime sieve to X = 10^10 would need about 10 GB
            (("empirical", "--m", "1", "--M", "3", "--X", "10000000000"),
             "error: X = 10000000000 exceeds the prime-sieve cap 100000000\n"),
            (("trace-moment", "--k", "0", "--m", "1", "--M", "0", "--p", "5",
              "--r", "1"), "error: M must be >= 1\n"),
            (("trace-moment", "--k", "0", "--m", "1", "--M", "-3", "--p", "5",
              "--r", "1"), "error: M must be >= 1\n"),
            # both A1 routes reject the excluded class, like A2 and empirical
            (("bias", "a1", "--m", "0", "--M", "5"),
             "error: the residue m = 0 is excluded\n"),
            (("bias", "a1", "--m", "0", "--M", "5", "--route", "chars"),
             "error: the residue m = 0 is excluded\n"),
            (("bias", "a2", "--m", "0", "--M", "5"),
             "error: the residue m = 0 is excluded\n"),
            # past these caps the direct form enumeration would run for
            # hours and the divisor scan for about a minute
            (("hurwitz", "10000000000003"),
             "error: d = 10000000000003 exceeds the class-number cap 50000000\n"),
            # the table for these would pass the same cap; residual rejects
            # --max-n up front instead of failing at n = 12500001
            (("moment", "--k", "0", "--m", "1", "--M", "3", "--n", "20000000"),
             "error: d = 80000000 exceeds the class-number cap 50000000\n"),
            (("hurwitz-table", "--max", "60000000"),
             "error: d = 60000000 exceeds the class-number cap 50000000\n"),
            (("residual", "--m", "1", "--M", "3", "--max-n", "20000000"),
             "error: --max-n must be <= 12500000\n"),
            (("lambda", "--k", "0", "--m", "1", "--M", "3", "--n",
              "1000000000000000000"),
             "error: n = 1000000000000000000 exceeds the divisor-scan cap "
             "100000000000000\n"),
            # these enumerate every character of every divisor of M, about
            # M^2 steps: past the cap they would run for minutes
            (("bias", "a2", "--route", "chars", "--m", "1", "--M", "10007"), char_cap),
            (("bias", "a1", "--route", "chars", "--m", "1", "--M", "10007"), char_cap),
            (("main-term", "--m", "1", "--M", "10007", "--n", "5"), char_cap),
            (("empirical", "--m", "1", "--M", "10007", "--X", "1000"), char_cap),
            # scan writes every row, so it keeps its cap while density_scan's is lifted
            (("scan", "--X", "0"), "error: X must lie in 1..5000\n"),
            (("scan", "--X", "5001"), "error: X must lie in 1..5000\n")):
        assert run(capsys, *argv) == (2, "", err), argv
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    # the main term has one reading, so no flag selects it
    for flag in (("--eta0-reading", "eta"), ("--phi-reading", "eta_tilde")):
        with pytest.raises(SystemExit) as exc:
            main(["main-term", "--m", "3", "--M", "13", "--n", "97", *flag])
        assert exc.value.code == 2, flag
    with pytest.raises(SystemExit) as exc:
        main(["moment", "--k", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2


def test_version_banner_records_readings(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "eta0 reading: eta" in out
    assert "phi conductor reading: eta_tilde" in out


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of stdout. The CLI contract keeps these bytes, so a change to any
# of them is a contract change, not a refactor.
GOLDEN_STDOUT = {
    ("residual", "--m", "1", "--M", "7", "--max-n", "200"):
        "43a39d726dbe8a13ca5073110567d97915e61824659afb2f31691bf2eec4d546",
    ("residual", "--m", "5", "--M", "12", "--max-n", "200"):
        "933a080d93d188c95fd984f3212a51ceeb65d67a3f485ba293a6236ba1c6e5eb",
    ("residual", "--m", "1", "--M", "7", "--max-n", "50", "--format", "json"):
        "ee007646dd3d7ba57afb621b2051e9b1b262329f3328b9e2f6217aea36aa1c1c",
    ("bias", "a2", "--m", "7", "--M", "30"):
        "37e8a462ecc04c2378a8dedc6f45539f8a5d2d30249a1aba88a747e6355df16b",
    ("bias", "a2", "--m", "2", "--M", "5", "--route", "chars"):
        "35cb5ac9761afabe150f412c57b2a95b5c1f3de9edbece12f5b5608fb49b94a0",
    ("main-term", "--m", "3", "--M", "13", "--n", "97"):
        "9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25",
}
SCAN_300_CSV = "78ea7b920d9df00ad0df2791753a3ad16fc9d99b38d01d833431a1266c630dcb"
SCAN_300_SUMMARY = "pairs 45150 positive 0.4321 negative 0.5678 zero 0.0000\n"
VERSION_BANNER = \
    "hurwitzbias 0.1.0 (eta0 reading: eta, phi conductor reading: eta_tilde)\n"


def test_golden_outputs(capsys):
    for argv, digest in GOLDEN_STDOUT.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert _sha256(out) == digest, argv
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERSION_BANNER


def test_golden_scan(tmp_path, capsys):
    code, out, err = run(capsys, "scan", "--X", "300")
    assert code == 0
    assert _sha256(out) == SCAN_300_CSV
    assert err == SCAN_300_SUMMARY
    target = tmp_path / "scan.csv"
    code, out, err = run(capsys, "scan", "--X", "300", "--out", str(target))
    assert (code, err) == (0, "")
    assert out == f"wrote 45150 rows to {target}\n" + SCAN_300_SUMMARY
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SCAN_300_CSV


def _int_flag(flag, dest=None):
    return ((flag,), dest or flag[2:], int, True, None, None, None)


_HELP = (("-h", "--help"), "help", None, False, None, argparse.SUPPRESS, 0)
_FORMAT = (("--format",), "format", None, False, ("text", "json"), "text", None)
_OUT = (("--out",), "out", None, False, None, None, None)
# every subcommand in its registration order, with its help and every
# action's (option_strings, dest, type, required, choices, default, nargs)
PARSER_SHAPE = {
    ("hurwitz", "single class number H(D)"):
        [_HELP, ((), "D", int, True, None, None, None), _FORMAT],
    ("hurwitz-table", "table of H(D) for 0 <= D <= max"):
        [_HELP, _int_flag("--max"), _FORMAT],
    ("moment", "k-th moment over the class m mod M"):
        [_HELP, *map(_int_flag, ("--k", "--m", "--M", "--n")), _FORMAT],
    ("lambda", "divisor-pair correction sum"):
        [_HELP, *map(_int_flag, ("--k", "--m", "--M", "--n")), _FORMAT],
    ("main-term", "Eisenstein main term at n"):
        [_HELP, *map(_int_flag, ("--m", "--M", "--n")), _FORMAT],
    ("residual", "cusp residual series up to max-n"):
        [_HELP, _int_flag("--m"), _int_flag("--M"), _int_flag("--max-n", "max_n"),
         _OUT, _FORMAT],
    ("trace-moment", "moment of traces of Frobenius over F_{p^r}"):
        [_HELP, *map(_int_flag, ("--k", "--m", "--M", "--p", "--r")), _FORMAT],
    ("bias", "size-graded bias average"):
        [_HELP, ((), "quantity", None, True, ("a1", "a2"), None, None),
         _int_flag("--m"), _int_flag("--M"),
         (("--route",), "route", None, False, ("closed", "chars"), "closed", None),
         _FORMAT],
    ("scan", "sign census over all classes with M <= X"):
        [_HELP, _int_flag("--X"), _OUT],
    ("empirical", "bias average over actual primes below X"):
        [_HELP, *map(_int_flag, ("--m", "--M", "--X")), _FORMAT],
    ("verify", "run self-check suites"):
        [_HELP, ((), "suite", None, False,
                 ("all", "kronecker-hurwitz", "progressions",
                  "reduction-coefficients", "gauss", "eisenstein", "boundary",
                  "schoof", "moments", "bias-routes", "signs", "density",
                  "equidistribution"), "all", "?")],
}


def test_parser_shape():
    # structure rather than --help text, which depends on the terminal
    # width and the Python version
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [(c.dest, c.help) for c in sub._choices_actions] == list(PARSER_SHAPE)
    for (name, _), actions in PARSER_SHAPE.items():
        shape = [(tuple(a.option_strings), a.dest, a.type, a.required,
                  None if a.choices is None else tuple(a.choices), a.default,
                  a.nargs) for a in sub.choices[name]._actions]
        assert shape == actions, name
