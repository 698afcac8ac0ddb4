"""Tests for the command line frontend: formats, schemas, exit codes."""

import json

import pytest

from hurwitzbias.bias import A1_closed, density_scan
from hurwitzbias.cli import main


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


def test_residual_csv_file(tmp_path, capsys):
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


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "boundary")
    assert code == 0
    assert out.startswith("pass boundary: 450 checks")


def test_flag_errors_exit_two(capsys):
    assert run(capsys, "moment", "--k", "0", "--m", "1", "--M", "0",
               "--n", "5")[0] == 2
    for argv in (("empirical", "--m", "1", "--M", "0", "--X", "100"),
                 ("empirical", "--m", "1", "--M", "-1", "--X", "100"),
                 ("residual", "--m", "1", "--M", "0", "--max-n", "5"),
                 ("main-term", "--m", "1", "--M", "0", "--n", "5")):
        assert run(capsys, *argv) == (2, "", "error: M must be >= 1\n"), argv
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
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
