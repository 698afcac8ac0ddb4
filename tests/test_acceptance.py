"""Acceptance gates: each check suite must report zero failures.

One test per gate, in a fixed order; run with -v for one pass/fail
line per gate.  The suites themselves live in hurwitzbias.verify so
the CLI `verify` subcommand exercises exactly the same code.
"""

from hurwitzbias.verify import run_suite


def _run(name):
    report = run_suite(name)
    print(report.summary())
    detail = "; ".join(
        f"{f.inputs}: expected {f.expected}, got {f.got}"
        for f in report.failures[:5]
    )
    assert report.passed, f"{name}: {len(report.failures)} failures ({detail})"
    return report


def test_criterion_01_kronecker_hurwitz():
    _run("kronecker-hurwitz")


def test_criterion_02_progressions():
    _run("progressions")


def test_criterion_03_reduction_coefficients():
    _run("reduction-coefficients")


def test_criterion_04_gauss():
    _run("gauss")


def test_criterion_05_eisenstein():
    _run("eisenstein")


def test_criterion_06_boundary():
    _run("boundary")


def test_criterion_07_schoof():
    _run("schoof")


def test_criterion_08_moments():
    _run("moments")


def test_criterion_09_bias_routes():
    _run("bias-routes")


def test_criterion_10_signs():
    _run("signs")


def test_criterion_11_density():
    _run("density")


def test_criterion_12_equidistribution():
    _run("equidistribution")
