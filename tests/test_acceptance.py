"""Acceptance suite: one test per criterion, exact arithmetic, fixed seed.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report) and asserts the underlying check.
"""

import pytest

from endoscopylab import selftest
from endoscopylab.selftest import (
    DEFAULT_SEED,
    CheckResult,
    check_degree_formula,
    check_dominance,
    check_exponent_pipeline,
    check_inner_forms,
    check_inversion,
    check_poincare_oracle,
    check_sarnak_xue,
    check_structure_counts,
    run_all,
)


def report(result):
    line = f"{'PASS' if result.passed else 'FAIL'}: {result.name} ({result.detail})"
    print(line)
    assert result.passed, line


def test_criterion_1_poincare_oracle():
    """Recurrence equals brute-force cell count, exhaustively and at random."""
    report(check_poincare_oracle(DEFAULT_SEED))


def test_criterion_2_degree_formula():
    """Closed-form lowest degree equals the packet minimum for N <= 9."""
    report(check_degree_formula())


def test_criterion_3_dominance():
    """Dominance inequality holds for exhaustive and random packets."""
    report(check_dominance(DEFAULT_SEED))


def test_criterion_4_inversion():
    """Recursion equals the chain sum with dyadic coefficients, N <= 6."""
    report(check_inversion())


def test_criterion_5_exponent_pipeline():
    """Derived exponent is N(N-2k) with the maximum at the dominant group."""
    report(check_exponent_pipeline())


def test_criterion_6_sarnak_xue():
    """Proved exponent stays within the allowance for all N <= 50."""
    report(check_sarnak_xue())


def test_criterion_7_structure_counts():
    """Group orders, bijection sizes, packet sizes, and the iota table."""
    report(check_structure_counts())


def test_criterion_8_inner_forms():
    """Valid inner-form specs have Kottwitz product +1; one flip breaks them."""
    report(check_inner_forms(DEFAULT_SEED))


def test_a_crashed_check_fails_alone(monkeypatch):
    # a plain exception in a check's body is that check's failure, named by
    # its function, and the other seven still run and pass
    def crash(N, k):
        raise RuntimeError("planted")

    monkeypatch.setattr(selftest, "sx_check", crash)
    results = run_all()
    crashed = [r for r in results if not r.passed]
    assert crashed == [CheckResult("sarnak_xue", False, "error: planted", crashed[0].elapsed_s)]
    assert crashed[0].elapsed_s > 0
    assert len(results) == 8 and results[5] is crashed[0]
