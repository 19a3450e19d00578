"""Acceptance gate: every property check of `verify.CHECKS`, in full mode.

`pytest tests/test_acceptance.py -s` prints one line per check with its
detail; `expert-screen verify` runs the same checks from the CLI. The
checks for acceptance criteria 4, 5, 6 and 9 run under their criterion
names; every other check runs once under `test_check[<name>]`.
"""

import pytest

from expert_screening.verify import CHECKS

BY_CRITERION = {
    "maxmin-exact-vs-oracle",
    "safe-epsilon-screening",
    "paper-epsilon-counterexample",
    "eq1-reduction-audit",
}


def _run(name, check):
    ok, detail = check(quick=False)
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def _run_named(name):
    _run(name, dict(CHECKS)[name])


@pytest.mark.parametrize(
    "name,check",
    [(name, check) for name, check in CHECKS if name not in BY_CRITERION],
    ids=[name for name, _ in CHECKS if name not in BY_CRITERION],
)
def test_check(name, check):
    _run(name, check)


def test_criterion_4_exact_vs_oracle():
    _run_named("maxmin-exact-vs-oracle")


def test_criterion_5_corrected_screening():
    _run_named("safe-epsilon-screening")


def test_criterion_6_paper_epsilon_counterexample():
    _run_named("paper-epsilon-counterexample")


def test_criterion_9_eq1_reduction_audit():
    _run_named("eq1-reduction-audit")
