"""Acceptance gate: every property check of `verify.CHECKS`, in full mode.

`pytest tests/test_acceptance.py -s` prints one line per check with its
detail; `expert-screen verify` runs the same checks from the CLI. The
checks for acceptance criteria 4, 5, 6 and 9 run under their criterion
names; every other check runs once under `test_check[<name>]`.
"""

import pytest

from expert_screening import verify
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


def test_informed_guarantee_fails_on_a_short_payoff(monkeypatch):
    # the check reads the truthful payoff at the grid rival nearest the
    # truth; 1e-6 short of margin + that rival's distance^2 must fail it
    payoff = verify.expected_payoff
    monkeypatch.setattr(verify, "expected_payoff", lambda *args: payoff(*args) - 1e-6)
    ok, _ = verify.check_informed_guarantee(quick=True)
    assert not ok
