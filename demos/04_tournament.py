"""Walkthrough: seeded Monte Carlo tournaments between expert types.

Acceptance is decided once, before any state is observed; the trials are
repeated draws of the same one-shot game so empirical payoffs can be
checked against the analyzer's expectations. Trials run in blocks, each
drawn from its own counter-based stream keyed by the seed and the block
index, and the blocks' payoff moments are merged in block order, so
reruns are byte-identical.
"""

import json

from expert_screening import (
    Ball,
    ExpertSpec,
    FiniteSet,
    Forecast,
    Prop1Config,
    Prop2Config,
    SAFE_EPSILON,
    Scenario,
    StateSpace,
    run_tournament,
)

space = StateSpace(("up", "down"))
fx, fy = Forecast([1, 0]), Forecast([0, 1])

informed_vs_uninformed = Scenario(
    states=space,
    nature=Forecast([0.7, 0.3]),
    experts=(
        ExpertSpec(id="alice", kind="informed"),
        ExpertSpec(
            id="bob",
            kind="uninformed",
            theta=FiniteSet((fx, fy)),
            announce="chebyshev",
        ),
    ),
    contract_config=Prop1Config(policy=SAFE_EPSILON, witnesses=(fx, fy)),
    trials=50000,
    seed=7,
)

report = run_tournament(informed_vs_uninformed)
print("informed vs uninformed, safe margin, 50k trials:")
for e in report.experts:
    print(
        f"  {e.id:>6} ({e.kind}): {e.decision}; analyzer value {e.analyzer_value:+.4f}; "
        f"mean payoff {e.mean_payoff:+.4f} +/- {e.payoff_stderr:.4f}"
    )
print(f"  screening correct: {report.screening_correct}\n")

partial_pair = Scenario(
    states=StateSpace(("a", "b", "c")),
    nature="uniform",
    experts=(
        ExpertSpec(
            id="sharp",
            kind="partial",
            theta=Ball(Forecast([0.45, 0.35, 0.20]), 0.10),
            announce="chebyshev",
        ),
        ExpertSpec(
            id="blurry",
            kind="partial",
            theta=Ball(Forecast([0.40, 0.32, 0.28]), 0.30),
            announce="sample",
        ),
    ),
    contract_config=Prop2Config(eps1=0.10, eps2=0.30, gamma=0.05),
    trials=20000,
    seed=42,
)

report = run_tournament(partial_pair)
print("two partially informed experts, uniform nature, 20k trials:")
for e in report.experts:
    print(
        f"  {e.id:>6} ({e.kind}): {e.decision}; analyzer value {e.analyzer_value:+.4f}; "
        f"mean payoff {e.mean_payoff:+.4f} +/- {e.payoff_stderr:.4f}"
    )
print(f"  screening correct: {report.screening_correct}\n")

again = run_tournament(partial_pair)
same = json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
    again.to_dict(), sort_keys=True
)
print(f"rerun with the same seed is byte-identical: {same}")
