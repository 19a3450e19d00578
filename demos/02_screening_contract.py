"""Walkthrough: a contract that informed experts accept and uninformed reject.

The contract pays the Brier-score difference between the two experts'
forecasts plus a margin. An informed (truth-knowing) expert is guaranteed
the margin. An uncertainty-averse uninformed expert evaluates the worst
case over their plausible set and over rival strategies; that worst case
equals margin minus the squared Chebyshev radius of the plausible set.

The margin matters. Setting it to half the squared distance between two
plausible witness forecasts is NOT small enough: for a two-point set the
squared Chebyshev radius is only a quarter of the squared distance, so
the uninformed expert nets a strictly positive worst case and accepts.
An eighth of the squared witness distance sits strictly below the
quarter-diameter rejection threshold and restores screening. The exact
analyzer and the brute-force grid oracle below agree on both counts.
"""

from expert_screening import (
    FiniteSet,
    Forecast,
    PAPER_EPSILON,
    SAFE_EPSILON,
    chebyshev,
    informed_guarantee,
    make_prop1_contract,
    oracle_maxmin,
    uninformed_maxmin,
)

fx = Forecast([0.9, 0.1])
fy = Forecast([0.2, 0.8])
theta = FiniteSet((fx, fy))

res = chebyshev(theta)
print(f"plausible set: {{{fx.probs.tolist()}, {fy.probs.tolist()}}}")
print(f"chebyshev center {res.center.probs.tolist()}, radius^2 {res.radius_sq:.4f}\n")

for policy in (SAFE_EPSILON, PAPER_EPSILON):
    contract = make_prop1_contract(fx, fy, policy)
    exact = uninformed_maxmin(theta, contract)
    oracle = oracle_maxmin(theta, contract, grid_k=50)
    print(f"margin policy {policy}: margin = {contract.margin:.4f}")
    print(f"  informed guarantee:        {informed_guarantee(contract):+.4f}  (accepts)")
    print(f"  uninformed maxmin (exact): {exact.value:+.4f}  -> {exact.decision}")
    print(f"  uninformed maxmin (oracle k=50): {oracle.value:+.4f}  -> {oracle.decision}")
    if exact.decision == "accept":
        print("  screening FAILS at this margin: the best reply is a point mass")
        print(f"  at the chebyshev center, {exact.optimal_strategy.probs.tolist()}")
    else:
        print("  screening holds: worst case is the truth at "
              f"{exact.worst_case_truth.probs.tolist()}")
    print()
