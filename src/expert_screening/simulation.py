"""Seeded Monte Carlo tournaments between expert types.

Acceptance is decided once per scenario (contracts are accepted before
any state is observed); trials are repeated draws of the same one-shot
game for statistical verification. Each trial's randomness derives from
(seed, trial index), so results are independent of execution order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analyzer import ACCEPT, REJECT, informed_guarantee, uninformed_maxmin
from .contracts import make_prop1_contract, make_prop2_contracts, realized_payoff
from .errors import InvalidScenario
from .plausible import Ball, FiniteSet, chebyshev, sample_from
from .simplex import Forecast, StateSpace, sample_simplex_uniform

INFORMED = "informed"
UNINFORMED = "uninformed"
PARTIAL = "partial"

ANNOUNCE_TRUTH = "truth"
ANNOUNCE_CHEBYSHEV = "chebyshev"
ANNOUNCE_SAMPLE = "sample"


@dataclass(frozen=True)
class ExpertSpec:
    id: str
    kind: str                      # informed | uninformed | partial
    theta: object = None           # FiniteSet | Ball for non-informed kinds
    announce: object = ANNOUNCE_TRUTH  # policy name or a fixed Forecast

    def __post_init__(self):
        if self.kind not in (INFORMED, UNINFORMED, PARTIAL):
            raise InvalidScenario(f"expert {self.id}: unknown kind {self.kind!r}")
        if self.kind == INFORMED:
            if self.announce != ANNOUNCE_TRUTH:
                raise InvalidScenario(
                    f"expert {self.id}: informed experts must announce the truth"
                )
            if self.theta is not None:
                raise InvalidScenario(
                    f"expert {self.id}: informed experts carry no plausible set"
                )
        else:
            if self.theta is None:
                raise InvalidScenario(f"expert {self.id}: missing plausible set")
            if self.announce == ANNOUNCE_TRUTH:
                raise InvalidScenario(
                    f"expert {self.id}: uninformed experts cannot announce the truth"
                )
            if self.kind == PARTIAL and not isinstance(self.theta, Ball):
                raise InvalidScenario(
                    f"expert {self.id}: partially informed experts need a ball set"
                )


@dataclass(frozen=True)
class Prop1Config:
    policy: str
    witnesses: tuple
    margin: float = None


@dataclass(frozen=True)
class Prop2Config:
    eps1: float
    eps2: float
    gamma: float


@dataclass(frozen=True)
class Scenario:
    states: StateSpace
    nature: object            # Forecast (fixed) or "uniform"
    experts: tuple            # exactly 2 ExpertSpec
    contract_config: object   # Prop1Config | Prop2Config
    trials: int
    seed: int

    def __post_init__(self):
        if len(self.experts) != 2:
            raise InvalidScenario("experts: exactly 2 experts required")
        # exact type checks, because bool is an int subclass
        if type(self.trials) is not int or self.trials < 1:
            raise InvalidScenario("trials: must be a positive integer")
        if type(self.seed) is not int or self.seed < 0:
            raise InvalidScenario("seed: must be a non-negative integer")
        if self.nature != "uniform" and not isinstance(self.nature, Forecast):
            raise InvalidScenario("nature: must be 'uniform' or a fixed forecast")


@dataclass
class ExpertResult:
    id: str
    kind: str
    decision: str
    analyzer_value: float
    analyzer_certified: bool
    mean_payoff: float
    payoff_stderr: float


@dataclass
class SimulationReport:
    experts: list
    screening_correct: bool
    trial_count: int
    seed: int

    def to_dict(self):
        return {
            "experts": [
                {
                    "id": e.id,
                    "kind": e.kind,
                    "decision": e.decision,
                    "analyzer_value": {"value": e.analyzer_value, "method": "exact"},
                    "mean_payoff": {"value": e.mean_payoff, "method": "monte_carlo"},
                    "payoff_stderr": {"value": e.payoff_stderr, "method": "monte_carlo"},
                }
                for e in self.experts
            ],
            "screening_correct": self.screening_correct,
            "trial_count": self.trial_count,
            "seed": self.seed,
        }


class _Welford:
    """Streaming mean/variance; memory stays flat at large trial counts."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def stderr(self):
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


def sample_state(truth, rng):
    """Inverse-CDF draw of a state index from a forecast."""
    u = float(rng.random())
    cdf = np.cumsum(truth.probs)
    return int(min(np.searchsorted(cdf, u, side="right"), truth.n - 1))


def build_contracts(config):
    """Contracts for experts (first, second) from a scenario contract config."""
    if isinstance(config, Prop1Config):
        fx, fy = config.witnesses
        c = make_prop1_contract(fx, fy, config.policy, margin=config.margin)
        return c, c
    if isinstance(config, Prop2Config):
        return make_prop2_contracts(config.eps1, config.eps2, config.gamma)
    raise InvalidScenario("contract: unknown contract configuration")


def decide_acceptance(expert, contract, tol=1e-8):
    """Analyzer decision for one expert: (decision, value, certified)."""
    if expert.kind == INFORMED:
        value = informed_guarantee(contract)
        return (ACCEPT if value > 0 else REJECT), value, True
    report = uninformed_maxmin(expert.theta, contract, tol=tol)
    return report.decision, report.value, report.certified


def _expected_roles(experts):
    """Which expert should accept under correct screening."""
    kinds = [e.kind for e in experts]
    roles = {}
    if all(k == PARTIAL for k in kinds):
        radii = [e.theta.radius for e in experts]
        for e, r in zip(experts, radii):
            roles[e.id] = ACCEPT if r == min(radii) and radii[0] != radii[1] else REJECT
        return roles
    for e in experts:
        roles[e.id] = ACCEPT if e.kind == INFORMED else REJECT
    return roles


def run_tournament(sc):
    """Run a seeded tournament and aggregate realized payoffs.

    Both experts announce every trial (a rejecting expert's announcement
    still defines the rival forecast for the other side), but rejecting
    experts record payoff 0. Deterministic given (scenario, seed).
    """
    c1, c2 = build_contracts(sc.contract_config)
    contracts = (c1, c2)

    decisions = []
    for expert, contract in zip(sc.experts, contracts):
        decisions.append(decide_acceptance(expert, contract))

    # precompute static announcements
    static_announce = []
    for expert in sc.experts:
        if isinstance(expert.announce, Forecast):
            static_announce.append(expert.announce)
        elif expert.announce == ANNOUNCE_CHEBYSHEV:
            static_announce.append(chebyshev(expert.theta).center)
        else:
            static_announce.append(None)  # truth or per-trial sample

    stats = [_Welford(), _Welford()]
    for t in range(sc.trials):
        rng = np.random.default_rng([sc.seed, t])
        truth = (
            sample_simplex_uniform(sc.states, rng)
            if sc.nature == "uniform"
            else sc.nature
        )
        announced = []
        for i, expert in enumerate(sc.experts):
            if static_announce[i] is not None:
                announced.append(static_announce[i])
            elif expert.announce == ANNOUNCE_TRUTH:
                announced.append(truth)
            else:
                announced.append(sample_from(expert.theta, rng))
        s = sample_state(truth, rng)
        for i in range(2):
            if decisions[i][0] == ACCEPT:
                own, rival = announced[i], announced[1 - i]
                stats[i].add(realized_payoff(contracts[i], own, rival, s))
            else:
                stats[i].add(0.0)

    roles = _expected_roles(sc.experts)
    screening_correct = all(
        decisions[i][0] == roles[sc.experts[i].id] for i in range(2)
    )

    results = [
        ExpertResult(
            id=sc.experts[i].id,
            kind=sc.experts[i].kind,
            decision=decisions[i][0],
            analyzer_value=decisions[i][1],
            analyzer_certified=decisions[i][2],
            mean_payoff=stats[i].mean,
            payoff_stderr=stats[i].stderr,
        )
        for i in range(2)
    ]
    return SimulationReport(
        experts=results,
        screening_correct=screening_correct,
        trial_count=sc.trials,
        seed=sc.seed,
    )
