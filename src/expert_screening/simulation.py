"""Seeded Monte Carlo tournaments between expert types.

Acceptance is decided once per scenario (contracts are accepted before
any state is observed); trials are repeated draws of the same one-shot
game for statistical verification. Trials run in blocks of BLOCK; block b
draws all of its randomness from its own counter-based stream,
Philox(key=seed, counter=[0, 0, 0, b]), so results depend only on
(scenario, seed); within a block, each sampling expert's announcements
are one sample_from call (the layout RNG_LAYOUT names). Each block's
payoff mean and M2 are merged in block order with the pairwise update of
Chan, Golub & LeVeque (1979).
"""

import math
from dataclasses import dataclass

import numpy as np

# unused here, but bench/tracing.py rebinds chebyshev, realized_payoff, sample_simplex_uniform
from .analyzer import ACCEPT, REJECT, informed_guarantee, uninformed_maxmin
from .contracts import make_prop1_contract, make_prop2_contracts, realized_payoff
from .errors import InvalidScenario
from .plausible import Ball, chebyshev, sample_from
from .simplex import Forecast, StateSpace, sample_simplex_uniform

INFORMED = "informed"
UNINFORMED = "uninformed"
PARTIAL = "partial"

ANNOUNCE_TRUTH = "truth"
ANNOUNCE_CHEBYSHEV = "chebyshev"
ANNOUNCE_SAMPLE = "sample"

BLOCK = 4096                   # trials per counter-based stream
RNG_LAYOUT = "philox-block-v2"


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
        if type(self.seed) is not int or not 0 <= self.seed < 2**128:
            raise InvalidScenario("seed: must be an integer in [0, 2**128)")
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
            "rng_layout": RNG_LAYOUT,
        }


def block_rng(seed, b):
    """Generator of trial block b: b sits in the counter's high word, so no
    two blocks' streams can overlap."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, b]))


def sample_state(truth, rng):
    """Inverse-CDF draw of a state index from a forecast; the blocked
    tournament applies the same rule to a block of uniforms at once."""
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


def decide_acceptance(expert, contract):
    """Analyzer decision for one expert: (decision, value, report), where
    report is the exact MaxminReport of a non-informed expert (None for an
    informed one, whose guarantee is the margin)."""
    if expert.kind == INFORMED:
        value = informed_guarantee(contract)
        return (ACCEPT if value > 0 else REJECT), value, None
    report = uninformed_maxmin(expert.theta, contract)
    return report.decision, report.value, report


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


def block_payoffs(sc, contracts, decisions):
    """Yield each block's realized payoffs as a (2, B) array, in block order.

    Block b draws from block_rng(sc.seed, b): first the truths of a uniform
    nature (a (B, n) array of normalized standard exponentials), then B
    state uniforms, then each sampling expert's whole block, one
    sample_from(theta, rng, B) call per expert in expert order. Both experts
    announce every trial (a rejecting expert's announcement still defines
    the rival forecast for the other side); a rejecting expert's payoffs
    are 0.
    """
    n = sc.states.n
    static = []  # announced rows; None for truth and sampled blocks
    for expert, (_, _, report) in zip(sc.experts, decisions):
        if isinstance(expert.announce, Forecast):
            static.append(expert.announce.probs)
        elif expert.announce == ANNOUNCE_CHEBYSHEV:
            static.append(report.optimal_strategy.atoms[0][0].probs)
        else:
            static.append(None)
    sampled = [i for i, e in enumerate(sc.experts) if e.announce == ANNOUNCE_SAMPLE]
    for b, start in enumerate(range(0, sc.trials, BLOCK)):
        size = min(BLOCK, sc.trials - start)
        rng = block_rng(sc.seed, b)
        if sc.nature == "uniform":
            truth = rng.standard_exponential((size, n))
            truth /= truth.sum(axis=1, keepdims=True)
        else:
            truth = sc.nature.probs
        u = rng.random(size)
        # sample_state's inverse-CDF rule, one trial per row
        states = np.minimum((np.cumsum(truth, axis=-1) <= u[:, None]).sum(axis=1), n - 1)
        rows = [truth if a is None else a for a in static]
        for i in sampled:
            rows[i] = sample_from(sc.experts[i].theta, rng, size)
        at = [r[np.arange(size), states] if r.ndim == 2 else r[states] for r in rows]
        sq = [np.sum(r * r, axis=-1) for r in rows]
        pay = np.zeros((2, size))
        for i in range(2):
            if decisions[i][0] == ACCEPT:
                pay[i] = 2.0 * (at[i] - at[1 - i]) - sq[i] + sq[1 - i] + contracts[i].margin
        yield pay


def _merge(count, mean, m2, x):
    """Mean and M2 of `count` earlier payoffs merged with block x, by the
    pairwise update of Chan, Golub & LeVeque."""
    size = len(x)
    block_mean = float(x.mean())
    total = count + size
    delta = block_mean - mean
    return (mean + delta * (size / total),
            m2 + float(np.sum((x - block_mean) ** 2)) + delta * delta * (count * size / total))


def run_tournament(sc):
    """Run a seeded tournament and aggregate realized payoffs.

    Deterministic given (scenario, seed): see block_payoffs for the draws.
    Each uninformed expert's Chebyshev problem is solved once, in
    decide_acceptance, and a `chebyshev` announcement is that solve's center.
    """
    contracts = build_contracts(sc.contract_config)
    decisions = [decide_acceptance(e, c) for e, c in zip(sc.experts, contracts)]

    moments = [(0.0, 0.0), (0.0, 0.0)]
    count = 0
    for pay in block_payoffs(sc, contracts, decisions):
        moments = [_merge(count, mean, m2, x) for (mean, m2), x in zip(moments, pay)]
        count += pay.shape[1]
    stderr = [math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0 for _, m2 in moments]

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
            analyzer_certified=decisions[i][2] is None or decisions[i][2].certified,
            mean_payoff=moments[i][0],
            payoff_stderr=stderr[i],
        )
        for i in range(2)
    ]
    return SimulationReport(
        experts=results,
        screening_correct=screening_correct,
        trial_count=sc.trials,
        seed=sc.seed,
    )
