"""Seeded Monte Carlo tournaments between expert types.

Acceptance is decided once per scenario (contracts are accepted before
any state is observed); trials are repeated draws of the same one-shot
game for statistical verification. Trials run in blocks of BLOCK; block b
draws all of its randomness from its own counter-based stream,
Philox(key=seed, counter=[0, 0, 0, b]), so results depend only on
(scenario, seed) (the layout RNG_LAYOUT names). With a fixed nature and no
sampling expert, a payoff depends only on the state, so a block is one
multinomial draw of state counts read against a per-state payoff table.
Otherwise a block draws per-trial states: by binary search on a fixed
nature's CDF, or under a uniform nature by counting, one state column at a
time, the per-trial CDF entries at or below the uniform; each sampling
expert's announcements are one sample_from call. Every row sum adds the
columns in order. Each block's payoff size, mean and M2 are merged in
block order with the pairwise update of Chan, Golub & LeVeque (1979).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

# unused here, but bench/tracing.py rebinds chebyshev, realized_payoff, sample_simplex_uniform
from .analyzer import ACCEPT, REJECT, informed_guarantee, uninformed_maxmin
from .contracts import FIXED_MARGIN, make_prop1_contract, make_prop2_contracts, realized_payoff
from .errors import InvalidScenario
from .plausible import Ball, FiniteSet, chebyshev, sample_from
from .simplex import Forecast, StateSpace, sample_simplex_uniform

INFORMED = "informed"
UNINFORMED = "uninformed"
PARTIAL = "partial"

ANNOUNCE_TRUTH = "truth"
ANNOUNCE_CHEBYSHEV = "chebyshev"
ANNOUNCE_SAMPLE = "sample"
ANNOUNCE_POLICIES = (ANNOUNCE_TRUTH, ANNOUNCE_CHEBYSHEV, ANNOUNCE_SAMPLE)

BLOCK = 4096                   # trials per counter-based stream
RNG_LAYOUT = "philox-block-v3"


def _finite_number(x, where):
    """x as a finite float; a bool, a non-number or an infinity raises
    InvalidScenario naming `where`."""
    if type(x) is float and math.isfinite(x):
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidScenario(f"{where}: expected a number")
    try:
        value = float(x)  # an int past float range raises OverflowError
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidScenario(f"{where}: number must be finite")
    return value


@dataclass(frozen=True)
class ExpertSpec:
    id: str
    kind: str                      # informed | uninformed | partial
    theta: object = None           # FiniteSet | Ball for non-informed kinds
    announce: object = None        # policy name or a fixed Forecast; None: by kind

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidScenario(f"expert id: expected a non-empty string, got {self.id!r}")
        if not isinstance(self.kind, str) or self.kind not in (INFORMED, UNINFORMED, PARTIAL):
            raise InvalidScenario(
                f"expert {self.id}: kind must be 'informed', 'uninformed', or 'partial'"
            )
        if self.announce is None:
            default = ANNOUNCE_TRUTH if self.kind == INFORMED else ANNOUNCE_CHEBYSHEV
            object.__setattr__(self, "announce", default)
        if not isinstance(self.announce, Forecast) and not (
            isinstance(self.announce, str) and self.announce in ANNOUNCE_POLICIES
        ):
            raise InvalidScenario(f"expert {self.id}: announce must be 'truth', "
                                  "'chebyshev', 'sample', or {'fixed': [...]}")
        if self.kind == INFORMED:
            if self.theta is not None:
                raise InvalidScenario(f"expert {self.id}: informed experts take no theta")
            if self.announce != ANNOUNCE_TRUTH:
                raise InvalidScenario(
                    f"expert {self.id}: informed experts must announce the truth"
                )
        else:
            if not isinstance(self.theta, (FiniteSet, Ball)):
                raise InvalidScenario(
                    f"expert {self.id}: theta required for kind '{self.kind}'"
                )
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
    """Checked once, by building its contract; a ValueError names the field."""

    policy: str
    witnesses: tuple
    margin: float = None

    def __post_init__(self):
        if not isinstance(self.policy, str):
            raise InvalidScenario("contract.policy: expected a policy name")
        w = self.witnesses
        if not (isinstance(w, tuple) and len(w) == 2
                and all(isinstance(f, Forecast) for f in w)):
            raise InvalidScenario("contract.witnesses: expected a pair of forecasts")
        if self.margin is not None:
            object.__setattr__(self, "margin", _finite_number(self.margin, "contract.margin"))
        try:
            make_prop1_contract(*w, self.policy, margin=self.margin)
        except ValueError as exc:
            field = "margin" if self.policy == FIXED_MARGIN else "policy"
            raise InvalidScenario(f"contract.{field}: {exc}") from exc
        if self.margin is not None and self.policy != FIXED_MARGIN:
            raise InvalidScenario(f"contract.margin: the {self.policy} policy sets its own "
                                  f"margin; only {FIXED_MARGIN} takes one")


@dataclass(frozen=True)
class Prop2Config:
    """Checked once: finite numbers, stored as floats, that make contracts."""

    eps1: float
    eps2: float
    gamma: float

    def __post_init__(self):
        for name in ("eps1", "eps2", "gamma"):
            value = _finite_number(getattr(self, name), f"contract.{name}")
            object.__setattr__(self, name, value)
        make_prop2_contracts(self.eps1, self.eps2, self.gamma)


@dataclass(frozen=True)
class Scenario:
    states: StateSpace
    nature: object            # Forecast (fixed) or "uniform"
    experts: tuple            # exactly 2 ExpertSpec
    contract_config: object   # Prop1Config | Prop2Config
    trials: int
    seed: int

    def __post_init__(self):
        # isinstance checks only: dataclasses.replace runs these per tournament
        if not isinstance(self.states, StateSpace):
            raise InvalidScenario("states: expected a StateSpace")
        if not (isinstance(self.experts, tuple) and len(self.experts) == 2
                and all(isinstance(e, ExpertSpec) for e in self.experts)):
            raise InvalidScenario("experts: exactly 2 experts required, a tuple of ExpertSpec")
        if not isinstance(self.contract_config, (Prop1Config, Prop2Config)):
            raise InvalidScenario("contract: expected a Prop1Config or a Prop2Config")
        if self.experts[0].id == self.experts[1].id:
            raise InvalidScenario("experts: ids must be distinct")
        # exact type checks, because bool is an int subclass
        if type(self.trials) is not int or self.trials < 1:
            raise InvalidScenario("trials: must be a positive integer")
        if type(self.seed) is not int or not 0 <= self.seed < 2**128:
            raise InvalidScenario("seed: must be an integer in [0, 2**128)")
        # isinstance first: an array compared with "uniform" has no truth value
        n = self.states.n
        if isinstance(self.nature, Forecast):
            if self.nature.n != n:
                raise InvalidScenario(f"nature: a forecast on {self.nature.n} states, "
                                      f"the scenario has {n}")
        elif not (isinstance(self.nature, str) and self.nature == "uniform"):
            raise InvalidScenario("nature: must be 'uniform' or a fixed forecast")
        for e in self.experts:
            if e.theta is not None and e.theta.n != n:
                raise InvalidScenario(f"expert {e.id}: theta on {e.theta.n} states, "
                                      f"the scenario has {n}")
            if isinstance(e.announce, Forecast) and e.announce.n != n:
                raise InvalidScenario(f"expert {e.id}: a fixed announcement on "
                                      f"{e.announce.n} states, the scenario has {n}")
        if (isinstance(self.contract_config, Prop1Config)
                and self.contract_config.witnesses[0].n != n):
            raise InvalidScenario(f"contract.witnesses: expected 2 forecasts on "
                                  f"the scenario's {n} states")


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


def inverse_cdf(cdf, u):
    """State indices of the uniforms u under a forecast whose cumulative
    sums are cdf: the number of entries at or below u, at most n - 1 (a
    cdf that rounds below 1 leaves u above its last entry)."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def sample_state(truth, rng):
    """Inverse-CDF draw of one state index from a forecast."""
    return int(inverse_cdf(np.cumsum(truth.probs), float(rng.random())))


def _row_sums(x):
    """Sums over the last axis of x, adding the columns in order: the last
    column of np.cumsum(x, axis=-1) bit for bit. numpy's pairwise row sum
    gives the same bits only below 8 columns, and is slower on short rows."""
    s = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        s += x[..., j]
    return s


def _uniform_states(truth, u):
    """inverse_cdf of each row of the (B, n) truths at its own uniform: the
    CDF is built one column at a time, the sequential sums of np.cumsum, and
    only its first n - 1 columns are counted, which is the clamp."""
    cdf = truth[:, 0].copy()
    states = (cdf <= u).astype(np.intp)
    for j in range(1, truth.shape[1] - 1):
        cdf += truth[:, j]
        states += cdf <= u
    return states


def _payoffs(at, sq, contracts, accept):
    """Brier-difference payoffs margin + 2(a_i[s] - a_j[s]) - |a_i|^2 +
    |a_j|^2 from each expert's announced probability of the state (at) and
    squared norm (sq); 0 for a rejecting expert."""
    pay = np.zeros((2, len(at[0])))
    for i in range(2):
        if accept[i]:
            pay[i] = 2.0 * (at[i] - at[1 - i]) - sq[i] + sq[1 - i] + contracts[i].margin
    return pay


def build_contracts(config):
    """Contracts for experts (first, second) from a scenario contract config."""
    if isinstance(config, Prop1Config):
        fx, fy = config.witnesses
        c = make_prop1_contract(fx, fy, config.policy, margin=config.margin)
        return c, c
    return make_prop2_contracts(config.eps1, config.eps2, config.gamma)


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
    """Yield each block's payoffs as (pay, counts), in block order.

    With a fixed nature and no sampling expert, every announcement is one
    row and a payoff depends only on the state: pay is the (2, n) per-state
    payoff table, built once with the per-trial formula's operations in the
    same order, and counts the block's state counts, one
    rng.multinomial(B, truth) draw from block_rng(sc.seed, b); column s of
    the table stands for counts[s] trials.

    Otherwise pay is a (2, B) array of per-trial payoffs and counts is None.
    Block b then draws from block_rng(sc.seed, b): first the truths of a
    uniform nature (a (B, n) array of standard exponentials, each row
    divided by its sum), then B state uniforms, then each sampling expert's
    whole block, one sample_from(theta, rng, B) call per expert in expert
    order. States follow sample_state's inverse-CDF rule: by binary search
    on a fixed nature's CDF, and under a uniform nature by counting each
    trial's CDF entries at or below its uniform, one state column at a time.

    Both experts announce every trial (a rejecting expert's announcement
    still defines the rival forecast for the other side); a rejecting
    expert's payoffs are 0. Every row sum, a truth's normaliser or a squared
    norm, adds the columns in order (_row_sums).
    """
    n = sc.states.n
    static = []  # announced rows; None for truth and sampled blocks
    for expert, (_, _, report) in zip(sc.experts, decisions):
        if isinstance(expert.announce, Forecast):
            static.append(expert.announce.probs)
        elif expert.announce == ANNOUNCE_CHEBYSHEV:
            static.append(report.optimal_strategy.probs)
        else:
            static.append(None)
    sampled = [i for i, e in enumerate(sc.experts) if e.announce == ANNOUNCE_SAMPLE]
    accept = [d[0] == ACCEPT for d in decisions]
    uniform = sc.nature == "uniform"
    sizes = [min(BLOCK, sc.trials - start) for start in range(0, sc.trials, BLOCK)]
    if not uniform:
        truth = sc.nature.probs
        if not sampled:
            rows = [truth if a is None else a for a in static]
            table = _payoffs(rows, [_row_sums(r * r) for r in rows], contracts, accept)
            for b, size in enumerate(sizes):
                yield table, block_rng(sc.seed, b).multinomial(size, truth)
            return
        cdf = np.cumsum(truth)
    for b, size in enumerate(sizes):
        rng = block_rng(sc.seed, b)
        if uniform:
            truth = rng.standard_exponential((size, n))
            truth /= _row_sums(truth)[:, None]
            states = _uniform_states(truth, rng.random(size))
        else:
            states = inverse_cdf(cdf, rng.random(size))
        rows = [truth if a is None else a for a in static]
        for i in sampled:
            rows[i] = sample_from(sc.experts[i].theta, rng, size)
        at = [r[np.arange(size), states] if r.ndim == 2 else r[states] for r in rows]
        yield _payoffs(at, [_row_sums(r * r) for r in rows], contracts, accept), None


def _block_moments(x, counts):
    """(size, mean, M2) of one expert's block: per-trial payoffs x, or with
    counts a per-state payoff row x whose entry s stands for counts[s]
    trials."""
    if counts is None:
        mean = float(x.mean())
        return len(x), mean, float(np.sum((x - mean) ** 2))
    size = int(counts.sum())
    mean = float(counts @ x) / size
    return size, mean, float(counts @ (x - mean) ** 2)


def _merge(a, b):
    """(size, mean, M2) of the union of two disjoint groups of payoffs, each
    given as (size, mean, M2), by the pairwise update of Chan, Golub &
    LeVeque."""
    count, mean, m2 = a
    size, block_mean, block_m2 = b
    total = count + size
    delta = block_mean - mean
    return (total, mean + delta * (size / total),
            m2 + block_m2 + delta * delta * (count * size / total))


def run_tournament(sc):
    """Run a seeded tournament and aggregate realized payoffs.

    Deterministic given (scenario, seed): see block_payoffs for the draws.
    Each uninformed expert's Chebyshev problem is solved once, in
    decide_acceptance, and a `chebyshev` announcement is that solve's center.
    """
    contracts = build_contracts(sc.contract_config)
    decisions = [decide_acceptance(e, c) for e, c in zip(sc.experts, contracts)]

    moments = [(0, 0.0, 0.0), (0, 0.0, 0.0)]
    for pay, counts in block_payoffs(sc, contracts, decisions):
        moments = [_merge(m, _block_moments(x, counts)) for m, x in zip(moments, pay)]
    stderr = [math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
              for count, _, m2 in moments]

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
            mean_payoff=moments[i][1],
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
