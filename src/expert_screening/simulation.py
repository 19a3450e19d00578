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
from dataclasses import dataclass

import numpy as np

# unused here, but bench/tracing.py rebinds chebyshev, realized_payoff, sample_simplex_uniform
from .analyzer import ACCEPT, REJECT, informed_guarantee, uninformed_maxmin
from .contracts import realized_payoff
from .plausible import chebyshev, sample_from
from .scenario import ANNOUNCE_CHEBYSHEV, ANNOUNCE_SAMPLE, INFORMED, PARTIAL
from .simplex import Forecast, sample_simplex_uniform

BLOCK = 4096                   # trials per counter-based stream
RNG_LAYOUT = "philox-block-v3"


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


def decide_acceptance(expert, contract):
    """Analyzer decision for one expert: (decision, value, report), where
    report is the exact MaxminReport of a non-informed expert (None for an
    informed one, whose guarantee is the margin)."""
    if expert.kind == INFORMED:
        value = informed_guarantee(contract)
        return (ACCEPT if value > 0 else REJECT), value, None
    report = uninformed_maxmin(expert.theta, contract)
    return report.decision, report.value, report


def _expected_decisions(experts):
    """Each expert's decision under correct screening, in expert order."""
    if all(e.kind == PARTIAL for e in experts):
        radii = [e.theta.radius for e in experts]
        return [ACCEPT if r == min(radii) and radii[0] != radii[1] else REJECT for r in radii]
    return [ACCEPT if e.kind == INFORMED else REJECT for e in experts]


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
    contracts = sc.contract_config.contracts
    decisions = [decide_acceptance(e, c) for e, c in zip(sc.experts, contracts)]

    moments = [(0, 0.0, 0.0), (0, 0.0, 0.0)]
    for pay, counts in block_payoffs(sc, contracts, decisions):
        moments = [_merge(m, _block_moments(x, counts)) for m, x in zip(moments, pay)]
    stderr = [math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
              for count, _, m2 in moments]

    screening_correct = [d[0] for d in decisions] == _expected_decisions(sc.experts)

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
