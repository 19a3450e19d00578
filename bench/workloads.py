"""The benchmark's workloads: inputs, the timed call, and the checks.

Each workload is a closed loop with one caller: operation i starts when
operation i-1 has finished and been checked. Inputs depend only on the
workload seed and i, never on timing, so the same seed gives the same
inputs whatever the speed of the machine.

`known_defects` is not a timed workload of BENCHMARK.json: it runs the
input classes on which the package is known to give wrong, uncertified or
late results, and reports how many fail.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import signal
import time

import numpy as np

from expert_screening import Ball, Forecast, cli, sample_from, scenario, simulation

import reference

# --- analyze_audit -------------------------------------------------------

# Oracle grid resolution per state count: C(k+n-1, n-1) stays near 3000
# points (2001..3432). The CLI default k=50 gives 316 251 points at n=5,
# and with a ball the oracle's distance matrix then needs tens of GB.
GRID_K = {2: 3000, 3: 76, 4: 25, 5: 14, 6: 10, 7: 8, 8: 7}
# The timed mix holds the two input classes whose Chebyshev solution the
# package gets exactly right by construction, because its solver starts at
# the answer: finite sets of two forecasts (the midpoint) and uncut balls
# (the center). Every other class fails in some of its cases
# (bench/README.md) and is run by known_defects instead.
AUDIT_CELLS = [(n, kind) for n in range(2, 9) for kind in ("finite", "uncut")]
# Every n = 2..8 with each set kind and finite sets of 2..6 forecasts:
# the known_defects mix, which includes the classes left out above.
FULL_CELLS = [(n, kind) for n in range(2, 9) for kind in ("finite", "uncut", "clipped")]
# Latency limit per scenario. Scenarios take 0.1-1.5 s here, but a clipped
# ball at n=2 (known_defects) can run the subgradient loop to 20 000
# iterations of a grid-based farthest point (10-100 s); such a scenario is
# stopped at the limit and counted as failed ("deadline").
AUDIT_DEADLINE_S = 2.5
# Absolute tolerance on the exact value against the reference.
AUDIT_TOL = 1e-6


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no
    `except Exception` inside the package can swallow it."""


@contextlib.contextmanager
def deadline(seconds):
    def on_alarm(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _states(n):
    return [f"s{i}" for i in range(n)]


def _ball_witnesses(c, r):
    """Two points of the ball (a chord of length r through the center, in
    the direction of the two largest coordinates, so both stay on the
    simplex); their safe margin r^2/8 is below the squared radius."""
    i, j = np.argsort(c)[-2:]
    d = np.zeros(c.size)
    d[i], d[j] = -1.0, 1.0
    t = min(0.5 * r, 0.5 * c[i] * math.sqrt(2.0))
    h = t * d / math.sqrt(2.0)
    return [(c - h).tolist(), (c + h).tolist()]


def _prop1_scenario(n, nature, theta, witnesses, announce, trials=1, seed=0):
    return {
        "states": _states(n),
        "nature": nature,
        "experts": [
            {"id": "informed", "kind": "informed", "announce": "truth"},
            {"id": "uninformed", "kind": "uninformed", "theta": theta, "announce": announce},
        ],
        "contract": {"kind": "prop1", "policy": "safe", "witnesses": witnesses},
        "trials": trials,
        "seed": seed,
    }


def _lim(c):
    """Largest radius for which the ball around c stays inside the simplex."""
    n = c.size
    return float(c.min()) / math.sqrt((n - 1) / n)


def _center_with_min(rng, n, target):
    """A random center whose smallest coordinate is `target`: the
    barycenter moved along a random direction until a coordinate drops
    to the target."""
    direction = rng.dirichlet(np.ones(n)) - 1.0 / n
    return 1.0 / n + (1.0 / n - target) / -direction.min() * direction


def audit_case(seed, index, cells=AUDIT_CELLS):
    """Scenario `index` of a mix of (n, kind) cells.

    A round is every cell once, then the largest ball (n=2, uncut, radius
    0.95 of the limit at the barycenter), the same in every round: each
    run's peak memory then comes from the same input, met again after the
    heap has grown to its working size. The ball radius and how far the
    center sits from the simplex's faces follow five strata, and so does
    the finite-set size m = 2..6 in the full mix (the timed mix keeps m =
    2); the stratum shifts by one from cell to cell and from round to
    round, so that every round holds nearly the same mix and over five
    rounds each cell meets every stratum.
    """
    rnd, cell = divmod(index, len(cells) + 1)
    largest = cell == len(cells)
    n, kind = (2, "uncut") if largest else cells[cell]
    rng = np.random.default_rng([seed, index])
    stratum = (cell + rnd) % 5
    u, v = (1.0, 1.0) if largest else (stratum + rng.uniform(size=2)) / 5
    if kind == "finite":
        m = 2 + stratum if cells is FULL_CELLS else 2
        pts = rng.dirichlet(np.ones(n), size=m)
        theta = {"kind": "finite", "forecasts": pts.tolist()}
        witnesses = [pts[0].tolist(), pts[1].tolist()]
    else:
        if kind == "uncut":
            c = _center_with_min(rng, n, (0.1 + 0.9 * v) / n)
            r = (0.2 + 0.75 * u) * _lim(c)
        else:
            r = 0.05 + 0.3 * u
            # the ball reaches past the nearest face: clipped
            c = _center_with_min(rng, n, v * min(r * math.sqrt((n - 1) / n) / 1.01, 1.0 / n))
        theta = {"kind": "ball", "center": c.tolist(), "radius": r}
        witnesses = _ball_witnesses(c, r)
    nature = {"kind": "fixed", "forecast": rng.dirichlet(np.ones(n)).tolist()}
    scenario = _prop1_scenario(n, nature, theta, witnesses, "chebyshev")
    return {"n": n, "kind": kind, "grid_k": GRID_K[n], "theta": theta,
            "witnesses": witnesses, "scenario": scenario, "index": index}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


class AnalyzeAudit:
    """`expert-screen oracle` in-process on random scenarios."""

    name = "analyze_audit"
    op_name = item = "scenario"
    cells = AUDIT_CELLS

    def __init__(self, seed, tmpdir, root):
        self.seed = seed
        self.tmpdir = tmpdir
        self.round_size = len(self.cells) + 1
        # the first round of inputs, generated, written and parsed up front
        for i in range(self.round_size):
            scenario.load_scenario(self.prepare(i)["path"])

    def prepare(self, i):
        case = audit_case(self.seed, i, self.cells)
        case["path"] = _write_json(os.path.join(self.tmpdir, f"audit-{i % 2}.json"),
                                   case["scenario"])
        return case

    def items(self, case):
        return 1

    def execute(self, case):
        out, err = io.StringIO(), io.StringIO()
        argv = ["oracle", case["path"], "--grid-k", str(case["grid_k"])]
        t0 = time.perf_counter()
        try:
            with deadline(AUDIT_DEADLINE_S), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except DeadlineExceeded:
            code = None
        return time.perf_counter() - t0, (code, out.getvalue())

    def check(self, case, result):
        """(ok, reason, detail). detail["abs_err"] is the distance from the
        reference (finite, uncut) or the amount a clipped-ball bracket is
        violated."""
        code, stdout = result
        if code is None:
            return False, "deadline", {}
        if code != 0 and not stdout:
            return False, f"exit{code}", {}
        expert = json.loads(stdout)["experts"][1]
        value = expert["value"]["value"]
        cheb = expert["chebyshev"]
        margin = reference.safe_margin(*case["witnesses"])
        theta = case["theta"]
        if case["kind"] == "finite":
            _, r2 = reference.meb(np.array(theta["forecasts"]))
            err = abs(value - (margin - r2))
        elif case["kind"] == "uncut":
            err = abs(value - (margin - theta["radius"] ** 2))
        else:
            rng = np.random.default_rng([self.seed, case["index"], 1])
            sample_r2, far2 = reference.clipped_ball_brackets(
                theta["center"], theta["radius"], cheb["center"], cheb["radius_sq"], rng)
            err = max(0.0, sample_r2 - cheb["radius_sq"], far2 - cheb["radius_sq"],
                      abs(value - (margin - cheb["radius_sq"])))
        if code != 0:
            return False, f"exit{code}", {"abs_err": err}
        if err > AUDIT_TOL:
            return False, "reference", {"abs_err": err}
        return True, "", {"abs_err": err}

    def final_checks(self):
        return []


# --- tournaments ---------------------------------------------------------

PAYOFF_Z = 5.0        # an accepting expert's pooled mean may sit this many stderrs off
UNIFORMITY_Z = 4.0    # sampler mean test threshold


def _nature_spec(raw):
    if raw["kind"] == "uniform":
        return ("uniform",)
    return ("fixed", raw["forecast"])


def _announcement_spec(expert):
    """Reference spec of what an expert announces, from the raw scenario."""
    a = expert.get("announce", "truth" if expert["kind"] == "informed" else "chebyshev")
    if a == "truth":
        return ("truth",)
    if isinstance(a, dict):
        return ("point", a["fixed"])
    theta = expert["theta"]
    if theta["kind"] == "finite":
        center, _ = reference.meb(np.array(theta["forecasts"]))
        if a == "chebyshev":
            return ("point", center)
        raise ValueError("sampled announcements from finite sets are not used")
    c = np.asarray(theta["center"], dtype=float)
    if _lim(c) < theta["radius"]:
        raise ValueError("tournament balls must be uncut")
    if a == "chebyshev":
        return ("point", c)
    return ("ball", c, theta["radius"])


def _margins(raw):
    con = raw["contract"]
    if con["kind"] == "prop2":
        return con["gamma"], con["gamma"]
    m = reference.safe_margin(*con["witnesses"])
    return m, m


class _Tournaments:
    """One operation is one run_tournament on the next scenario of a cycle.

    An operation fails if screening_correct is false. The payoff check
    pools each accepting expert's tournaments of the run, because a single
    tournament of 17 trials (n=8, sampled) is too small for a z-test: at 14
    trials it errs in about one tournament in 1000 of a correct program
    (bench/README.md).
    """

    op_name, item = "tournament", "trial"

    def __init__(self, seed, tmpdir, root):
        self.seed = seed
        self.cycle = []
        for label, raw, trials in self.scenarios(seed, root):
            sc = scenario.load_scenario(_write_json(os.path.join(tmpdir, f"{label}.json"), raw))
            n = len(raw["states"])
            nature = _nature_spec(raw["nature"])
            specs = [_announcement_spec(e) for e in raw["experts"]]
            margins = _margins(raw)
            expected = [
                reference.expected_payoff(margins[k], nature, n, specs[k], specs[1 - k])
                for k in range(2)
            ]
            self.cycle.append({"label": label, "scenario": sc, "trials": trials,
                               "expected": expected})
        self.round_size = len(self.cycle)
        self.payoffs = {}     # (label, expert index) -> [(mean, stderr, expected), ...]

    def prepare(self, i):
        entry = self.cycle[i % len(self.cycle)]
        sc = dataclasses.replace(entry["scenario"], trials=entry["trials"],
                                 seed=(self.seed * 1_000_003 + i) % 2**31)
        return {**entry, "scenario": sc}

    def items(self, case):
        return case["trials"]

    def execute(self, case):
        t0 = time.perf_counter()
        report = simulation.run_tournament(case["scenario"])
        return time.perf_counter() - t0, report

    def check(self, case, report):
        for k, e in enumerate(report.experts):
            if e.decision == "accept":
                self.payoffs.setdefault((case["label"], k), []).append(
                    (e.mean_payoff, e.payoff_stderr, case["expected"][k]))
        if not report.screening_correct:
            return False, "screening", {}
        return True, "", {}

    def final_checks(self):
        """Each accepting expert's mean payoff over the run's tournaments
        (equal trials each) within PAYOFF_Z pooled stderrs of margin +
        E d^2(t, rival) - E d^2(t, own)."""
        results = []
        for (label, k), runs in sorted(self.payoffs.items()):
            means, stderrs, expected = zip(*runs)
            pooled_se = math.sqrt(sum(se * se for se in stderrs)) / len(runs)
            z = abs(sum(means) / len(runs) - expected[0]) / max(pooled_se, 1e-300)
            results.append((z <= PAYOFF_Z, "payoff", {"z": z},
                            f"payoff {label} expert {k} ({len(runs)} tournaments)"))
        return results


def _demo(root, name):
    with open(os.path.join(root, "demos", "scenarios", name), encoding="utf-8") as fh:
        return json.load(fh)


class TournamentStatic(_Tournaments):
    """Static announcements (truth, chebyshev, fixed): the per-trial loop
    dominates and Chebyshev solves run once per tournament."""

    name = "tournament_static"

    @staticmethod
    def scenarios(seed, root):
        rng = np.random.default_rng([seed, 2])
        n = 6
        c = rng.dirichlet(np.full(n, 5.0))
        r = 0.5 * _lim(c)
        uniform = _prop1_scenario(
            n, {"kind": "uniform"}, {"kind": "ball", "center": c.tolist(), "radius": r},
            _ball_witnesses(c, r), {"fixed": rng.dirichlet(np.ones(n)).tolist()})
        # trial counts that make the three tournaments about equally long
        # at the seed (~0.5 s), so that no percentile of a run falls in the
        # gap between a faster and a slower kind (bench/README.md)
        return [("prop1_safe", _demo(root, "prop1_safe.json"), 12000),
                ("prop2_balls", _demo(root, "prop2_balls.json"), 12000),
                ("uniform_n6", uniform, 6600)]


# draws per tournament make each about 0.6 s at the seed's 1/6.5/35 ms per
# draw, so that no percentile of a run falls in a gap between the kinds
SAMPLED_TRIALS = {3: 600, 5: 90, 8: 17}
# (n, radius, draws) for the direct sampler test
UNIFORMITY_BALLS = [(3, 0.1, 400), (5, 0.1, 60), (8, 0.1, 16)]
# a ball so small at n=8 that the rejection sampler gives up and falls back
# to its projected Gaussian (known_defects)
FALLBACK_BALL = (8, 0.05, 64)


def sampled_center(seed, n):
    """Ball center near the barycenter; stays uncut for r = 0.1 up to n = 8."""
    rng = np.random.default_rng([seed, 3, n])
    return 0.85 / n + 0.15 * rng.dirichlet(np.ones(n))


def uniformity_checks(seed, balls):
    """Direct sample_from draws from uncut balls. For X uniform in an
    (n-1)-ball, U = (|X-c|^2/r^2)^((n-1)/2) is uniform on [0, 1]; the mean
    of U must lie within UNIFORMITY_Z standard errors of 1/2. (U rather
    than |X-c|^2/r^2, whose skew at 16 draws makes a z-test err too often.)"""
    results = []
    for n, r, draws in balls:
        c = sampled_center(seed, n)
        ball = Ball(Forecast(c), r)
        rng = np.random.default_rng([seed, 5, n, round(r * 1000)])
        u = [(float(np.sum((sample_from(ball, rng).probs - c) ** 2)) / r**2) ** ((n - 1) / 2)
             for _ in range(draws)]
        z = abs(float(np.mean(u)) - 0.5) / math.sqrt(1.0 / 12.0 / draws)
        results.append((z <= UNIFORMITY_Z, "uniformity", {"z": z}, f"uniformity n={n} r={r}"))
    return results


class TournamentSampled(_Tournaments):
    """An uninformed expert announces a uniform draw from an uncut ball, so
    every trial calls the rejection sampler."""

    name = "tournament_sampled"

    @staticmethod
    def scenarios(seed, root):
        out = []
        for n, trials in SAMPLED_TRIALS.items():
            c = sampled_center(seed, n)
            t = np.random.default_rng([seed, 4, n]).dirichlet(np.full(n, 2.0))
            raw = _prop1_scenario(
                n, {"kind": "fixed", "forecast": t.tolist()},
                {"kind": "ball", "center": c.tolist(), "radius": 0.1},
                _ball_witnesses(c, 0.1), "sample")
            out.append((f"sampled_n{n}", raw, trials))
        return out

    def final_checks(self):
        return super().final_checks() + uniformity_checks(self.seed, UNIFORMITY_BALLS)


class KnownDefects(AnalyzeAudit):
    """The full audit mix and the sampler's fallback ball: the inputs on
    which the package is known to fail, reported as measured."""

    name = "known_defects"
    cells = FULL_CELLS

    def final_checks(self):
        return uniformity_checks(self.seed, [FALLBACK_BALL])


WORKLOADS = {w.name: w for w in (AnalyzeAudit, TournamentStatic, TournamentSampled,
                                 KnownDefects)}
