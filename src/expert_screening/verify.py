"""Built-in property suites, runnable from the CLI (`expert-screen verify`).

Each check is a pure function of a quick/full flag, returning (ok, detail).
Random instances are drawn from fixed seeds so runs are reproducible.
CHECKS is the one source of the randomized property tests: the acceptance
tests run every check in full mode. `verify --quick` runs seven checks on a
tenth of their random instances, the others on 8/70 (maxmin-exact-vs-oracle)
to 3/8 (point-mass-dominance) of them, and sampler-uniformity on the same draws.
"""

import json
import time

import numpy as np

from .analyzer import (
    ACCEPT,
    REJECT,
    informed_guarantee,
    oracle_maxmin,
    truth_telling_gap,
    uninformed_maxmin,
)
from .contracts import (
    Contract,
    FIXED_MARGIN,
    PAPER_EPSILON,
    SAFE_EPSILON,
    expected_payoff,
    make_prop1_contract,
    make_prop2_contracts,
)
from .plausible import Ball, FiniteSet, chebyshev, diameter_sq, sample_from
from .scoring import (
    brier,
    expected_score_closed_form,
    expected_score_direct,
    propriety_gap,
)
from .simplex import (
    Forecast,
    StateSpace,
    dist_sq_rows,
    grid_enumerate,
    l2_dist_sq,
    sample_simplex_uniform,
)
from .scenario import ExpertSpec, Prop1Config, Scenario
from .simulation import run_tournament


CHI2_9_999 = 27.877  # 0.999 quantile of the chi-square law with 9 degrees of freedom


def _space(n):
    return StateSpace(tuple(f"s{i}" for i in range(n)))


def _random_finite_set(rng, n, max_points=5, min_points=2):
    m = int(rng.integers(min_points, max_points + 1))
    space = _space(n)
    pts = []
    while len(pts) < m:
        f = sample_simplex_uniform(space, rng)
        if all(l2_dist_sq(f, g) > 1e-6 for g in pts):
            pts.append(f)
    return FiniteSet(tuple(pts))


def _random_uncut_ball(rng, n):
    space = _space(n)
    while True:
        center = sample_simplex_uniform(space, rng)
        limit = float(center.probs.min()) / np.sqrt((n - 1) / n)
        if limit > 0.06:
            radius = float(rng.uniform(0.05, min(limit * 0.95, 0.4)))
            ball = Ball(center, radius)
            if ball.is_uncut():
                return ball


def _grid_chebyshev_radius_sq(points, space, k):
    """Independent oracle: min over grid centers of the max squared distance
    to the rows of `points`."""
    G = grid_enumerate(space, k)
    return float(dist_sq_rows(G[:, None], points).max(axis=1).min())


def check_lemma1_identity(quick):
    rng = np.random.default_rng(1001)
    count = 1000 if quick else 10000
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        space = _space(n)
        truth = sample_simplex_uniform(space, rng)
        report = sample_simplex_uniform(space, rng)
        diff = abs(
            expected_score_direct(truth, report)
            - expected_score_closed_form(truth, report)
        )
        worst = max(worst, diff)
    return worst <= 1e-12, f"max |direct - closed| = {worst:.2e}"


def check_strict_propriety(quick):
    rng = np.random.default_rng(102)
    count = 200 if quick else 2000
    for _ in range(count):
        n = int(rng.integers(2, 7))
        space = _space(n)
        truth = sample_simplex_uniform(space, rng)
        report = sample_simplex_uniform(space, rng)
        if l2_dist_sq(truth, report) < 1e-12:
            continue
        if not expected_score_direct(truth, truth) > expected_score_direct(
            truth, report
        ):
            return False, "truthful report not strictly optimal"
        gap = propriety_gap(truth, report)
        if abs(gap - l2_dist_sq(truth, report)) > 1e-12:
            return False, "propriety gap != squared distance"
    return True, f"{count} random truth/report pairs"


def check_brier_range(quick):
    rng = np.random.default_rng(103)
    count = 100 if quick else 1000
    for _ in range(count):
        n = int(rng.integers(2, 5))
        f = sample_simplex_uniform(_space(n), rng)
        for s in range(n):
            b = brier(f, s)
            if not -2.0 - 1e-12 <= b <= 1e-12:
                return False, f"score {b} out of range"
            if b > -1e-9 and abs(f.probs[s] - 1.0) > 1e-6:
                return False, "zero score away from the realized-state vertex"
    return True, f"{count} random forecasts, all states"


def check_bias_variance_identity(quick):
    rng = np.random.default_rng(104)
    count = 100 if quick else 1000
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 5))
        space = _space(n)
        m = int(rng.integers(1, 5))
        raw_w = rng.uniform(0.1, 1.0, size=m)
        weights = (raw_w / raw_w.sum()).tolist()
        atoms = [sample_simplex_uniform(space, rng) for _ in weights]
        f = sample_simplex_uniform(space, rng)
        mean = Forecast(sum(w * a.probs for a, w in zip(atoms, weights)))
        lhs = sum(w * l2_dist_sq(f, a) for a, w in zip(atoms, weights))
        rhs = l2_dist_sq(f, mean) + sum(w * l2_dist_sq(mean, a)
                                        for a, w in zip(atoms, weights))
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-12, f"max identity residual = {worst:.2e}"


def check_truth_telling_gap(quick):
    rng = np.random.default_rng(1002)
    count = 100 if quick else 1000
    c = Contract(0.37, FIXED_MARGIN)
    for _ in range(count):
        n = int(rng.integers(2, 5))
        space = _space(n)
        truth = sample_simplex_uniform(space, rng)
        report = sample_simplex_uniform(space, rng)
        gap = truth_telling_gap(truth, report)
        if abs(gap - l2_dist_sq(truth, report)) > 1e-12:
            return False, "gap != squared distance"
        r1 = sample_simplex_uniform(space, rng)
        r2 = sample_simplex_uniform(space, rng)
        g1 = expected_payoff(c, truth, truth, r1) - expected_payoff(c, truth, report, r1)
        g2 = expected_payoff(c, truth, truth, r2) - expected_payoff(c, truth, report, r2)
        if max(abs(g1 - g2), abs(g1 - gap), abs(g2 - gap)) > 1e-12:
            return False, "gap depends on the rival"
    return True, f"{count} random triples"


def check_informed_guarantee(quick):
    """A truthful informed expert's expected payoff against the grid rival
    nearest the truth (the adversary's best reply on the grid) is at least
    the guarantee, and exceeds it by exactly that rival's distance^2."""
    rng = np.random.default_rng(1003)
    count = 100 if quick else 1000
    k = 60
    grids = {n: grid_enumerate(_space(n), k) for n in (2, 3)}
    for _ in range(count):
        n = int(rng.integers(2, 4))
        truth = sample_simplex_uniform(_space(n), rng)
        c = Contract(float(rng.uniform(1e-6, 1.0)), FIXED_MARGIN)
        G = grids[n]
        rival = Forecast.from_row(G[int(np.argmin(dist_sq_rows(G, truth.probs)))])
        payoff = expected_payoff(c, truth, truth, rival)
        guarantee = informed_guarantee(c)
        if payoff < guarantee - 1e-12:
            return False, "grid rival beat the guarantee"
        if abs(payoff - (guarantee + l2_dist_sq(truth, rival))) > 1e-12:
            return False, "payoff != guarantee + rival distance^2"
    return True, f"{count} truths, rival grid k={k}"


def check_chebyshev_two_point(quick):
    rng = np.random.default_rng(107)
    count = 20 if quick else 100
    for _ in range(count):
        n = int(rng.integers(2, 4))
        space = _space(n)
        a = sample_simplex_uniform(space, rng)
        b = sample_simplex_uniform(space, rng)
        if l2_dist_sq(a, b) < 1e-4:
            continue
        theta = FiniteSet((a, b))
        res = chebyshev(theta)
        mid = Forecast((a.probs + b.probs) / 2.0)
        if l2_dist_sq(res.center, mid) >= 1e-12:
            return False, "center not at the midpoint"
        if abs(res.radius_sq - diameter_sq(theta) / 4.0) >= 1e-12:
            return False, "radius_sq != diameter_sq / 4"
    return True, f"{count} random two-point sets"


def check_chebyshev_vs_grid(quick):
    rng = np.random.default_rng(108)
    count = 10 if quick else 30
    k = 60
    for _ in range(count):
        n = int(rng.integers(2, 4))
        theta = _random_finite_set(rng, n, max_points=6)
        res = chebyshev(theta)
        oracle = _grid_chebyshev_radius_sq(theta.points, _space(n), k)
        if abs(res.radius_sq - oracle) > 3.0 / k:
            return False, f"|{res.radius_sq} - {oracle}| > {3.0 / k}"
    return True, f"{count} random finite sets vs grid k={k}"


def check_maxmin_vs_oracle(quick):
    rng = np.random.default_rng(1004)
    sets = 5 if quick else 50
    balls = 3 if quick else 20
    k = 50
    c = Contract(0.1, FIXED_MARGIN)
    for make in [_random_finite_set] * sets + [_random_uncut_ball] * balls:
        theta = make(rng, int(rng.integers(2, 4)))
        exact = uninformed_maxmin(theta, c)
        oracle = oracle_maxmin(theta, c, grid_k=k)
        if abs(exact.value - oracle.value) > 3.0 / k:
            gap = abs(exact.value - oracle.value)
            return False, f"{type(theta).__name__} disagreement {gap}"
    return True, f"{sets} finite sets + {balls} uncut balls, grid k={k}"


def check_safe_epsilon_screening(quick):
    rng = np.random.default_rng(1005)
    count = 10 if quick else 40
    for _ in range(count):
        n = int(rng.integers(2, 4))
        theta = _random_finite_set(rng, n)
        margin = diameter_sq(theta) / 8.0
        c = Contract(margin, FIXED_MARGIN)
        report = uninformed_maxmin(theta, c)
        if report.decision != REJECT or report.value >= 0:
            return False, f"accepted at margin diameter^2/8 (value {report.value})"
    return True, f"{count} random finite sets"


def check_paper_epsilon_counterexample(quick):
    rng = np.random.default_rng(1006)
    count = 5 if quick else 20
    checked = 0
    while checked < count:
        n = int(rng.integers(2, 4))
        space = _space(n)
        fx = sample_simplex_uniform(space, rng)
        fy = sample_simplex_uniform(space, rng)
        d2 = l2_dist_sq(fx, fy)
        if d2 < 1e-2:
            continue
        theta = FiniteSet((fx, fy))
        c = make_prop1_contract(fx, fy, PAPER_EPSILON)
        if abs(c.margin - d2 / 2.0) > 1e-15:
            return False, f"margin {c.margin}, expected {d2 / 2.0}"
        exact = uninformed_maxmin(theta, c)
        oracle = oracle_maxmin(theta, c, grid_k=50)
        expected = d2 / 4.0
        if exact.decision != ACCEPT or abs(exact.value - expected) > 1e-12:
            return False, f"exact value {exact.value}, expected {expected}"
        if oracle.decision != ACCEPT or abs(oracle.value - expected) > 0.06:
            return False, f"oracle value {oracle.value}, expected {expected}"
        checked += 1
    return True, f"{count} two-point sets accept at the half-distance margin"


def check_prop2_screening(quick):
    rng = np.random.default_rng(1007)
    count = 5 if quick else 20
    k = 50
    done = 0
    while done < count:
        n = int(rng.integers(2, 4))
        ball1 = _random_uncut_ball(rng, n)
        eps1 = ball1.radius
        ball2 = None
        for _ in range(500):
            cand = _random_uncut_ball(rng, n)
            if cand.radius > eps1 * 1.05:
                ball2 = cand
                break
        if ball2 is None:
            continue
        eps2 = ball2.radius
        gamma = float(rng.uniform(eps1**2 * 1.01, eps2**2 * 0.99))
        c1, c2 = make_prop2_contracts(eps1, eps2, gamma)
        r1 = uninformed_maxmin(ball1, c1)
        r2 = uninformed_maxmin(ball2, c2)
        if abs(r1.value - (gamma - eps1**2)) > 1e-12 or r1.decision != ACCEPT:
            return False, f"expert 1 value {r1.value} vs {gamma - eps1**2}"
        if abs(r2.value - (gamma - eps2**2)) > 1e-12 or r2.decision != REJECT:
            return False, f"expert 2 value {r2.value} vs {gamma - eps2**2}"
        for ball, c, exact in ((ball1, c1, r1), (ball2, c2, r2)):
            oracle = oracle_maxmin(ball, c, grid_k=k)
            if abs(oracle.value - exact.value) > 3.0 / k:
                return False, f"oracle {oracle.value} vs exact {exact.value}"
        done += 1
    return True, f"{count} random (eps1, eps2, gamma) triples, oracle grid k={k}"


def check_point_mass_dominance(quick):
    rng = np.random.default_rng(113)
    count = 3 if quick else 8
    k = 20
    c = Contract(0.2, FIXED_MARGIN)
    for _ in range(count):
        theta = _random_finite_set(rng, 2)
        report = oracle_maxmin(theta, c, grid_k=k, mixture_pairs=True)
        pm = report.details["best_point_mass_value"]
        mix = report.details["best_mixture_value"]
        # a mixture's barycenter lies off-grid, so it may beat the best
        # grid point mass by up to grid-resolution error, never more
        if mix > pm + 3.0 / k:
            return False, f"mixture {mix} beat point mass {pm}"
    return True, f"{count} oracle runs with two-point mixtures, grid k={k}"


def check_eq1_reduction(quick):
    rng = np.random.default_rng(1009)
    count = 5 if quick else 15
    k = 50
    c = Contract(0.15, FIXED_MARGIN)
    for _ in range(count):
        n = int(rng.integers(2, 4))
        theta = (
            _random_finite_set(rng, n)
            if rng.random() < 0.7
            else _random_uncut_ball(rng, n)
        )
        report = oracle_maxmin(theta, c, grid_k=k)
        # minimizing grid rival must coincide with the worst-case truth, up
        # to the grid's covering radius
        tol = 2.0 * (n / k) ** 2 + 1e-9
        if report.details["reduction_rival_matches_truth_dist_sq"] > tol:
            return False, "adversary benefited from a rival away from the truth"
    return True, f"{count} oracle runs on finite sets and uncut balls, grid k={k}"


def check_sampler_uniformity(quick):
    """For X uniform in an (n-1)-ball, U = (|X-c|^2/r^2)^((n-1)/2) is uniform
    on [0, 1]: chi-square over 10 bins of U on one block of draws from an
    uncut ball at each n (every center entry is at least 0.85 / n, more
    than r * sqrt((n - 1) / n))."""
    rng = np.random.default_rng(1010)
    rows = 4096
    stats = []
    for n, r in ((3, 0.1), (8, 0.1), (20, 0.03)):
        ball = Ball(Forecast(0.85 / n + 0.15 * rng.dirichlet(np.ones(n))), r)
        x = sample_from(ball, rng, rows)
        u = (dist_sq_rows(x, ball.center.probs) / r**2) ** ((n - 1) / 2)
        counts = np.bincount(np.minimum((10 * u).astype(int), 9), minlength=10)
        stats.append(float(np.sum((counts - rows / 10) ** 2) / (rows / 10)))
        if stats[-1] >= CHI2_9_999:
            return False, f"n={n}: chi2 {stats[-1]:.2f} >= {CHI2_9_999}"
    return True, f"{rows}-row blocks at n = 3, 8, 20: chi2 " + ", ".join(
        f"{c:.2f}" for c in stats)


def check_monte_carlo_consistency(quick):
    fx, fy = Forecast([1.0, 0.0]), Forecast([0.0, 1.0])
    truth = Forecast([0.7, 0.3])
    trials = 10**4 if quick else 10**5
    sc = Scenario(
        states=_space(2),
        nature=truth,
        experts=(
            ExpertSpec(id="informed", kind="informed"),
            ExpertSpec(
                id="uninformed",
                kind="uninformed",
                theta=FiniteSet((fx, fy)),
                announce="chebyshev",
            ),
        ),
        contract_config=Prop1Config(policy=SAFE_EPSILON, witnesses=(fx, fy)),
        trials=trials,
        seed=7,
    )
    first = run_tournament(sc)
    informed, uninformed = first.experts
    if informed.decision != ACCEPT or uninformed.decision != REJECT:
        return False, "wrong acceptance decisions"
    if uninformed.mean_payoff != 0.0 or uninformed.payoff_stderr != 0.0:
        return False, "a rejecting expert was paid"
    # the uninformed expert announces the Chebyshev center (0.5, 0.5)
    c = make_prop1_contract(fx, fy, SAFE_EPSILON)
    analytic = expected_payoff(c, truth, truth, Forecast([0.5, 0.5]))
    if abs(informed.mean_payoff - analytic) > 4 * informed.payoff_stderr:
        return False, f"mean payoff {informed.mean_payoff} vs analytic {analytic}"
    a = json.dumps(first.to_dict(), sort_keys=True)
    b = json.dumps(run_tournament(sc).to_dict(), sort_keys=True)
    if a != b:
        return False, "reports differ across identical runs"
    return True, f"{trials} trials within 4 stderr; rejecter at 0; reruns identical"


CHECKS = [
    ("lemma1-identity", check_lemma1_identity),
    ("strict-propriety", check_strict_propriety),
    ("brier-range", check_brier_range),
    ("bias-variance-identity", check_bias_variance_identity),
    ("truth-telling-gap", check_truth_telling_gap),
    ("informed-guarantee", check_informed_guarantee),
    ("chebyshev-two-point", check_chebyshev_two_point),
    ("chebyshev-vs-grid-oracle", check_chebyshev_vs_grid),
    ("maxmin-exact-vs-oracle", check_maxmin_vs_oracle),
    ("safe-epsilon-screening", check_safe_epsilon_screening),
    ("paper-epsilon-counterexample", check_paper_epsilon_counterexample),
    ("prop2-screening", check_prop2_screening),
    ("point-mass-dominance", check_point_mass_dominance),
    ("eq1-reduction-audit", check_eq1_reduction),
    ("sampler-uniformity", check_sampler_uniformity),
    ("monte-carlo-consistency", check_monte_carlo_consistency),
]


def run_all(quick=False):
    """Run every check; returns a list of (name, ok, detail, wall seconds)."""
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(quick)
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail, time.perf_counter() - t0))
    return results
