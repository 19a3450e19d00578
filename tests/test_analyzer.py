import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expert_screening import (
    ACCEPT,
    Ball,
    Contract,
    FIXED_MARGIN,
    FiniteSet,
    Forecast,
    PAPER_EPSILON,
    REJECT,
    SAFE_EPSILON,
    grid_enumerate,
    informed_guarantee,
    l2_dist_sq,
    make_prop1_contract,
    make_prop2_contracts,
    oracle_maxmin,
    sample_simplex_uniform,
    truth_telling_gap,
    uninformed_maxmin,
)
from expert_screening import analyzer
from expert_screening.errors import ResolutionTooLarge
from expert_screening.verify import _random_finite_set, _space

FX = Forecast([1, 0])
FY = Forecast([0, 1])
VERTICES = FiniteSet((FX, FY))


class TestInformedGuarantee:
    def test_equals_margin(self):
        assert informed_guarantee(Contract(0.25, FIXED_MARGIN)) == 0.25
        assert informed_guarantee(Contract(0.0, FIXED_MARGIN)) == 0.0

    def test_grid_confirms_minimum_at_truth(self):
        from expert_screening import expected_payoff

        rng = np.random.default_rng(41)
        c = Contract(1.0, FIXED_MARGIN)
        space = _space(2)
        grid = grid_enumerate(space, 100)
        truth = Forecast([0.7, 0.3])
        values = [expected_payoff(c, truth, truth, Forecast(r)) for r in grid]
        assert min(values) >= c.margin - 1e-12


class TestTruthTellingGap:
    def test_zero_at_truth(self):
        f = Forecast([0.3, 0.7])
        assert truth_telling_gap(f, f) == 0.0

    def test_opposite_vertices(self):
        assert truth_telling_gap(FX, FY) == 2.0

    def test_rival_independence(self):
        from expert_screening import expected_payoff

        rng = np.random.default_rng(42)
        c = Contract(0.5, FIXED_MARGIN)
        space = _space(3)
        for _ in range(100):
            truth = sample_simplex_uniform(space, rng)
            report = sample_simplex_uniform(space, rng)
            r1 = sample_simplex_uniform(space, rng)
            r2 = sample_simplex_uniform(space, rng)
            g1 = expected_payoff(c, truth, truth, r1) - expected_payoff(
                c, truth, report, r1
            )
            g2 = expected_payoff(c, truth, truth, r2) - expected_payoff(
                c, truth, report, r2
            )
            assert abs(g1 - g2) <= 1e-12
            assert abs(g1 - truth_telling_gap(truth, report)) <= 1e-12


class TestUninformedMaxmin:
    def test_paper_epsilon_accepts_two_vertices(self):
        c = make_prop1_contract(FX, FY, PAPER_EPSILON)
        report = uninformed_maxmin(VERTICES, c)
        assert report.decision == ACCEPT
        assert report.value == pytest.approx(0.5, abs=1e-9)

    def test_safe_epsilon_rejects_two_vertices(self):
        c = make_prop1_contract(FX, FY, SAFE_EPSILON)
        report = uninformed_maxmin(VERTICES, c)
        assert report.decision == REJECT
        assert report.value == pytest.approx(-0.25, abs=1e-9)

    def test_singleton_accepts_any_positive_margin(self):
        theta = FiniteSet((Forecast([0.3, 0.7]),))
        c = Contract(0.05, FIXED_MARGIN)
        report = uninformed_maxmin(theta, c)
        assert report.decision == ACCEPT
        assert report.value == pytest.approx(0.05, abs=1e-12)

    def test_optimal_strategy_is_single_atom(self):
        c = Contract(0.1, FIXED_MARGIN)
        report = uninformed_maxmin(VERTICES, c)
        assert report.method == "exact"
        assert len(report.optimal_strategy.atoms) == 1

    def test_worst_case_truth_is_farthest(self):
        c = Contract(0.1, FIXED_MARGIN)
        report = uninformed_maxmin(VERTICES, c)
        center = report.optimal_strategy.atoms[0][0]
        d = l2_dist_sq(report.worst_case_truth, center)
        assert d == pytest.approx(report.details["chebyshev_radius_sq"], abs=1e-9)
        # lexicographically smallest of the two tied vertices
        assert report.worst_case_truth == FY

    def test_uncut_ball_value(self):
        theta = Ball(Forecast([0.5, 0.5]), 0.1)
        c = Contract(0.05, FIXED_MARGIN)
        report = uninformed_maxmin(theta, c)
        assert report.value == pytest.approx(0.05 - 0.01, abs=1e-9)
        assert report.decision == ACCEPT


class TestOracleMaxmin:
    def test_safe_epsilon_two_vertices(self):
        c = make_prop1_contract(FX, FY, SAFE_EPSILON)
        report = oracle_maxmin(VERTICES, c, grid_k=50)
        assert report.method == "oracle"
        assert abs(report.value - (-0.25)) <= 2.0 / 50

    def test_paper_epsilon_exhibits_accepting_strategy(self):
        c = make_prop1_contract(FX, FY, PAPER_EPSILON)
        report = oracle_maxmin(VERTICES, c, grid_k=50)
        assert report.decision == ACCEPT
        assert abs(report.value - 0.5) <= 2.0 / 50
        strategy = report.optimal_strategy.atoms[0][0]
        assert l2_dist_sq(strategy, Forecast([0.5, 0.5])) <= (2.0 / 50) ** 2

    def test_mixtures_never_beat_point_mass_beyond_grid_error(self):
        c = Contract(0.2, FIXED_MARGIN)
        rng = np.random.default_rng(43)
        k = 20
        for _ in range(5):
            theta = _random_finite_set(rng, 2)
            report = oracle_maxmin(theta, c, grid_k=k, mixture_pairs=True)
            pm = report.details["best_point_mass_value"]
            mix = report.details["best_mixture_value"]
            assert mix <= pm + 3.0 / k

    def test_ball_grid_keeps_the_oracle_at_or_below_exact(self):
        # grid strategies cannot beat the exact maxmin value, so an oracle
        # above it has missed truths: the largest oracle - exact over 30
        # such balls reads -0.013 to -0.002 for seeds 48-53, and +0.03 to
        # +0.09 when _ball_grid keeps only its surface points and the center
        c = Contract(0.2, FIXED_MARGIN)
        rng = np.random.default_rng(48)
        for _ in range(30):
            theta = _random_theta(rng, 3, "clipped")
            exact = uninformed_maxmin(theta, c).value
            assert oracle_maxmin(theta, c, grid_k=10).value <= exact + 0.01

    def test_resolution_cap(self):
        c = Contract(0.1, FIXED_MARGIN)
        theta = FiniteSet(
            (Forecast([0.5, 0.3, 0.2]), Forecast([0.2, 0.3, 0.5]))
        )
        with pytest.raises(ResolutionTooLarge):
            oracle_maxmin(theta, c, grid_k=10**4)


def _full_matrix_oracle(theta, c, k):
    """The oracle's point-mass scan on the whole candidate x grid matrix:
    (value, strategy row, worst truth row, details)."""
    G = grid_enumerate(_space(theta.n), k)
    A = analyzer._adversary_candidates(theta, G)
    sq_a, sq_g = np.sum(A**2, axis=1), np.sum(G**2, axis=1)
    D = np.clip(sq_a[:, None] + sq_g[None, :] - 2.0 * (A @ G.T), 0.0, None)
    pm_values = c.margin - D.max(axis=0)
    j = int(np.argmax(pm_values))
    col = D[:, j]
    ties = A[col >= col.max() - 1e-12]
    worst = ties[np.lexsort(ties.T[::-1])[0]]
    d = G[int(np.argmin(np.sum((G - worst) ** 2, axis=1)))] - worst
    details = {"grid_k": k, "margin": c.margin,
               "best_point_mass_value": float(pm_values[j]),
               "reduction_rival_matches_truth_dist_sq": float(np.dot(d, d))}
    return float(pm_values[j]), G[j], worst, details, len(A), len(G)


def _audit_sets(rng):
    """Random finite sets, uncut balls and clipped balls at n = 2..5, and a
    singleton (one candidate row)."""
    out = [FiniteSet((Forecast([0.3, 0.7]),))]
    for n in range(2, 6):
        for _ in range(3):
            out.append(_random_finite_set(rng, n, max_points=6))
            center = rng.dirichlet(np.full(n, 4.0))
            limit = center.min() / np.sqrt((n - 1) / n)
            out.append(Ball(Forecast(center), limit * rng.uniform(0.2, 0.95)))
            out.append(Ball(Forecast(center), limit * rng.uniform(1.2, 3.0)))
    return out


def _full_column_max(A, G):
    """`_column_max_dist_sq`'s inputs and the column maxima of the whole
    candidate x grid matrix."""
    sq_a, sq_g = np.sum(A**2, axis=1), np.sum(G**2, axis=1)
    D = np.clip(sq_a[:, None] + sq_g[None, :] - 2.0 * (A @ G.T), 0.0, None)
    return (A, sq_a, G, sq_g), D.max(axis=0)


def _random_theta(rng, n, kind):
    """A finite set of 2..8 forecasts, an uncut ball or a ball clipped by
    the simplex."""
    if kind == "finite":
        return _random_finite_set(rng, n, max_points=8)
    center = rng.dirichlet(np.full(n, 4.0))
    limit = center.min() / np.sqrt((n - 1) / n)
    scale = rng.uniform(0.2, 0.95) if kind == "uncut" else rng.uniform(1.2, 3.0)
    return Ball(Forecast(center), limit * scale)


class TestBlockedReduction:
    GRID_K = {2: 200, 3: 30, 4: 12, 5: 8}

    @pytest.mark.parametrize("blocks", ["two_rows", "ragged", "single"])
    def test_blocked_equals_full_matrix(self, blocks, monkeypatch):
        # rows per block: the two-row minimum, two blocks of which the second
        # overlaps the first (len(A) >= 3), or one block of all candidates
        c = Contract(0.1, FIXED_MARGIN)
        for theta in _audit_sets(np.random.default_rng(46)):
            k = self.GRID_K[theta.n]
            value, strategy, worst, details, num_cand, num_grid = _full_matrix_oracle(theta, c, k)
            rows = {"two_rows": 2, "ragged": num_cand // 2 + 1, "single": num_cand}[blocks]
            monkeypatch.setattr(analyzer, "BLOCK_ENTRIES", rows * num_grid)
            report = oracle_maxmin(theta, c, grid_k=k)
            assert report.value == value
            assert np.array_equal(report.optimal_strategy.atoms[0][0].probs, strategy)
            assert np.array_equal(report.worst_case_truth.probs, worst)
            assert report.details == details

    # the audit's largest ball reads 1 of its 204 blocks of 21 rows; a
    # finite set at n = 3 whose vertices are farthest from its centroid
    # reads the 3 blocks holding them (the vertices are also grid points,
    # so they come twice) out of 13 two-row blocks; a two-point set has one
    @pytest.mark.parametrize("theta,k,rows,most", [
        pytest.param(Ball(Forecast([0.5, 0.5]), 0.95 * 0.5 / math.sqrt(0.5)), 3000, None, 2,
                     id="largest_ball"),
        pytest.param(FiniteSet(tuple(map(Forecast, np.eye(3))) + tuple(map(
            Forecast, np.random.default_rng(47).dirichlet(np.full(3, 30.0), 20)))), 30, 2, 3,
                     id="vertices_first"),
        pytest.param(FiniteSet((Forecast([0.3, 0.7]), Forecast([0.6, 0.4]))), 3000, None, 1,
                     id="two_points"),
    ])
    def test_walk_stops_early(self, theta, k, rows, most, monkeypatch):
        G = grid_enumerate(_space(theta.n), k)
        args, full = _full_column_max(analyzer._adversary_candidates(theta, G), G)
        if rows:
            monkeypatch.setattr(analyzer, "BLOCK_ENTRIES", rows * len(G))
        calls = []
        matmul = np.matmul

        def counting(*a, **kw):
            calls.append(1)
            return matmul(*a, **kw)

        monkeypatch.setattr(np, "matmul", counting)
        out = analyzer._column_max_dist_sq(*args)
        monkeypatch.undo()
        assert 1 <= len(calls) <= most
        assert np.array_equal(out.view(np.uint64), full.view(np.uint64))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), kind=st.sampled_from(["finite", "uncut", "clipped"]),
           seed=st.integers(0, 2**32 - 1))
    def test_early_exit_equals_full_matrix(self, n, kind, seed):
        # two-row blocks: the most blocks, and the most bound checks
        theta = _random_theta(np.random.default_rng(seed), n, kind)
        G = grid_enumerate(_space(n), {2: 60, 3: 15, 4: 8, 5: 6, 6: 5, 7: 4, 8: 4}[n])
        args, full = _full_column_max(analyzer._adversary_candidates(theta, G), G)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analyzer, "BLOCK_ENTRIES", 2 * len(G))
            out = analyzer._column_max_dist_sq(*args)
        assert np.array_equal(out.view(np.uint64), full.view(np.uint64))

    def test_memory_is_linear_in_grid(self):
        c = Contract(0.1, FIXED_MARGIN)
        tracemalloc.start()
        try:
            oracle_maxmin(Ball(Forecast([0.5, 0.5]), 0.6), c, grid_k=3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_threads_keep_their_own_buffers(self):
        # the block buffers outlive a call; two threads scanning different
        # balls at once must not write into each other's
        c = Contract(0.1, FIXED_MARGIN)
        balls = [Ball(Forecast([0.5, 0.5]), 0.4), Ball(Forecast([0.4, 0.6]), 0.3)] * 4
        serial = [oracle_maxmin(b, c, grid_k=2000).value for b in balls]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda b: oracle_maxmin(b, c, grid_k=2000).value, balls))
        assert threaded == serial


class TestExactOracleAgreement:
    def test_random_finite_sets(self):
        rng = np.random.default_rng(44)
        c = Contract(0.1, FIXED_MARGIN)
        k = 50
        for _ in range(10):
            n = int(rng.integers(2, 4))
            theta = _random_finite_set(rng, n)
            exact = uninformed_maxmin(theta, c)
            oracle = oracle_maxmin(theta, c, grid_k=k)
            assert abs(exact.value - oracle.value) <= 3.0 / k

    def test_uncut_balls(self):
        rng = np.random.default_rng(45)
        c = Contract(0.1, FIXED_MARGIN)
        k = 50
        for _ in range(5):
            n = int(rng.integers(2, 4))
            space = _space(n)
            while True:
                center = sample_simplex_uniform(space, rng)
                limit = float(center.probs.min()) / np.sqrt((n - 1) / n)
                if limit > 0.06:
                    break
            theta = Ball(center, float(rng.uniform(0.05, min(0.95 * limit, 0.4))))
            exact = uninformed_maxmin(theta, c)
            oracle = oracle_maxmin(theta, c, grid_k=k)
            assert abs(exact.value - oracle.value) <= 3.0 / k


class TestScreeningTheorems:
    def test_corrected_screening_below_quarter_diameter(self):
        from expert_screening import diameter_sq

        rng = np.random.default_rng(46)
        for _ in range(15):
            n = int(rng.integers(2, 4))
            theta = _random_finite_set(rng, n)
            margin = diameter_sq(theta) / 8.0
            report = uninformed_maxmin(theta, Contract(margin, FIXED_MARGIN))
            assert report.decision == REJECT

    def test_paper_epsilon_counterexample_random_witnesses(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            space = _space(n)
            fx = sample_simplex_uniform(space, rng)
            fy = sample_simplex_uniform(space, rng)
            d2 = l2_dist_sq(fx, fy)
            if d2 < 1e-2:
                continue
            theta = FiniteSet((fx, fy))
            c = make_prop1_contract(fx, fy, PAPER_EPSILON)
            report = uninformed_maxmin(theta, c)
            assert report.decision == ACCEPT
            assert report.value == pytest.approx(d2 / 4.0, abs=1e-7)

    def test_prop2_screening(self):
        eps1, eps2, gamma = 0.1, 0.5, 0.1
        c1, c2 = make_prop2_contracts(eps1, eps2, gamma)
        ball1 = Ball(Forecast([0.5, 0.3, 0.2]), eps1)
        ball2 = Ball(Forecast([0.4, 0.35, 0.25]), eps2 / 2)  # uncut helper
        r1 = uninformed_maxmin(ball1, c1)
        assert r1.decision == ACCEPT
        assert r1.value == pytest.approx(gamma - eps1**2, abs=1e-9)


class TestEq1Reduction:
    def test_rival_minimum_at_truth(self):
        rng = np.random.default_rng(48)
        c = Contract(0.1, FIXED_MARGIN)
        k = 50
        for _ in range(5):
            n = int(rng.integers(2, 4))
            theta = _random_finite_set(rng, n)
            report = oracle_maxmin(theta, c, grid_k=k)
            assert report.details[
                "reduction_rival_matches_truth_dist_sq"
            ] <= 2.0 * (n / k) ** 2 + 1e-9
