import itertools
import math
import sys
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
    chebyshev,
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
from expert_screening.plausible import MEMBERSHIP_TOL, _ball_grid, lex_farthest, members
from expert_screening.simplex import dist_sq_rows
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
        assert isinstance(report.optimal_strategy, Forecast)
        center = chebyshev(VERTICES).center
        assert report.optimal_strategy.probs.tobytes() == center.probs.tobytes()

    def test_worst_case_truth_is_farthest(self):
        c = Contract(0.1, FIXED_MARGIN)
        report = uninformed_maxmin(VERTICES, c)
        center = report.optimal_strategy
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
    def test_grid_k_is_an_integer_of_at_least_one(self, monkeypatch):
        theta = Ball(Forecast([0.5, 0.3, 0.2]), 0.1)
        c = Contract(0.1, FIXED_MARGIN)
        calls = []
        monkeypatch.setattr(analyzer, "grid_enumerate", lambda *a: calls.append(a))
        for grid_k in (1.5, True, "7", 0, -3):
            with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
                oracle_maxmin(theta, c, grid_k=grid_k)
        assert calls == []
        monkeypatch.undo()
        report = oracle_maxmin(theta, c, grid_k=np.int64(7))
        assert report.value == oracle_maxmin(theta, c, grid_k=7).value

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
        strategy = report.optimal_strategy
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


def _double_loop_mixtures(A, sq_a, G, sq_g, margin):
    """The mixture scan as a running maximum over (grid point, weight)
    pairs, one (num_cand, num_grid) array per pair: the reference for
    oracle_maxmin's one pass per grid point. Returns (best point mass,
    best mixture), both read from the full clipped matrix."""
    M = np.clip(sq_a[:, None] + sq_g[None, :] - 2.0 * (A @ G.T), 0.0, None)
    best_mix = -np.inf
    weights = [w / 10.0 for w in range(1, 10)]
    for i in range(len(G)):
        col_i = M[:, i : i + 1]
        for w in weights:
            mixed = w * col_i + (1.0 - w) * M   # (num_cand, num_grid)
            vals = margin - mixed.max(axis=0)
            m = float(vals.max())
            if m > best_mix:
                best_mix = m
    return float((margin - M.max(axis=0)).max()), best_mix


class TestMixtureAudit:
    """`mixture_pairs` adds best_mixture_value and changes nothing else."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 4), kind=st.sampled_from(["finite", "uncut", "clipped"]),
           level=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_one_pass_equals_double_loop(self, n, kind, level, seed):
        theta = _random_theta(np.random.default_rng(seed), n, kind)
        k = {2: (5, 20, 60), 3: (4, 8, 12), 4: (3, 5, 7)}[n][level]
        c = Contract(0.1, FIXED_MARGIN)
        seen = []
        candidates = analyzer._adversary_candidates
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analyzer, "_adversary_candidates",
                       lambda *a: seen.append(candidates(*a)) or seen[-1])
            try:
                report = oracle_maxmin(theta, c, grid_k=k, mixture_pairs=True)
            except ResolutionTooLarge as exc:
                report = exc
        G, sq_g = analyzer._grid(n, k)
        (A, sq_a), = seen
        budget = 9 * len(G) * len(G) * len(A)
        if budget > 5 * 10**7:
            assert str(report) == (f"two-point mixture scan needs {budget} evaluations; "
                                   "lower grid_k")
            return
        plain = oracle_maxmin(theta, c, grid_k=k)
        pm, mix = _double_loop_mixtures(A, sq_a, G, sq_g, c.margin)
        assert report.details.pop("best_mixture_value") == mix
        assert report.details["best_point_mass_value"] == pm == report.value
        assert report.decision == (ACCEPT if report.value > 0 else REJECT)
        assert report.details == plain.details and report.value == plain.value
        assert report.decision == plain.decision
        assert report.optimal_strategy == plain.optimal_strategy
        assert report.worst_case_truth == plain.worst_case_truth


def _members_candidates(theta, G):
    """The oracle's candidate rows with grid membership from `members`."""
    own = [theta.points] if isinstance(theta, FiniteSet) else _ball_grid(theta)[0]
    return np.vstack([*own, G[members(theta, G)]])


def _full_matrix_oracle(theta, c, k):
    """The oracle's point-mass scan on the whole candidate x grid matrix:
    (value, strategy row, worst truth row, details)."""
    G = grid_enumerate(_space(theta.n), k)
    A = _members_candidates(theta, G)
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
            self._report_equals(report, value, strategy, worst, details)

    @staticmethod
    def _report_equals(report, value, strategy, worst, details):
        assert report.value == value
        assert np.array_equal(report.optimal_strategy.probs, strategy)
        assert np.array_equal(report.worst_case_truth.probs, worst)
        assert report.details == details

    # the exact walk reads every candidate in 2 grid columns: 2 of 3001 for
    # the audit's largest ball (4278 candidates) and 2 of 316 251 for the
    # CLI default k = 50 on an n = 5 ball (7247 candidates); f* reads all
    # candidates in the two columns nearest their mean, and the pivot bound
    # reads 2n candidates in the columns that the mean bound keeps (2327
    # and 801); only the two seed columns survive, so the scan takes their
    # maxima from f*'s pass and reads no column again
    @pytest.mark.parametrize("theta,k,num_cand,num_grid,survivors", [
        pytest.param(Ball(Forecast([0.5, 0.5]), 0.95 * 0.5 / math.sqrt(0.5)), 3000, 4278, 3001,
                     2327, id="largest_ball"),
        pytest.param(Ball(Forecast(np.full(5, 0.2)), 0.15), 50, 7247, 316251, 801,
                     id="n5_ball_k50"),
    ])
    def test_exact_walk_reads_two_columns(self, theta, k, num_cand, num_grid, survivors,
                                          monkeypatch):
        calls = []
        column_max = analyzer._column_max_dist_sq

        def counting(A, sq_a, G, sq_g):
            calls.append((len(A), len(G)))
            return column_max(A, sq_a, G, sq_g)

        monkeypatch.setattr(analyzer, "_column_max_dist_sq", counting)
        c = Contract(0.1, FIXED_MARGIN)
        report = oracle_maxmin(theta, c, grid_k=k)
        monkeypatch.undo()
        assert calls == [(num_cand, 2), (2 * theta.n, survivors)]
        if num_grid * num_cand <= 2 * 10**7:
            # every column read, in blocks: the unpruned scan
            G, sq_g = analyzer._grid(theta.n, k)
            A, sq_a = analyzer._adversary_candidates(theta, G, sq_g)
            pm = c.margin - column_max(A, sq_a, G, sq_g)
            j = int(np.argmax(pm))
            assert report.value == pm[j]
            assert np.array_equal(report.optimal_strategy.probs, G[j])
        else:
            # the barycenter is a grid point; the ball's surface points
            # along e_i - e_j are candidates
            assert np.array_equal(report.optimal_strategy.probs, np.full(5, 0.2))
            assert abs(report.value - uninformed_maxmin(theta, c).value) <= 1e-8

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), kind=st.sampled_from(["finite", "uncut", "clipped"]),
           seed=st.integers(0, 2**32 - 1))
    def test_early_exit_equals_full_matrix(self, n, kind, seed):
        # the pruned scan's whole report, and the blocked column maxima of
        # every grid column, against the whole candidate x grid matrix;
        # two-row blocks: the most blocks
        theta = _random_theta(np.random.default_rng(seed), n, kind)
        c = Contract(0.1, FIXED_MARGIN)
        k = {2: 60, 3: 15, 4: 8, 5: 6, 6: 5, 7: 4, 8: 4}[n]
        value, strategy, worst, details, num_cand, num_grid = _full_matrix_oracle(theta, c, k)
        G = grid_enumerate(_space(n), k)
        args, full = _full_column_max(_members_candidates(theta, G), G)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analyzer, "BLOCK_ENTRIES", 2 * num_grid)
            out = analyzer._column_max_dist_sq(*args)
            report = oracle_maxmin(theta, c, grid_k=k)
        assert np.array_equal(out.view(np.uint64), full.view(np.uint64))
        self._report_equals(report, value, strategy, worst, details)

    # balls on which the 2n candidates farthest from the centroid all lie on
    # one side of it, so that pivots chosen that way keep 10 372, 20 065 and
    # 63 929 columns; the mean bound surrounds the centroid by construction
    @pytest.mark.parametrize("center,radius,k,kept", [
        pytest.param([0.1, 0.2, 0.3, 0.4], 0.3, 60, 20, id="clipped_n4_k60"),
        pytest.param([0.25] * 4, 0.3, 60, 2, id="barycentric_n4_k60"),
        pytest.param([0.2] * 5, 0.2, 50, 2, id="barycentric_n5_k50"),
    ])
    def test_kept_columns(self, center, radius, k, kept):
        theta = Ball(Forecast(center), radius)
        G, sq_g = analyzer._grid(theta.n, k)
        A, sq_a = analyzer._adversary_candidates(theta, G, sq_g)
        assert len(analyzer._winning_columns(A, sq_a, G, sq_g)[0]) == kept

    @pytest.mark.parametrize("num_cand", [2, 100, 3000])
    def test_narrow_blocks_equal_full_matrix(self, num_cand):
        # one to nine columns: per-column maxima on a tall block, the
        # reduction along axis 0 on a short one
        rng = np.random.default_rng(52)
        A = rng.dirichlet(np.ones(4), size=num_cand)
        for width in range(1, 10):
            G = rng.dirichlet(np.ones(4), size=width)
            args, full = _full_column_max(A, G)
            out = analyzer._column_max_dist_sq(*args)
            assert np.array_equal(out.view(np.uint64), full.view(np.uint64))

    def test_near_ties_equal_full_matrix(self):
        # inputs built to round: sets closed under permuting the states,
        # whose grid columns tie in exact arithmetic and differ in the last
        # bits, at margins where margin - f rounds the difference away (the
        # first column must win even when it is not among the two smallest
        # lower bounds; k = 1 mod 3 rounds most often); and sets of grid
        # midpoints, whose worst truth sits halfway between two grid rivals
        rng = np.random.default_rng(51)
        for _ in range(40):
            k = 3 * int(rng.integers(1, 13)) + 1
            rows = [np.array(sorted(set(itertools.permutations(rng.dirichlet(np.ones(3))))))
                    for _ in range(2)]
            theta = FiniteSet(tuple(map(Forecast, np.vstack(rows))))
            for margin in (2.0, 4.0, 8.0):
                c = Contract(margin, FIXED_MARGIN)
                value, strategy, worst, details, _, _ = _full_matrix_oracle(theta, c, k)
                self._report_equals(oracle_maxmin(theta, c, grid_k=k), value, strategy, worst,
                                    details)
        c = Contract(0.1, FIXED_MARGIN)
        for _ in range(40):
            n, k = int(rng.integers(2, 4)), int(rng.integers(4, 30))
            G = grid_enumerate(_space(n), k)
            pairs = rng.choice(len(G), size=(int(rng.integers(2, 7)), 2))
            mid = (G[pairs[:, 0]] + G[pairs[:, 1]]) / 2
            mid = mid[np.unique(np.rint(mid * 2 * k), axis=0, return_index=True)[1]]
            if len(mid) < 2:
                continue
            theta = FiniteSet(tuple(map(Forecast, mid)))
            value, strategy, worst, details, _, _ = _full_matrix_oracle(theta, c, k)
            self._report_equals(oracle_maxmin(theta, c, grid_k=k), value, strategy, worst, details)

    def test_memory_is_linear_in_grid(self):
        c = Contract(0.1, FIXED_MARGIN)
        tracemalloc.start()
        try:
            oracle_maxmin(Ball(Forecast([0.5, 0.5]), 0.6), c, grid_k=3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_concurrent_calls_match_serial_calls(self):
        # the oracle shares nothing writable across calls: two threads
        # scanning different balls at once get the serial values
        c = Contract(0.1, FIXED_MARGIN)
        balls = [Ball(Forecast([0.5, 0.5]), 0.4), Ball(Forecast([0.4, 0.6]), 0.3)] * 4
        serial = [oracle_maxmin(b, c, grid_k=2000).value for b in balls]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda b: oracle_maxmin(b, c, grid_k=2000).value, balls))
        assert threaded == serial


def _unfused_oracle(theta, c, k):
    """The oracle's point-mass report computed step by step, each step on
    its own: grid membership from one gemv per forecast or center, the
    candidates stacked and their norms summed, every grid column scanned in
    blocks of the oracle's height, the worst truth's column from a gemv and
    the rival scan from the grid's norms: (value, strategy, worst truth,
    details)."""
    G, sq_g = analyzer._grid(theta.n, k)
    if isinstance(theta, FiniteSet):
        own, X, t = theta.points, theta.points, MEMBERSHIP_TOL**2
    else:
        own = np.vstack(_ball_grid(theta)[0])
        X, t = theta.center.probs[None], (theta.radius + MEMBERSHIP_TOL) ** 2
    d = np.min([sq_g - 2.0 * (G @ x) + x @ x for x in X], axis=0)
    inside = d < t - analyzer.NORM_SLACK
    near = np.flatnonzero(np.abs(d - t) <= analyzer.NORM_SLACK)
    inside[near] = members(theta, G[near])
    A = np.vstack([own, G[inside]])
    sq_a = np.concatenate([np.sum(own**2, axis=1), sq_g[inside]])
    rows = min(len(A), max(2, analyzer.BLOCK_ENTRIES // len(G)))
    f = np.full(len(G), -np.inf)
    for lo in (min(start, len(A) - rows) for start in range(0, len(A), rows)):
        block = sq_a[lo : lo + rows, None] + sq_g - 2.0 * (A[lo : lo + rows] @ G.T)
        np.maximum(f, block.max(axis=0), out=f)
    pm_values = c.margin - np.clip(f, 0.0, None)
    j = int(np.argmax(pm_values))
    col = np.clip(sq_a + sq_g[j] - 2.0 * (A @ G[j : j + 1].T)[:, 0], 0.0, None)
    w = A[lex_farthest(A, col)]
    e = sq_g - 2.0 * (G @ w) + w @ w
    diffs = G[np.flatnonzero(e <= e.min() + analyzer.NORM_SLACK)] - w
    dw = diffs[int(np.argmin(np.sum(diffs**2, axis=1)))]
    details = {"grid_k": k, "margin": c.margin, "best_point_mass_value": float(pm_values[j]),
               "reduction_rival_matches_truth_dist_sq": float(np.dot(dw, dw))}
    return float(pm_values[j]), G[j], w, details


class TestOneProductPerCall:
    """The oracle, which takes a finite set's membership, scan and rival
    norms from one product and a pruned ball's scan from its seed columns,
    against each step computed on its own, byte for byte."""

    K = {2: 60, 3: 15, 4: 8, 5: 6, 6: 5, 7: 4, 8: 4}

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.integers(2, 8), m=st.integers(1, 8), tall=st.booleans(),
           on_grid=st.sampled_from([0, 0, 1, 2]), narrow=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_finite_sets(self, n, m, tall, on_grid, narrow, seed):
        # m forecasts, on_grid of them grid points (a grid row joins the
        # candidates: the blocked scan); tall: m > 2n at m >= 5 (pruned
        # columns); narrow: blocks of two rows, so a set of three or more
        # forecasts takes the blocked path too
        rng = np.random.default_rng(seed)
        n = max(2, (m - 1) // 2) if tall else n
        G, _ = analyzer._grid(n, self.K[n])
        rows = rng.dirichlet(np.ones(n), size=m)
        rows[: min(on_grid, m)] = G[rng.choice(len(G), size=min(on_grid, m), replace=False)]
        self._assert_unfused(FiniteSet(tuple(map(Forecast.from_row, rows))), narrow, rng)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), kind=st.sampled_from(["uncut", "clipped"]),
           narrow=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_balls(self, n, kind, narrow, seed):
        rng = np.random.default_rng(seed)
        self._assert_unfused(_random_theta(rng, n, kind), narrow, rng)

    def _assert_unfused(self, theta, narrow, rng):
        k = self.K[theta.n]
        c = Contract(float(rng.uniform(0.05, 0.5)), FIXED_MARGIN)
        with pytest.MonkeyPatch.context() as mp:
            if narrow:
                mp.setattr(analyzer, "BLOCK_ENTRIES", 2 * math.comb(k + theta.n - 1, theta.n - 1))
            value, strategy, worst, details = _unfused_oracle(theta, c, k)
            report = oracle_maxmin(theta, c, grid_k=k)
        assert repr(report.value) == repr(value)
        assert report.optimal_strategy.probs.tobytes() == strategy.tobytes()
        assert report.worst_case_truth.probs.tobytes() == worst.tobytes()
        assert repr(report.details) == repr(details)


class TestGridMembers:
    """The oracle's candidate rows, with grid membership taken from the
    grid's squared norms, against `members` at its boundary, bit for bit."""

    @staticmethod
    def _assert_members(theta, n, k):
        G, sq_g = analyzer._grid(n, k)
        assert np.array_equal(analyzer._grid_members(theta, G, sq_g), members(theta, G))
        A, sq_a = analyzer._adversary_candidates(theta, G, sq_g)
        assert np.array_equal(A.view(np.uint64), _members_candidates(theta, G).view(np.uint64))
        # the grid rows' norms come from sq_g with the bits of a fresh sum
        assert np.array_equal(sq_a.view(np.uint64), np.sum(A**2, axis=1).view(np.uint64))

    @pytest.mark.parametrize("n,k", [(2, 40), (3, 12), (5, 6)])
    def test_ball_radius_at_a_grid_distance(self, n, k):
        # a ball centred on a grid point whose radius is the distance, as
        # `members` measures it, to another grid point, and that radius
        # moved by MEMBERSHIP_TOL either way; each also 1 ulp up and down
        G, _ = analyzer._grid(n, k)
        rng = np.random.default_rng(49)
        for _ in range(12):
            i, j = rng.choice(len(G), size=2, replace=False)
            d = float(np.sqrt(dist_sq_rows(G[j : j + 1], G[i]))[0])
            for r in (d, d + MEMBERSHIP_TOL, d - MEMBERSHIP_TOL):
                for radius in (r, np.nextafter(r, 0.0), np.nextafter(r, 2.0)):
                    self._assert_members(Ball(Forecast(G[i]), float(radius)), n, k)

    @pytest.mark.parametrize("n,k", [(2, 40), (3, 12), (5, 6)])
    def test_finite_set_near_grid_points(self, n, k):
        # forecasts on grid points, and 1e-10 (inside MEMBERSHIP_TOL) and
        # 1e-8 (outside) from them along e_a - e_b
        G, _ = analyzer._grid(n, k)
        rng = np.random.default_rng(50)
        for offset in (0.0, 1e-10, 1e-8):
            for _ in range(6):
                rows = []
                for g in G[rng.choice(len(G), size=3, replace=False)]:
                    b = int(np.argmax(g))
                    a = (b + 1) % n
                    u = np.zeros(n)
                    u[a], u[b] = 1.0, -1.0
                    rows.append(g + offset * u / math.sqrt(2.0))
                self._assert_members(FiniteSet(tuple(map(Forecast, rows))), n, k)


class TestGridCache:
    # (n, k) pairs of the audit mix and of the tests above, all within
    # BLOCK_ENTRIES entries
    @pytest.mark.parametrize("n,k", [(2, 1), (2, 3000), (3, 20), (3, 76), (5, 14), (8, 7)])
    def test_is_the_enumerated_grid_read_only(self, n, k):
        G, sq_g = analyzer._grid(n, k)
        ref = grid_enumerate(_space(n), k)
        assert np.array_equal(G, ref)
        assert np.array_equal(sq_g, np.sum(ref**2, axis=1))
        assert analyzer._grid(n, k)[0] is G
        for a in (G, sq_g):
            with pytest.raises(ValueError):
                a[0] = 0.5

    @staticmethod
    def _builds(monkeypatch):
        """The (n, k) of every grid the oracle enumerates from now on, with
        the cache emptied."""
        calls = []
        enumerate_grid = analyzer.grid_enumerate

        def counting(space, k, *a, **kw):
            calls.append((space.n, k))
            return enumerate_grid(space, k, *a, **kw)

        monkeypatch.setattr(analyzer, "grid_enumerate", counting)
        analyzer._cached_grid.cache_clear()
        return calls

    def test_one_build_per_grid(self, monkeypatch):
        calls = self._builds(monkeypatch)
        c = Contract(0.1, FIXED_MARGIN)
        theta = FiniteSet((Forecast([0.5, 0.3, 0.2]), Forecast([0.2, 0.3, 0.5])))
        first = oracle_maxmin(theta, c, grid_k=20)
        second = oracle_maxmin(theta, c, grid_k=20)
        assert calls == [(3, 20)]
        assert second.value == first.value and second.details == first.details
        oracle_maxmin(theta, c, grid_k=21)
        assert calls == [(3, 20), (3, 21)]

    def test_large_grid_is_built_per_call_and_not_kept(self, monkeypatch):
        # C(53, 3) = 23 426 points x 4 states = 93 704 entries > BLOCK_ENTRIES
        calls = self._builds(monkeypatch)
        c = Contract(0.1, FIXED_MARGIN)
        theta = FiniteSet((Forecast([0.4, 0.3, 0.2, 0.1]), Forecast([0.1, 0.2, 0.3, 0.4])))
        oracle_maxmin(theta, c, grid_k=50)
        oracle_maxmin(theta, c, grid_k=50)
        assert calls == [(4, 50), (4, 50)]
        assert analyzer._cached_grid.cache_info().currsize == 0
        G, sq_g = analyzer._grid(4, 50)
        assert not G.flags.writeable and not sq_g.flags.writeable

    def test_threads_fill_one_cache(self):
        # four threads, switching often, all missing the cache at once
        sizes = [(n, k) for n in (2, 3, 4) for k in (5, 6, 7)] * 4
        analyzer._cached_grid.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(analyzer._grid, n, k) for n, k in sizes]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (n, k), (G, sq_g) in zip(sizes, results):
            assert np.array_equal(G, grid_enumerate(_space(n), k))
            assert np.array_equal(sq_g, np.sum(G**2, axis=1))
            assert not G.flags.writeable and not sq_g.flags.writeable
        assert analyzer._cached_grid.cache_info().currsize == 9


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
