import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expert_screening import (
    Ball,
    FiniteSet,
    Forecast,
    StateSpace,
    chebyshev,
    contains,
    diameter_sq,
    farthest_point,
    grid_enumerate,
    l2_dist_sq,
    sample_from,
    sample_simplex_uniform,
    validate_forecast,
)
from expert_screening.errors import LengthMismatch, ResolutionTooLarge
from expert_screening.plausible import members
from expert_screening.simplex import dist_sq_rows
from expert_screening.verify import _random_finite_set, _space


def _bench_reference():
    """bench/reference.py: exact enclosing balls that never import the package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _bench_reference()
SPACE2 = StateSpace(("a", "b"))
VERTICES = FiniteSet((Forecast([1, 0]), Forecast([0, 1])))
CHI2_9_999 = 27.877  # 0.999 quantile of the chi-square law with 9 degrees of freedom


class TestConstruction:
    def test_finite_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteSet((Forecast([0.5, 0.5]), Forecast([0.5, 0.5])))

    def test_ball_rejects_nonpositive_radius(self):
        for radius in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Ball(Forecast([0.5, 0.5]), radius)

    def test_points_are_the_forecasts_read_only(self):
        theta = _random_finite_set(np.random.default_rng(49), 4, max_points=6)
        assert theta.points.shape == (len(theta.forecasts), 4)
        for row, f in zip(theta.points, theta.forecasts):
            assert row.tobytes() == f.probs.tobytes()
        with pytest.raises(ValueError):
            theta.points[0, 0] = 0.5

    def test_uncut_detection(self):
        assert Ball(Forecast([0.5, 0.5]), 0.1).is_uncut()
        assert not Ball(Forecast([0.9, 0.1]), 0.5).is_uncut()


class TestContains:
    def test_ball_center(self):
        assert contains(Ball(Forecast([0.5, 0.5]), 0.1), Forecast([0.5, 0.5]))

    def test_ball_far_point(self):
        assert not contains(Ball(Forecast([0.5, 0.5]), 0.1), Forecast([1, 0]))

    def test_finite_nonmember(self):
        assert not contains(VERTICES, Forecast([0.5, 0.5]))

    def test_finite_member(self):
        assert contains(VERTICES, Forecast([1, 0]))

    def test_boundary_tolerance(self):
        ball = Ball(Forecast([0.5, 0.5]), 0.1)
        boundary = Forecast([0.5 + 0.1 / math.sqrt(2), 0.5 - 0.1 / math.sqrt(2)])
        assert contains(ball, boundary)

    def test_length_mismatch(self):
        for theta in (VERTICES, Ball(Forecast([0.5, 0.5]), 0.1)):
            with pytest.raises(LengthMismatch):
                contains(theta, Forecast([1, 0, 0]))
            with pytest.raises(LengthMismatch):
                farthest_point(theta, Forecast([1, 0, 0]))

    @staticmethod
    def _near(rng, points, dist, spread):
        """One row per point at distance dist + U(-spread, spread) from it,
        along a random direction in the sum-zero plane."""
        d = rng.standard_normal(points.shape)
        d -= d.mean(axis=1, keepdims=True)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        t = dist + rng.uniform(-spread, spread, len(points))
        return points + t[:, None] * d

    def test_matches_members_on_ball_spheres(self):
        rng = np.random.default_rng(40)
        for n in range(2, 7):
            c = np.full(n, 1.0 / n)
            ball = Ball(Forecast(c), 0.5 / n)
            rows = self._near(rng, np.tile(c, (500, 1)), ball.radius, 2e-9)
            mask = members(ball, rows)
            assert 0 < mask.sum() < len(rows)
            assert [contains(ball, Forecast.from_row(r)) for r in rows] == mask.tolist()

    def test_matches_members_near_finite_points(self):
        rng = np.random.default_rng(41)
        for n in range(2, 7):
            theta = _random_finite_set(rng, n, max_points=4)
            points = theta.points
            rows = self._near(rng, points[rng.integers(len(points), size=500)], 1e-9, 1e-9)
            mask = members(theta, rows)
            assert 0 < mask.sum() < len(rows)
            assert [contains(theta, Forecast.from_row(r)) for r in rows] == mask.tolist()


class TestDiameterSq:
    def test_vertex_pair(self):
        assert diameter_sq(VERTICES) == 2.0

    def test_singleton(self):
        assert diameter_sq(FiniteSet((Forecast([0.3, 0.7]),))) == 0.0

    def test_uncut_ball(self):
        assert diameter_sq(Ball(Forecast([0.5, 0.5]), 0.1)) == pytest.approx(
            0.04, abs=1e-12
        )

    def test_cut_ball_raises(self):
        # a ball sticking out of the simplex has no exact diameter here
        with pytest.raises(ValueError, match="clipped by the simplex"):
            diameter_sq(Ball(Forecast([0.9, 0.1]), 0.5))


@st.composite
def _grid_set_and_point(draw):
    """A finite set of distinct points of a coarse simplex grid, and a query
    point on the same grid or at the barycenter, so that exact ties are
    common."""
    n = draw(st.integers(2, 5))
    G = grid_enumerate(_space(n), draw(st.integers(1, 4)))
    rows = draw(st.lists(st.integers(0, len(G) - 1), min_size=1, max_size=8, unique=True))
    q = draw(st.integers(-1, len(G) - 1))
    point = Forecast(np.full(n, 1.0 / n)) if q < 0 else Forecast.from_row(G[q])
    return FiniteSet(tuple(Forecast.from_row(G[i]) for i in rows)), point


class TestFarthestPointFinite:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=_grid_set_and_point())
    def test_matches_a_scan(self, case):
        # the largest distance, and the lexicographically smallest forecast
        # within 1e-12 of it
        theta, point = case
        d = [l2_dist_sq(f, point) for f in theta.forecasts]
        top = max(d)
        expect = min((f for f, x in zip(theta.forecasts, d) if x >= top - 1e-12),
                     key=lambda f: tuple(f.probs.tolist()))
        far, d2 = farthest_point(theta, point)
        assert far is expect
        assert d2 == l2_dist_sq(expect, point)
        assert abs(d2 - top) <= 1e-12


class TestChebyshev:
    def test_two_vertices(self):
        res = chebyshev(VERTICES)
        assert np.allclose(res.center.probs, [0.5, 0.5], rtol=0.0, atol=1e-12)
        assert res.radius_sq == pytest.approx(0.5, abs=1e-12)

    def test_singleton(self):
        f = Forecast([0.3, 0.7])
        res = chebyshev(FiniteSet((f,)))
        assert res.center == f
        assert res.radius_sq == 0.0
        assert res.certified

    def test_uncut_ball(self):
        res = chebyshev(Ball(Forecast([0.5, 0.5]), 0.1))
        assert np.allclose(res.center.probs, [0.5, 0.5], rtol=0.0, atol=1e-12)
        assert res.radius_sq == pytest.approx(0.01, abs=1e-12)

    def test_center_on_simplex(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta = _random_finite_set(rng, 3, max_points=6)
            res = chebyshev(theta)
            validate_forecast(res.center.probs, _space(3))

    def test_radius_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            theta = _random_finite_set(rng, n, max_points=6)
            res = chebyshev(theta)
            d2 = diameter_sq(theta)
            assert res.radius_sq >= d2 / 4 - 1e-12
            assert res.radius_sq <= d2 + 1e-9

    def test_finite_sets_match_support_enumeration(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            theta = _random_finite_set(rng, n, max_points=8, min_points=1)
            _, r2 = REFERENCE.meb_support_enumeration(theta.points)
            res = chebyshev(theta)
            assert res.certified
            assert abs(res.radius_sq - r2) <= 1e-12


def _clipped_ball(rng, n):
    """A ball whose sphere reaches past a face of the simplex."""
    while True:
        center = sample_simplex_uniform(_space(n), rng)
        limit = float(center.probs.min()) / math.sqrt((n - 1) / n)
        ball = Ball(center, float(rng.uniform(1.05 * limit, limit + 0.5)))
        if not ball.is_uncut():
            return ball


GRID_K = {2: 2000, 3: 60, 4: 25, 5: 14, 6: 10, 7: 8, 8: 7}


class TestClippedBall:
    def test_farthest_point_never_beaten_by_grid(self):
        rng = np.random.default_rng(31)
        for i in range(70):
            n = 2 + i % 7
            ball = _clipped_ball(rng, n)
            grid = grid_enumerate(_space(n), GRID_K[n])
            grid = grid[dist_sq_rows(grid, ball.center.probs) <= ball.radius**2]
            queries = [sample_simplex_uniform(_space(n), rng) for _ in range(3)]
            for x in queries + [ball.center, chebyshev(ball).center]:
                far, d2 = farthest_point(ball, x)
                assert contains(ball, far)
                own = float(np.sum((far.probs - x.probs) ** 2))
                assert d2 == pytest.approx(own, abs=1e-15)
                if len(grid):
                    assert float(dist_sq_rows(grid, x.probs).max()) <= d2 + 1e-12

    def test_chebyshev_within_reference_brackets(self):
        rng = np.random.default_rng(32)
        for i in range(70):
            n = 2 + i % 7
            ball = _clipped_ball(rng, n)
            res = chebyshev(ball)
            assert res.certified
            sample_r2, far2 = REFERENCE.clipped_ball_brackets(
                ball.center.probs, ball.radius, res.center.probs, res.radius_sq, rng
            )
            assert sample_r2 <= res.radius_sq + 1e-12
            assert far2 <= res.radius_sq + 1e-12

    def test_too_many_states_for_face_enumeration(self):
        center = Forecast(np.r_[0.01, np.full(16, 0.99 / 16)])
        ball = Ball(center, 0.2)
        assert not ball.is_uncut()
        with pytest.raises(ResolutionTooLarge):
            chebyshev(ball)

    def test_farthest_point_next_to_the_center(self):
        # x within ~1e-14 of the center: the direction to the antipode must
        # stay in the sum-zero plane, or the candidate leaves the simplex
        rng = np.random.default_rng(33)
        for _ in range(2000):
            ball = Ball(Forecast(0.125 + 0.5 * rng.dirichlet(np.ones(4))), 0.01)
            x = Forecast(ball.center.probs + 1e-15 * rng.standard_normal(4))
            far, d2 = farthest_point(ball, x)
            assert contains(ball, far)
            gap = math.sqrt(float(np.sum((ball.center.probs - x.probs) ** 2)))
            assert d2 == pytest.approx((gap + ball.radius) ** 2, abs=1e-12)


class TestSampleFrom:
    def test_singleton(self):
        f = Forecast([0.3, 0.7])
        theta = FiniteSet((f,))
        rng = np.random.default_rng(26)
        for _ in range(10):
            assert sample_from(theta, rng) == f

    def test_ball_samples_are_members(self):
        theta = Ball(Forecast([0.5, 0.3, 0.2]), 0.08)
        rng = np.random.default_rng(27)
        for _ in range(200):
            assert contains(theta, sample_from(theta, rng))

    def test_tiny_ball_fallback_members(self):
        # a ball far smaller than the simplex proposes from itself
        theta = Ball(Forecast([0.5, 0.5]), 1e-6)
        rng = np.random.default_rng(28)
        f = sample_from(theta, rng)
        assert contains(theta, f)

    @pytest.mark.parametrize(
        "n, r, draws", [(3, 0.1, 500), (8, 0.1, 500), (20, 0.03, 500), (8, 0.05, 64)]
    )
    def test_uniform_in_uncut_balls(self, n, r, draws):
        # For X uniform in an (n-1)-ball, U = (|X-c|^2/r^2)^((n-1)/2) is
        # uniform on [0, 1]; chi-square over 10 bins of U. At n=8, r=0.05 a
        # loop proposing uniform simplex points keeps about 1 in 10^4.
        rng = np.random.default_rng([30, n, draws])
        ball = Ball(Forecast(0.85 / n + 0.15 * rng.dirichlet(np.ones(n))), r)
        assert ball.is_uncut()
        x = np.array([sample_from(ball, rng).probs for _ in range(draws)])
        u = (dist_sq_rows(x, ball.center.probs) / r**2) ** ((n - 1) / 2)
        counts = np.bincount(np.minimum((10 * u).astype(int), 9), minlength=10)
        assert float(np.sum((counts - draws / 10) ** 2) / (draws / 10)) < CHI2_9_999

    def test_clipped_ball_matches_grid(self):
        # share of B ∩ Δ with x0 > c0: draws against the grid points in B
        ball = Ball(Forecast([0.7, 0.2, 0.1]), 0.3)
        assert not ball.is_uncut()
        grid = grid_enumerate(StateSpace(("a", "b", "c")), 600)
        expect = float(np.mean(grid[members(ball, grid), 0] > 0.7))
        rng = np.random.default_rng(31)
        draws = 4000
        x = np.array([sample_from(ball, rng).probs for _ in range(draws)])
        assert all(contains(ball, Forecast(row)) for row in x)
        share = float(np.mean(x[:, 0] > 0.7))
        assert abs(share - expect) <= 4.0 * math.sqrt(expect * (1.0 - expect) / draws)

    def test_ball_larger_than_simplex_proposes_from_simplex(self):
        # a ball with more area than the simplex keeps uniform simplex points
        # that fall inside it, draw for draw on the same stream
        ball = Ball(Forecast([1, 0, 0]), 1.0)
        space = StateSpace(("0", "1", "2"))
        rng, ref_rng = np.random.default_rng(32), np.random.default_rng(32)

        def reference():
            while True:
                f = sample_simplex_uniform(space, ref_rng)
                if contains(ball, f):
                    return f

        for _ in range(200):
            assert sample_from(ball, rng) == reference()

    def test_large_uncut_ball(self):
        n = 200
        ball = Ball(Forecast(np.full(n, 1.0 / n)), 0.004)
        assert ball.is_uncut()
        rng = np.random.default_rng(33)
        for _ in range(20):
            assert contains(ball, sample_from(ball, rng))

    def test_small_ball_at_a_vertex_raises(self):
        # B ∩ Δ is about 1/n! of B: no draw within MAX_PROPOSALS
        ball = Ball(Forecast(np.eye(12)[0]), 0.05)
        with pytest.raises(ResolutionTooLarge, match="12 states"):
            sample_from(ball, np.random.default_rng(34))

    def test_finite_frequencies(self):
        theta = VERTICES
        rng = np.random.default_rng(29)
        draws = 10**4
        hits = sum(sample_from(theta, rng) == Forecast([1, 0]) for _ in range(draws))
        assert abs(hits / draws - 0.5) < 0.02


CLIPPED3 = Ball(Forecast([0.7, 0.2, 0.1]), 0.3)   # proposes from B, rejects some


def _reference_block(ball, rng, size):
    """The ball-proposal round rule, one row at a time: each round draws a
    Gaussian row for every empty row, then one uniform each, and fills the
    accepted rows in row order. Returns the block and its round count."""
    n, c, r = ball.n, ball.center.probs, ball.radius
    out = np.full((size, n), np.nan)
    empty, rounds = list(range(size)), 0
    while empty:
        rounds += 1
        g = rng.standard_normal((len(empty), n))
        u = rng.random(len(empty))
        left = []
        for j, row, uj in zip(empty, g, u):
            d = row - row.mean()
            x = c + r * uj ** (1.0 / (n - 1)) / np.linalg.norm(d) * d
            if x.min() >= 0.0:
                out[j] = Forecast(x).probs
            else:
                left.append(j)
        empty = left
    return out, rounds


class TestSampleBlocks:
    @pytest.mark.parametrize("theta", [
        FiniteSet((Forecast([0.2, 0.3, 0.5]), Forecast([1, 0, 0]), Forecast([0, 1, 0]))),
        Ball(Forecast([0.4, 0.35, 0.25]), 0.1),
        CLIPPED3,
        Ball(Forecast([1, 0, 0]), 1.0),
    ], ids=["finite", "uncut", "clipped_from_ball", "from_simplex"])
    def test_single_draw_is_a_one_row_block(self, theta):
        rng, rng2 = np.random.default_rng(35), np.random.default_rng(35)
        for _ in range(100):
            one = sample_from(theta, rng).probs
            assert one.tobytes() == sample_from(theta, rng2, 1)[0].tobytes()
        assert rng.random() == rng2.random()

    @pytest.mark.parametrize("ball", [
        CLIPPED3,
        # at n > 3 numpy's vectorized power rounds u^(1/(n-1)) unlike `**`
        Ball(Forecast([0.5, 0.2, 0.1, 0.1, 0.05, 0.05]), 0.15),
    ], ids=["n3", "n6"])
    def test_block_layout_matches_round_rule(self, ball):
        assert not ball.is_uncut()
        rng, ref_rng = np.random.default_rng(36), np.random.default_rng(36)
        block = sample_from(ball, rng, 64)
        ref, rounds = _reference_block(ball, ref_rng, 64)
        assert rounds > 1
        assert block.shape == (64, ball.n) and block.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()

    def test_clipped_block_rows_are_members(self):
        block = sample_from(CLIPPED3, np.random.default_rng(37), 4096)
        assert block.shape == (4096, 3)
        assert block.min() >= 0.0 and members(CLIPPED3, block).all()

    def test_small_ball_at_a_vertex_raises_for_a_block(self):
        ball = Ball(Forecast(np.eye(12)[0]), 0.05)
        with pytest.raises(ResolutionTooLarge, match="12 states"):
            sample_from(ball, np.random.default_rng(34), 8)
