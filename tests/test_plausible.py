import importlib.util
import itertools
import math
import tracemalloc
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
    diameter_sq,
    farthest_point,
    grid_enumerate,
    l2_dist_sq,
    sample_from,
    sample_simplex_uniform,
    validate_forecast,
)
from expert_screening.errors import EmptySet, LengthMismatch, ResolutionTooLarge
from expert_screening import plausible
from expert_screening.plausible import (
    BALL_GRID_POINTS,
    DISTINCT_TOL,
    MEMBERSHIP_TOL,
    _ball_grid,
    _ball_simplex,
    members,
)
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


def _first_close_pair_triu(pts, step):
    """FiniteSet's first close pair (i, j > i), or None, read as the upper
    triangle of each `step`-row block's distance matrix by np.argwhere."""
    m = len(pts)
    for lo in range(0, m, step):
        d = dist_sq_rows(pts[lo:lo + step, None], pts[lo + 1:])
        close = np.argwhere(np.triu(d <= DISTINCT_TOL**2))
        if len(close):
            return lo + close[0, 0], lo + 1 + close[0, 1]
    return None


class TestConstruction:
    def test_finite_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteSet((Forecast([0.5, 0.5]), Forecast([0.5, 0.5])))

    def test_duplicate_check_names_the_first_pair_in_small_memory(self):
        rng = np.random.default_rng(53)
        rows = rng.dirichlet(np.ones(10), size=1500)
        forecasts = [Forecast(r) for r in rows]
        tracemalloc.start()
        try:
            FiniteSet(tuple(forecasts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an (m, m, n) temporary would take 180 MB
        assert peak < 5e6
        # the reported pair is the first i, then the first j > i: (30, 1499)
        # comes before any pair of row 701, and without it 701's copy at 1200
        # comes before its near copy (within DISTINCT_TOL) at 1400
        near = rows[701] + 1e-10 * np.eye(10)[0] - 1e-10 * np.eye(10)[1]
        forecasts[1200] = forecasts[701]
        forecasts[1400] = Forecast(near)
        forecasts[1499] = forecasts[30]
        with pytest.raises(ValueError, match=r"^forecasts 30 and 1499 are not distinct$"):
            FiniteSet(tuple(forecasts))
        forecasts[1499] = Forecast(rows[1499])
        with pytest.raises(ValueError, match=r"^forecasts 701 and 1200 are not distinct$"):
            FiniteSet(tuple(forecasts))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(n=st.integers(2, 5), m=st.integers(2, 40), step=st.integers(1, 8),
           copies=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39), st.booleans()),
                           min_size=2, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_first_close_pair_matches_the_upper_triangle(self, n, m, step, copies, seed):
        # several copies and near copies (1e-10 off, inside DISTINCT_TOL) of
        # other rows; the reference reads them in blocks of `step` rows
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(n), size=m)
        shift = 1e-10 * (np.eye(n)[0] - np.eye(n)[1])
        for a, b, near in copies:
            if a % m != b % m:
                rows[b % m] = rows[a % m] + (shift if near else 0.0)
        forecasts = tuple(map(Forecast.from_row, rows))
        pair = _first_close_pair_triu(rows, step)
        if pair is None:
            FiniteSet(forecasts)
        else:
            with pytest.raises(ValueError, match=rf"^forecasts {pair[0]} and {pair[1]} "
                                                 "are not distinct$"):
                FiniteSet(forecasts)

    def test_finite_set_rejects_empty_and_mixed_lengths(self):
        with pytest.raises(EmptySet, match="^finite plausible set needs at least one forecast$"):
            FiniteSet(())
        with pytest.raises(LengthMismatch, match="^forecasts live on different state spaces$"):
            FiniteSet((Forecast([0.5, 0.5]), Forecast([0.2, 0.3, 0.5])))

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
        assert members(Ball(Forecast([0.5, 0.5]), 0.1), Forecast([0.5, 0.5]).probs[None])[0]

    def test_ball_far_point(self):
        assert not members(Ball(Forecast([0.5, 0.5]), 0.1), Forecast([1, 0]).probs[None])[0]

    def test_finite_nonmember(self):
        assert not members(VERTICES, Forecast([0.5, 0.5]).probs[None])[0]

    def test_finite_member(self):
        assert members(VERTICES, Forecast([1, 0]).probs[None])[0]

    def test_boundary_tolerance(self):
        ball = Ball(Forecast([0.5, 0.5]), 0.1)
        boundary = Forecast([0.5 + 0.1 / math.sqrt(2), 0.5 - 0.1 / math.sqrt(2)])
        assert members(ball, boundary.probs[None])[0]

    def test_length_mismatch(self):
        for theta in (VERTICES, Ball(Forecast([0.5, 0.5]), 0.1)):
            with pytest.raises(LengthMismatch):
                farthest_point(theta, Forecast([1, 0, 0]).probs)


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
        far, d2 = farthest_point(theta, point.probs)
        assert far.tobytes() == expect.probs.tobytes()
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

    def test_validates_no_forecast(self, monkeypatch):
        # the solve runs on rows; the result's Forecasts come from from_row
        rng = np.random.default_rng(37)
        thetas = [_random_finite_set(rng, 4, max_points=6),
                  Ball(Forecast([0.3, 0.3, 0.4]), 0.1), _clipped_ball(rng, 4)]
        calls = []
        checked = Forecast.__post_init__
        monkeypatch.setattr(Forecast, "__post_init__",
                            lambda f: calls.append(f) or checked(f))
        for theta in thetas:
            res = chebyshev(theta)
            assert res.certified
            assert type(res.center) is Forecast and type(res.farthest) is Forecast
        assert calls == []

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
                far, d2 = farthest_point(ball, x.probs)
                assert members(ball, Forecast(far).probs[None])[0]
                own = float(np.sum((far - x.probs) ** 2))
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
            far, d2 = farthest_point(ball, x.probs)
            assert members(ball, Forecast(far).probs[None])[0]
            gap = math.sqrt(float(np.sum((ball.center.probs - x.probs) ** 2)))
            assert d2 == pytest.approx((gap + ball.radius) ** 2, abs=1e-12)


def _enumerated_support(support, p):
    """The subset search that the pivot walk replaced, kept as its reference:
    the first affinely independent subset of support ∪ {p} that contains p,
    has its circumcenter in its hull (weights >= -1e-12) and holds every
    row within GAP_TOL, tried by size and then in `itertools.combinations`
    order."""
    Q = np.vstack([support, p])
    for size in range(len(Q)):
        for rows in itertools.combinations(range(len(support)), size):
            sub = Q[list(rows) + [len(support)]]
            A = sub[1:] - sub[0]
            G = A @ A.T
            if np.linalg.matrix_rank(G, tol=1e-14 * max(1.0, np.trace(G))) < len(A):
                continue
            alpha = np.linalg.solve(G, 0.5 * np.diag(G))
            weights = np.concatenate([[1.0 - alpha.sum()], alpha])
            c = weights @ sub
            r2 = float(dist_sq_rows(sub, c).min())
            if weights.min() >= -1e-12 and dist_sq_rows(Q, c).max() <= r2 + plausible.GAP_TOL:
                return sub, c, r2


def _support_steps(theta):
    """(support, p, center) of every support step that chebyshev(theta) takes."""
    calls = []
    step = plausible._grow_support

    def recording(support, p, c):
        calls.append((support, p, c))
        return step(support, p, c)

    plausible._grow_support = recording
    try:
        chebyshev(theta)
    finally:
        plausible._grow_support = step
    return calls


def _near_duplicate_set(rng, n, m):
    """m random forecasts on n states, about a third of them within 1.5 to
    20 DISTINCT_TOL of an earlier one."""
    pts = []
    while len(pts) < m:
        x = rng.dirichlet(np.ones(n))
        if pts and rng.random() < 0.35:
            d = rng.standard_normal(n)
            d -= d.mean()
            x = pts[int(rng.integers(len(pts)))] + rng.uniform(1.5, 20) * DISTINCT_TOL * d / np.linalg.norm(d)
        x = Forecast(np.clip(x, 0.0, None)).probs
        if not pts or dist_sq_rows(np.array(pts), x).min() > (1.01 * DISTINCT_TOL) ** 2:
            pts.append(x)
    return FiniteSet(tuple(Forecast.from_row(x) for x in pts))


def _outside_step(rng, theta):
    """The support that chebyshev(theta) ends with, its center, and a point
    1.05 to 1.5 of its radius away from the center: (support, p, center)."""
    support, c, r2 = plausible._grow_support(*_support_steps(theta)[-1])
    d = rng.standard_normal(len(c))
    d -= d.mean()
    return support, c + rng.uniform(1.05, 1.5) * math.sqrt(r2) * d / np.linalg.norm(d), c


def _assert_matches_enumeration(support, p, c):
    rows, center, r2 = plausible._grow_support(support, p, c)
    ref_rows, ref_center, ref_r2 = _enumerated_support(support, p)
    assert rows.tobytes() == ref_rows.tobytes()
    assert center.tobytes() == ref_center.tobytes()
    assert r2 == ref_r2


def test_unit_has_the_bits_of_linalg_norm():
    # _unit's norm is what np.linalg.norm(g, axis=-1, keepdims=True) runs for
    # real rows: the root of the rows' sums of squares
    rng = np.random.default_rng(54)
    fallback = np.full(4, 0.5)
    for g in (rng.standard_normal(4), rng.standard_normal((50, 4)) * 1e-3, np.zeros((2, 4))):
        norm = np.linalg.norm(g, axis=-1, keepdims=True)
        want = np.where(norm < 1e-15, fallback, g / np.maximum(norm, 1e-300))
        assert plausible._unit(g, fallback).tobytes() == want.tobytes()


class TestPivotStep:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(2, 8), m=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_matches_enumeration_bit_for_bit(self, n, m, seed):
        # every step of a real run, and one drawn outside point
        rng = np.random.default_rng(seed)
        theta = _random_finite_set(rng, n, max_points=m, min_points=m)
        for step in _support_steps(theta) + [_outside_step(rng, theta)]:
            _assert_matches_enumeration(*step)

    @pytest.mark.parametrize("n, seed", [(5, 76), (6, 139), (7, 17), (8, 94)])
    def test_matches_enumeration_where_a_row_leaves(self, n, seed):
        # n points near one sphere hold a large support; on these seeds the
        # walk to the outside point drops a row whose weight turned negative
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((n, n))
        d -= d.mean(axis=1, keepdims=True)
        pts = 1.0 / n + 0.05 * d / np.linalg.norm(d, axis=1, keepdims=True)
        _assert_matches_enumeration(*_outside_step(rng, FiniteSet(tuple(Forecast.from_row(x) for x in pts))))

    @pytest.mark.parametrize("n", [16, 20, 30])
    def test_simplex_vertices(self, n):
        res = chebyshev(FiniteSet(tuple(Forecast.from_row(e) for e in np.eye(n))))
        assert res.certified
        assert abs(res.radius_sq - (1.0 - 1.0 / n)) <= 1e-12

    def test_near_duplicates(self):
        rng = np.random.default_rng(34)
        close = 0
        for _ in range(60):
            n, m = int(rng.integers(2, 13)), int(rng.integers(1, 13))
            theta = _near_duplicate_set(rng, n, m)
            close += int(np.sum(dist_sq_rows(theta.points[:, None], theta.points) < 1e-14) - m) // 2
            res = chebyshev(theta)
            assert res.certified
            if m <= 8:
                _, r2 = REFERENCE.meb_support_enumeration(theta.points)
                assert abs(res.radius_sq - r2) <= 1e-12
        assert close >= 30

    def test_certificate_fields(self):
        # farthest is the point that set radius_sq; an uncut ball's bounds
        # are both its closed-form radius^2
        rng = np.random.default_rng(36)
        for theta in (_random_finite_set(rng, 4, max_points=6), _clipped_ball(rng, 4)):
            res = chebyshev(theta)
            far, d2 = farthest_point(theta, res.center.probs)
            assert res.farthest.probs.tobytes() == far.tobytes() and res.radius_sq == d2
            assert res.lower <= res.radius_sq <= res.lower + plausible.GAP_TOL
        ball = Ball(Forecast([0.3, 0.3, 0.4]), 0.1)
        res = chebyshev(ball)
        assert res.farthest.probs.tobytes() == farthest_point(ball, res.center.probs)[0].tobytes()
        assert res.lower == res.radius_sq == 0.1**2

    @pytest.mark.parametrize("n", [12, 16])
    def test_clipped_balls_up_to_the_face_cap(self, n):
        assert n <= plausible.FACE_STATES_CAP
        res = chebyshev(_clipped_ball(np.random.default_rng(35 + n), n))
        assert res.certified
        assert res.radius_sq - res.lower <= plausible.GAP_TOL


class TestBallGrid:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_cached_grid_and_pairs_read_only(self, n):
        grid, sq, pairs = _ball_simplex(n)
        k = next(k for k in range(1, 2000) if math.comb(k + n, n - 1) > BALL_GRID_POINTS)
        assert np.array_equal(grid, grid_enumerate(_space(n), k))
        e = np.eye(n)
        assert np.array_equal(pairs, [e[i] - e[j] for i in range(n) for j in range(n) if i != j])
        assert np.array_equal(sq.view(np.uint64), np.sum(grid**2, axis=1).view(np.uint64))
        assert _ball_simplex(n)[0] is grid
        for a in (grid, sq, pairs):
            with pytest.raises(ValueError):
                a[0] = 0.5

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(n=st.integers(2, 8), on_grid=st.booleans(), at_row=st.booleans(),
           ulps=st.integers(-1, 1), seed=st.integers(0, 2**32 - 1))
    def test_norm_membership_equals_members(self, n, on_grid, at_row, ulps, seed):
        # a random center, or a grid row (many rows then tie in distance),
        # and a random radius, or one that puts r + MEMBERSHIP_TOL at a grid
        # row's distance as `members` measures it, moved by -1, 0 or 1 ulp
        grid, sq, _ = _ball_simplex(n)
        rng = np.random.default_rng(seed)
        c = grid[rng.integers(len(grid))] if on_grid else rng.dirichlet(np.ones(n))
        r = float(rng.uniform(0.01, 0.8))
        if at_row:
            d = float(np.sqrt(dist_sq_rows(grid[rng.integers(len(grid))][None], c))[0])
            r = d - MEMBERSHIP_TOL
            if ulps:
                r = float(np.nextafter(r, math.inf * ulps))
        if r <= 0.0:
            return
        ball = Ball(Forecast.from_row(c), r)
        expected = members(ball, grid)
        assert np.array_equal(plausible._grid_members(ball, grid, sq), expected)
        points, norms = _ball_grid(ball)
        assert points[0].tobytes() == grid[expected].tobytes()
        assert norms[0].tobytes() == sq[expected].tobytes()

    def test_one_build_per_n(self, monkeypatch):
        calls = []
        enumerate_grid = plausible.grid_enumerate

        def counting(space, k, *a, **kw):
            calls.append(space.n)
            return enumerate_grid(space, k, *a, **kw)

        monkeypatch.setattr(plausible, "grid_enumerate", counting)
        _ball_simplex.cache_clear()
        for center, r in (([0.3, 0.3, 0.4], 0.1), ([0.5, 0.2, 0.3], 0.3), ([0.4, 0.6], 0.2)):
            _ball_grid(Ball(Forecast(center), r))
        assert calls == [3, 2]


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
            assert members(theta, sample_from(theta, rng).probs[None])[0]

    def test_tiny_ball_fallback_members(self):
        # a ball far smaller than the simplex proposes from itself
        theta = Ball(Forecast([0.5, 0.5]), 1e-6)
        rng = np.random.default_rng(28)
        f = sample_from(theta, rng)
        assert members(theta, f.probs[None])[0]

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
        assert all(members(ball, Forecast(row).probs[None])[0] for row in x)
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
                if members(ball, f.probs[None])[0]:
                    return f

        for _ in range(200):
            assert sample_from(ball, rng) == reference()

    def test_large_uncut_ball(self):
        n = 200
        ball = Ball(Forecast(np.full(n, 1.0 / n)), 0.004)
        assert ball.is_uncut()
        rng = np.random.default_rng(33)
        for _ in range(20):
            assert members(ball, sample_from(ball, rng).probs[None])[0]

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
