import math

import numpy as np
import pytest

from expert_screening import (
    Ball,
    FiniteSet,
    Forecast,
    StateSpace,
    chebyshev,
    contains,
    diameter_sq,
    sample_from,
    validate_forecast,
)
from expert_screening.verify import _random_finite_set, _space

SPACE2 = StateSpace(("a", "b"))
VERTICES = FiniteSet((Forecast([1, 0]), Forecast([0, 1])))


class TestConstruction:
    def test_finite_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteSet((Forecast([0.5, 0.5]), Forecast([0.5, 0.5])))

    def test_ball_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Ball(Forecast([0.5, 0.5]), 0.0)

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


class TestDiameterSq:
    def test_vertex_pair(self):
        assert diameter_sq(VERTICES) == 2.0

    def test_singleton(self):
        assert diameter_sq(FiniteSet((Forecast([0.3, 0.7]),))) == 0.0

    def test_uncut_ball(self):
        assert diameter_sq(Ball(Forecast([0.5, 0.5]), 0.1)) == pytest.approx(
            0.04, abs=1e-12
        )

    def test_cut_ball_against_pair_grid(self):
        # ball sticking far out of the simplex: diameter limited by the edge
        ball = Ball(Forecast([0.9, 0.1]), 0.5)
        d2 = diameter_sq(ball)
        # the intersection is the segment from (1,0) inward along the edge
        # with length limited by radius around the center
        assert d2 <= (2 * ball.radius) ** 2
        assert d2 > 0.1


class TestChebyshev:
    def test_two_vertices(self):
        res = chebyshev(VERTICES, tol=1e-10)
        assert np.allclose(res.center.probs, [0.5, 0.5], atol=1e-6)
        assert res.radius_sq == pytest.approx(0.5, abs=1e-9)

    def test_singleton(self):
        f = Forecast([0.3, 0.7])
        res = chebyshev(FiniteSet((f,)))
        assert res.center == f
        assert res.radius_sq == 0.0
        assert res.certified

    def test_uncut_ball(self):
        res = chebyshev(Ball(Forecast([0.5, 0.5]), 0.1), tol=1e-10)
        assert np.allclose(res.center.probs, [0.5, 0.5], atol=1e-6)
        assert res.radius_sq == pytest.approx(0.01, abs=1e-9)

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
            res = chebyshev(theta, tol=1e-9)
            d2 = diameter_sq(theta)
            assert res.radius_sq >= d2 / 4 - 1e-6
            assert res.radius_sq <= d2 + 1e-9

    def test_uncertified_when_starved(self):
        rng = np.random.default_rng(25)
        theta = _random_finite_set(rng, 3, max_points=6)
        res = chebyshev(theta, tol=1e-15, max_iter=20)
        assert not res.certified


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
        # rejection sampling will exhaust; the Gaussian fallback must stay inside
        theta = Ball(Forecast([0.5, 0.5]), 1e-6)
        rng = np.random.default_rng(28)
        f = sample_from(theta, rng, max_rejections=10)
        assert contains(theta, f)

    def test_finite_frequencies(self):
        theta = VERTICES
        rng = np.random.default_rng(29)
        draws = 10**4
        hits = sum(sample_from(theta, rng) == Forecast([1, 0]) for _ in range(draws))
        assert abs(hits / draws - 0.5) < 0.02
