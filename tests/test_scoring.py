import numpy as np
import pytest

from expert_screening import (
    Forecast,
    brier,
    expected_score_closed_form,
    expected_score_direct,
    grid_enumerate,
    l2_dist_sq,
    propriety_gap,
    sample_simplex_uniform,
)
from expert_screening.errors import IndexOutOfRange
from expert_screening.verify import _space


class TestBrier:
    def test_perfect_forecast_scores_zero(self):
        assert brier(Forecast([1, 0]), 0) == 0.0

    def test_maximally_wrong(self):
        assert brier(Forecast([0, 1]), 0) == -2.0

    def test_uniform(self):
        assert brier(Forecast([0.5, 0.5]), 0) == pytest.approx(-0.5, abs=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            brier(Forecast([0.5, 0.5]), 2)
        with pytest.raises(IndexOutOfRange):
            brier(Forecast([0.5, 0.5]), -1)

    def test_range_on_grid_and_random(self):
        rng = np.random.default_rng(11)
        forecasts = [Forecast(p) for p in grid_enumerate(_space(3), 6)]
        forecasts += [sample_simplex_uniform(_space(3), rng) for _ in range(200)]
        for f in forecasts:
            for s in range(3):
                b = brier(f, s)
                assert -2.0 - 1e-12 <= b <= 1e-12
                if b > -1e-9:
                    assert f.probs[s] == pytest.approx(1.0, abs=1e-6)


class TestExpectedScore:
    def test_perfect_informed(self):
        f = Forecast([1, 0])
        assert expected_score_direct(f, f) == 0.0

    def test_uniform_self(self):
        f = Forecast([0.5, 0.5])
        assert expected_score_direct(f, f) == pytest.approx(-0.5, abs=1e-15)

    def test_direct_matches_closed_form(self):
        truth = Forecast([0.8, 0.2])
        report = Forecast([0.5, 0.5])
        assert expected_score_direct(truth, report) == pytest.approx(
            expected_score_closed_form(truth, report), abs=1e-15
        )

    def test_closed_form_self(self):
        f = Forecast([0.6, 0.3, 0.1])
        norm_sq = float(np.dot(f.probs, f.probs))
        assert expected_score_closed_form(f, f) == pytest.approx(
            norm_sq - 1.0, abs=1e-15
        )

    def test_closed_form_opposite_vertices(self):
        assert expected_score_closed_form(Forecast([1, 0]), Forecast([0, 1])) == -2.0

    def test_closed_form_vertex_report(self):
        assert expected_score_closed_form(
            Forecast([0.5, 0.5]), Forecast([1, 0])
        ) == pytest.approx(-1.0, abs=1e-15)

    def test_identity_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            space = _space(n)
            truth = sample_simplex_uniform(space, rng)
            report = sample_simplex_uniform(space, rng)
            assert abs(
                expected_score_direct(truth, report)
                - expected_score_closed_form(truth, report)
            ) <= 1e-12

    def test_strict_propriety(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            space = _space(n)
            truth = sample_simplex_uniform(space, rng)
            report = sample_simplex_uniform(space, rng)
            if l2_dist_sq(truth, report) < 1e-12:
                continue
            assert expected_score_direct(truth, truth) > expected_score_direct(
                truth, report
            )


class TestProprietyGap:
    def test_identity_report(self):
        f = Forecast([0.4, 0.6])
        assert propriety_gap(f, f) == 0.0

    def test_opposite_vertices(self):
        assert propriety_gap(Forecast([1, 0]), Forecast([0, 1])) == 2.0

    def test_hand_value(self):
        assert propriety_gap(Forecast([0.8, 0.2]), Forecast([0.5, 0.5])) == pytest.approx(
            0.18, abs=1e-15
        )

    def test_equals_squared_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            space = _space(n)
            truth = sample_simplex_uniform(space, rng)
            report = sample_simplex_uniform(space, rng)
            assert abs(propriety_gap(truth, report) - l2_dist_sq(truth, report)) <= 1e-12
