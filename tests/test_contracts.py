import numpy as np
import pytest

from expert_screening import (
    Contract,
    FIXED_MARGIN,
    Forecast,
    PAPER_EPSILON,
    SAFE_EPSILON,
    expected_payoff,
    l2_dist_sq,
    make_prop1_contract,
    make_prop2_contracts,
    realized_payoff,
    sample_simplex_uniform,
)
from expert_screening.contracts import MAX_MARGIN
from expert_screening.errors import DegenerateWitnesses, InvalidGamma, InvalidRadii
from expert_screening.verify import _space

FX = Forecast([1, 0])
FY = Forecast([0, 1])


class TestMakeProp1Contract:
    def test_paper_epsilon(self):
        c = make_prop1_contract(FX, FY, PAPER_EPSILON)
        assert c.margin == 1.0
        assert c == Contract(1.0, PAPER_EPSILON)

    def test_safe_epsilon(self):
        c = make_prop1_contract(FX, FY, SAFE_EPSILON)
        assert c.margin == 0.25

    def test_fixed_margin(self):
        c = make_prop1_contract(FX, FY, FIXED_MARGIN, margin=0.125)
        assert c.margin == 0.125

    def test_degenerate_witnesses(self):
        with pytest.raises(DegenerateWitnesses):
            make_prop1_contract(FX, FX, PAPER_EPSILON)

    def test_nonfinite_margin_rejected(self):
        with pytest.raises(ValueError):
            Contract(float("nan"), FIXED_MARGIN)
        with pytest.raises(ValueError):
            Contract(float("inf"), FIXED_MARGIN)

    def test_margin_whose_square_overflows_rejected(self):
        assert MAX_MARGIN**2 < float("inf")
        for margin in (MAX_MARGIN, -MAX_MARGIN):
            assert Contract(margin, FIXED_MARGIN).margin == margin
        for margin in (np.nextafter(MAX_MARGIN, np.inf), -1e300):
            with pytest.raises(ValueError, match="margin must be finite with"):
                Contract(margin, FIXED_MARGIN)
        with pytest.raises(ValueError, match="margin must be finite with"):
            make_prop2_contracts(1.0, 1e150, 1e299)


class TestMakeProp2Contracts:
    def test_valid_gamma(self):
        c1, c2 = make_prop2_contracts(0.1, 0.5, 0.1)
        assert c1.margin == 0.1 and c2.margin == 0.1

    def test_invalid_gamma(self):
        with pytest.raises(InvalidGamma):
            make_prop2_contracts(0.1, 0.5, 0.3)

    def test_invalid_radii(self):
        with pytest.raises(InvalidRadii):
            make_prop2_contracts(0.5, 0.1, 0.1)

    def test_radius_without_a_finite_square(self):
        with pytest.raises(InvalidRadii):
            make_prop2_contracts(0.1, 1e200, 0.5)


class TestRealizedPayoff:
    def test_same_forecasts_pay_margin(self):
        c = Contract(0.7, FIXED_MARGIN)
        f = Forecast([0.4, 0.6])
        for s in range(2):
            assert realized_payoff(c, f, f, s) == 0.7

    def test_vertex_difference(self):
        c = Contract(0.0, FIXED_MARGIN)
        assert realized_payoff(c, FX, FY, 0) == 2.0
        assert realized_payoff(c, FY, FX, 0) == -2.0

    def test_zero_sum_core_for_mirrored_pair(self):
        c1, c2 = make_prop2_contracts(0.1, 0.5, 0.2)
        rng = np.random.default_rng(31)
        space = _space(3)
        for _ in range(100):
            a = sample_simplex_uniform(space, rng)
            b = sample_simplex_uniform(space, rng)
            for s in range(3):
                total = realized_payoff(c1, a, b, s) + realized_payoff(c2, b, a, s)
                assert total == pytest.approx(c1.margin + c2.margin, abs=1e-12)


class TestExpectedPayoff:
    def test_truthful_own_positive(self):
        c = Contract(0.25, FIXED_MARGIN)
        truth = Forecast([0.7, 0.3])
        rival = Forecast([0.2, 0.8])
        assert expected_payoff(c, truth, truth, rival) == pytest.approx(
            l2_dist_sq(truth, rival) + 0.25, abs=1e-12
        )
        assert expected_payoff(c, truth, truth, rival) > 0

    def test_own_equals_rival_pays_margin(self):
        c = Contract(0.4, FIXED_MARGIN)
        truth = Forecast([0.7, 0.3])
        f = Forecast([0.1, 0.9])
        assert expected_payoff(c, truth, f, f) == 0.4

    def test_hand_value(self):
        c = Contract(0.0, FIXED_MARGIN)
        truth = Forecast([0.8, 0.2])
        assert expected_payoff(c, truth, truth, Forecast([0.5, 0.5])) == pytest.approx(
            0.18, abs=1e-15
        )

    def test_consistency_with_realized(self):
        rng = np.random.default_rng(32)
        c = Contract(0.3, FIXED_MARGIN)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            space = _space(n)
            truth = sample_simplex_uniform(space, rng)
            own = sample_simplex_uniform(space, rng)
            rival = sample_simplex_uniform(space, rng)
            weighted = sum(
                truth.probs[s] * realized_payoff(c, own, rival, s) for s in range(n)
            )
            assert abs(expected_payoff(c, truth, own, rival) - weighted) <= 1e-12

    def test_honesty_dominance(self):
        rng = np.random.default_rng(33)
        c = Contract(0.1, FIXED_MARGIN)
        for _ in range(200):
            space = _space(3)
            truth = sample_simplex_uniform(space, rng)
            own = sample_simplex_uniform(space, rng)
            rival = sample_simplex_uniform(space, rng)
            gap = expected_payoff(c, truth, truth, rival) - expected_payoff(
                c, truth, own, rival
            )
            assert gap == pytest.approx(l2_dist_sq(truth, own), abs=1e-12)

    def test_margin_monotonicity(self):
        truth = Forecast([0.6, 0.4])
        own = Forecast([0.5, 0.5])
        rival = Forecast([0.2, 0.8])
        values = [
            expected_payoff(Contract(m, FIXED_MARGIN), truth, own, rival)
            for m in (0.0, 0.1, 0.5, 1.0)
        ]
        assert values == sorted(values)
        assert len(set(values)) == len(values)
