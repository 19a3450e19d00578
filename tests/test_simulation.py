import json

import numpy as np
import pytest

from expert_screening import (
    Ball,
    ExpertSpec,
    FiniteSet,
    Forecast,
    Prop1Config,
    Prop2Config,
    SAFE_EPSILON,
    Scenario,
    StateSpace,
    expected_payoff,
    make_prop1_contract,
    run_tournament,
    sample_state,
)
from expert_screening.errors import InvalidScenario

SPACE2 = StateSpace(("up", "down"))
FX = Forecast([1, 0])
FY = Forecast([0, 1])
VERTICES = FiniteSet((FX, FY))


def _prop1_scenario(trials=1000, seed=7, policy=SAFE_EPSILON):
    return Scenario(
        states=SPACE2,
        nature=Forecast([0.7, 0.3]),
        experts=(
            ExpertSpec(id="alice", kind="informed"),
            ExpertSpec(
                id="bob", kind="uninformed", theta=VERTICES, announce="chebyshev"
            ),
        ),
        contract_config=Prop1Config(policy=policy, witnesses=(FX, FY)),
        trials=trials,
        seed=seed,
    )


class TestExpertSpec:
    def test_informed_must_announce_truth(self):
        with pytest.raises(InvalidScenario):
            ExpertSpec(id="x", kind="informed", announce="chebyshev")

    def test_uninformed_cannot_announce_truth(self):
        with pytest.raises(InvalidScenario):
            ExpertSpec(id="x", kind="uninformed", theta=VERTICES, announce="truth")

    def test_partial_requires_ball(self):
        with pytest.raises(InvalidScenario):
            ExpertSpec(id="x", kind="partial", theta=VERTICES, announce="chebyshev")

    def test_uninformed_requires_theta(self):
        with pytest.raises(InvalidScenario):
            ExpertSpec(id="x", kind="uninformed", announce="chebyshev")


class TestScenario:
    def test_requires_two_experts(self):
        with pytest.raises(InvalidScenario):
            Scenario(
                states=SPACE2,
                nature="uniform",
                experts=(ExpertSpec(id="a", kind="informed"),),
                contract_config=Prop1Config(policy=SAFE_EPSILON, witnesses=(FX, FY)),
                trials=10,
                seed=0,
            )

    def test_rejects_bad_trials(self):
        for trials in (0, True):
            with pytest.raises(InvalidScenario, match="trials"):
                _prop1_scenario(trials=trials)


class TestSampleState:
    def test_degenerate(self):
        rng = np.random.default_rng(51)
        assert all(sample_state(FX, rng) == 0 for _ in range(50))
        assert all(sample_state(FY, rng) == 1 for _ in range(50))

    def test_frequencies(self):
        rng = np.random.default_rng(7)
        draws = 10**4
        hits = sum(
            sample_state(Forecast([0.5, 0.5]), rng) == 0 for _ in range(draws)
        )
        assert 0.48 <= hits / draws <= 0.52


class TestRunTournament:
    def test_screening_and_payoffs(self):
        report = run_tournament(_prop1_scenario(trials=20000))
        alice, bob = report.experts
        assert alice.decision == "accept"
        assert bob.decision == "reject"
        assert report.screening_correct
        # rejecting expert records exactly 0
        assert bob.mean_payoff == 0.0
        assert bob.payoff_stderr == 0.0
        # informed mean within 3 standard errors of the analytic expectation
        c = make_prop1_contract(FX, FY, SAFE_EPSILON)
        truth = Forecast([0.7, 0.3])
        rival = Forecast([0.5, 0.5])  # chebyshev center of the vertex pair
        expect = expected_payoff(c, truth, truth, rival)
        assert abs(alice.mean_payoff - expect) <= 3 * alice.payoff_stderr

    def test_determinism(self):
        a = run_tournament(_prop1_scenario(trials=500))
        b = run_tournament(_prop1_scenario(trials=500))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_different_seed_changes_realizations(self):
        a = run_tournament(_prop1_scenario(trials=500, seed=1))
        b = run_tournament(_prop1_scenario(trials=500, seed=2))
        assert a.experts[0].mean_payoff != b.experts[0].mean_payoff

    def test_prop2_partially_informed(self):
        sc = Scenario(
            states=StateSpace(("a", "b", "c")),
            nature=Forecast([0.5, 0.3, 0.2]),
            experts=(
                ExpertSpec(
                    id="sharp",
                    kind="partial",
                    theta=Ball(Forecast([0.5, 0.3, 0.2]), 0.1),
                    announce="chebyshev",
                ),
                ExpertSpec(
                    id="blurry",
                    kind="partial",
                    theta=Ball(Forecast([0.4, 0.35, 0.25]), 0.22),
                    announce="chebyshev",
                ),
            ),
            contract_config=Prop2Config(eps1=0.1, eps2=0.22, gamma=0.02),
            trials=2000,
            seed=11,
        )
        report = run_tournament(sc)
        sharp, blurry = report.experts
        assert sharp.decision == "accept"
        assert sharp.analyzer_value == pytest.approx(0.02 - 0.01, abs=1e-9)
        assert blurry.decision == "reject"
        assert blurry.analyzer_value == pytest.approx(0.02 - 0.22**2, abs=1e-9)
        assert report.screening_correct

    def test_uniform_nature_and_sample_policy(self):
        sc = Scenario(
            states=SPACE2,
            nature="uniform",
            experts=(
                ExpertSpec(id="alice", kind="informed"),
                ExpertSpec(
                    id="bob", kind="uninformed", theta=VERTICES, announce="sample"
                ),
            ),
            contract_config=Prop1Config(policy=SAFE_EPSILON, witnesses=(FX, FY)),
            trials=300,
            seed=3,
        )
        a = run_tournament(sc)
        b = run_tournament(sc)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_fixed_announcement_collusion_loophole(self):
        # two uninformed experts pinning identical forecasts both secure the margin,
        # but screening still flags them: acceptance is an analyzer decision
        shared = Forecast([0.5, 0.5])
        sc = Scenario(
            states=SPACE2,
            nature=Forecast([0.6, 0.4]),
            experts=(
                ExpertSpec(id="u1", kind="uninformed", theta=VERTICES, announce=shared),
                ExpertSpec(id="u2", kind="uninformed", theta=VERTICES, announce=shared),
            ),
            contract_config=Prop1Config(policy=SAFE_EPSILON, witnesses=(FX, FY)),
            trials=100,
            seed=5,
        )
        report = run_tournament(sc)
        assert all(e.decision == "reject" for e in report.experts)
        assert report.screening_correct
        assert all(e.mean_payoff == 0.0 for e in report.experts)
