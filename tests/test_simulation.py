import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expert_screening import (
    FIXED_MARGIN,
    PAPER_EPSILON,
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
    realized_payoff,
    run_tournament,
    sample_from,
    sample_state,
)
from expert_screening import analyzer, simulation
from expert_screening.contracts import MAX_MARGIN
from expert_screening.errors import InvalidScenario, ScreeningError
from expert_screening.plausible import chebyshev
from expert_screening.simulation import (
    BLOCK,
    _block_moments,
    _merge,
    _row_sums,
    _uniform_states,
    block_payoffs,
    block_rng,
    decide_acceptance,
    inverse_cdf,
)

SPACE2 = StateSpace(("up", "down"))
FX = Forecast([1, 0])
FY = Forecast([0, 1])
VERTICES = FiniteSet((FX, FY))
SPACE3 = StateSpace(("a", "b", "c"))
F3 = Forecast([0.5, 0.3, 0.2])
BALL3 = Ball(F3, 0.1)


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
        with pytest.raises(InvalidScenario, match="theta required"):
            ExpertSpec(id="x", kind="uninformed", theta=FX, announce="chebyshev")


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

    def test_rejects_shared_expert_id(self):
        # the expected roles are keyed by id, so a shared id would score a
        # correctly screened informed/uninformed pair as wrong
        with pytest.raises(InvalidScenario, match="ids must be distinct"):
            Scenario(
                states=SPACE2,
                nature=Forecast([0.7, 0.3]),
                experts=(
                    ExpertSpec(id="x", kind="informed"),
                    ExpertSpec(id="x", kind="uninformed", theta=VERTICES, announce="chebyshev"),
                ),
                contract_config=Prop1Config(policy=SAFE_EPSILON, witnesses=(FX, FY)),
                trials=10,
                seed=0,
            )

    def test_rejects_bad_trials(self):
        for trials in (0, True):
            with pytest.raises(InvalidScenario, match="trials"):
                _prop1_scenario(trials=trials)

    def test_seed_is_a_philox_key(self):
        for seed in (-1, 2**128, True):
            with pytest.raises(InvalidScenario, match="seed"):
                _prop1_scenario(seed=seed)
        run_tournament(_prop1_scenario(trials=10, seed=2**128 - 1))

    # a scenario built in process is checked against its state count, as a
    # scenario file is when it is parsed
    def _n3_scenario(self, nature=F3, theta=BALL3, announce="chebyshev", witnesses=None):
        return Scenario(
            states=SPACE3,
            nature=nature,
            experts=(
                ExpertSpec(id="sharp", kind="partial", theta=BALL3),
                ExpertSpec(id="wide", kind="uninformed", theta=theta, announce=announce),
            ),
            contract_config=(Prop2Config(eps1=0.1, eps2=0.2, gamma=0.02) if witnesses is None
                             else Prop1Config(policy=SAFE_EPSILON, witnesses=witnesses)),
            trials=10,
            seed=0,
        )

    def test_accepts_matching_state_counts(self):
        run_tournament(self._n3_scenario(nature="uniform", announce=F3,
                                         witnesses=(F3, Forecast([0.2, 0.3, 0.5]))))

    def test_rejects_theta_on_other_states(self):
        with pytest.raises(InvalidScenario, match="theta on 2 states"):
            self._n3_scenario(theta=Ball(Forecast([0.5, 0.5]), 0.1))
        with pytest.raises(InvalidScenario, match="theta on 2 states"):
            self._n3_scenario(theta=VERTICES)

    def test_rejects_array_nature(self):
        with pytest.raises(InvalidScenario, match="nature"):
            self._n3_scenario(nature=np.array([0.5, 0.3, 0.2]))

    def test_rejects_nature_on_other_states(self):
        with pytest.raises(InvalidScenario, match="nature: a forecast on 2 states"):
            self._n3_scenario(nature=FX)

    def test_rejects_fixed_announcement_on_other_states(self):
        with pytest.raises(InvalidScenario, match="fixed announcement on 2 states"):
            self._n3_scenario(announce=FX)

    def test_rejects_witnesses_on_other_states(self):
        for witnesses in ((FX, FY), (F3,), (F3, F3, F3)):
            with pytest.raises(InvalidScenario, match="witnesses"):
                self._n3_scenario(witnesses=witnesses)


# scenario objects built in process check themselves as a parsed file is
# checked, and raise InvalidScenario naming the field
class TestInProcessChecks:
    @pytest.mark.parametrize("kwargs,field", [
        pytest.param(dict(policy="bogus"), "contract.policy", id="unknown_policy"),
        pytest.param(dict(policy=FIXED_MARGIN), "contract.margin", id="fixed_without_margin"),
        pytest.param(dict(policy=FIXED_MARGIN, margin=float("nan")), "contract.margin",
                     id="nan_margin"),
        # the contract would pay d^2/8 = 0.25 and the scenario echo a fixed 0.3
        pytest.param(dict(policy=SAFE_EPSILON, margin=0.3), "contract.margin",
                     id="margin_with_safe_epsilon"),
        pytest.param(dict(policy=PAPER_EPSILON, margin=0.3), "contract.margin",
                     id="margin_with_paper_epsilon"),
    ])
    def test_prop1_config(self, kwargs, field):
        with pytest.raises(InvalidScenario, match=f"^{field}: "):
            Prop1Config(witnesses=(FX, FY), **kwargs)

    @pytest.mark.parametrize("margin", [1.7976931348623157e308, 1e300, -1e300,
                                        np.nextafter(MAX_MARGIN, math.inf)])
    def test_prop1_margin_whose_square_overflows(self, margin):
        with pytest.raises(InvalidScenario, match=r"^contract.margin: margin must be finite with"):
            Prop1Config(FIXED_MARGIN, (FX, FY), margin)

    def test_prop2_gamma_whose_square_overflows(self):
        with pytest.raises(InvalidScenario, match=r"^contract.gamma: margin must be finite with"):
            Prop2Config(1.0, 1e150, 1e299)

    @pytest.mark.filterwarnings("error")
    def test_largest_margin_has_finite_moments(self):
        for margin in (MAX_MARGIN, -MAX_MARGIN):
            config = Prop1Config(FIXED_MARGIN, (FX, FY), margin)
            sc = dataclasses.replace(_prop1_scenario(trials=10), contract_config=config)
            for e in run_tournament(sc).experts:
                assert e.decision == ("accept" if margin > 0 else "reject")
                assert math.isfinite(e.mean_payoff) and math.isfinite(e.payoff_stderr)

    @pytest.mark.parametrize("witnesses,err", [
        ((FX, FX), "witness forecasts coincide"),
        ((FX, Forecast([0, 0, 1])), "forecast lengths differ: 2 vs 3"),
    ])
    def test_prop1_witness_errors_name_the_field(self, witnesses, err):
        with pytest.raises(InvalidScenario, match=rf"^contract\.witnesses: {err}$"):
            Prop1Config(SAFE_EPSILON, witnesses)

    @pytest.mark.parametrize("args,err", [
        ((0.1, 0.22, 0.5), r"contract\.gamma: gamma 0\.5 outside open interval"),
        ((0.3, 0.22, 0.02), r"contract\.eps1: need 0 < eps1 < eps2, got 0\.3, 0\.22"),
        ((0.1, 1e200, 0.02), r"contract\.eps2: eps2 = 1e\+200 has no finite square$"),
    ])
    def test_prop2_contract_errors_name_the_field(self, args, err):
        with pytest.raises(InvalidScenario, match=f"^{err}"):
            Prop2Config(*args)

    def test_prop2_config_needs_numbers(self):
        with pytest.raises(InvalidScenario, match="^contract.eps1: expected a number"):
            Prop2Config("a", 0.1, 0.02)

    @pytest.mark.parametrize("eid", [5, ""])
    def test_expert_id_is_a_non_empty_string(self, eid):
        with pytest.raises(InvalidScenario, match="^expert id: "):
            ExpertSpec(id=eid, kind="informed")

    def test_expert_kind_is_a_string(self):
        with pytest.raises(InvalidScenario, match="kind must be"):
            ExpertSpec(id="x", kind=np.array([0.5, 0.5]))

    def test_states_is_a_state_space(self):
        with pytest.raises(InvalidScenario, match="^states: "):
            dataclasses.replace(_prop1_scenario(), states=("up", "down"))

    def test_experts_is_a_tuple(self):
        sc = _prop1_scenario()
        with pytest.raises(InvalidScenario, match="^experts: "):
            dataclasses.replace(sc, experts=list(sc.experts))


HOSTILE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10), st.floats(), st.text(max_size=2),
    st.sampled_from(["uniform", "informed", "partial", "truth", "chebyshev", "sample",
                     PAPER_EPSILON, FIXED_MARGIN, "7", FX, F3, VERTICES, BALL3,
                     Ball(Forecast([0.8, 0.1, 0.1]), 0.3), SPACE2, SPACE3,
                     np.array([0.5, 0.5]), [FX, FY], (FX,), {"fixed": [0.5, 0.5]}]),
)
FIELDS = ("id0", "kind0", "theta0", "announce0", "id1", "kind1", "theta1", "announce1",
          "policy", "witnesses", "margin", "eps1", "eps2", "gamma",
          "states", "nature", "experts", "contract_config", "trials", "seed")


class TestHostileScenario:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_report_or_screening_error(self, data):
        """A valid scenario on 2 or 3 states with up to three of its fields
        replaced by hostile values: building it and running its at most 10
        trials returns a report or raises a ScreeningError."""
        hostile = data.draw(st.sets(st.sampled_from(FIELDS), max_size=3), label="hostile")

        def pick(name, *valid):
            if name in hostile:
                return data.draw(HOSTILE, label=name)
            return valid[0] if len(valid) == 1 else data.draw(st.sampled_from(valid), label=name)

        n3 = data.draw(st.booleans(), label="n3")
        f, g = (F3, Forecast([0.2, 0.3, 0.5])) if n3 else (FX, FY)
        ball = BALL3 if n3 else Ball(Forecast([0.6, 0.4]), 0.1)
        try:
            experts = (
                ExpertSpec(id=pick("id0", "a"), kind=pick("kind0", "informed"),
                           theta=pick("theta0", None),
                           announce=pick("announce0", None, "truth")),
                ExpertSpec(id=pick("id1", "b"), kind=pick("kind1", "uninformed", "partial"),
                           theta=pick("theta1", ball),
                           announce=pick("announce1", None, "chebyshev", "sample", g)),
            )
            if data.draw(st.booleans(), label="prop1"):
                config = Prop1Config(policy=pick("policy", PAPER_EPSILON, SAFE_EPSILON),
                                     witnesses=pick("witnesses", (f, g)),
                                     margin=pick("margin", None))
            else:
                config = Prop2Config(pick("eps1", 0.05), pick("eps2", 0.2), pick("gamma", 0.02))
            sc = Scenario(states=pick("states", SPACE3 if n3 else SPACE2),
                          nature=pick("nature", "uniform", f),
                          experts=pick("experts", experts),
                          contract_config=pick("contract_config", config),
                          trials=pick("trials", 1, 10), seed=pick("seed", 0, 2**128 - 1))
        except ScreeningError:
            return
        run_tournament(sc)


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


class TestInverseCdf:
    def test_edge_uniforms(self):
        # u equal to a CDF entry draws the next state (side="right"), and a
        # zero-probability state is never drawn
        cdf = np.cumsum([0.25, 0.25, 0.0, 0.5])
        u = np.array([0.0, 0.25, 0.3, 0.5, 0.75])
        assert inverse_cdf(cdf, u).tolist() == [0, 1, 1, 3, 3]
        # a CDF that rounds below 1 leaves room above its last entry, which
        # is clamped to the last state
        probs = np.full(10, 0.1)
        cdf = np.cumsum(probs)
        assert cdf[-1] < 1.0
        u = np.array([cdf[0], cdf[8], np.nextafter(cdf[-1], 1.0)])
        assert inverse_cdf(cdf, u).tolist() == [1, 9, 9]
        # a uniform nature's column counts give the same states row by row
        assert _uniform_states(np.tile(probs, (3, 1)), u).tolist() == [1, 9, 9]


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


SPACE3 = StateSpace(("a", "b", "c"))
E1, E2, E3 = Forecast([1, 0, 0]), Forecast([0, 1, 0]), Forecast([0, 0, 1])
TRIANGLE = FiniteSet((E1, E2, E3))
# three blocks, the last one partial
REFERENCE_TRIALS = 2 * BLOCK + 1000


def _fixed_margin(witnesses, margin=1.0):
    return Prop1Config(policy=FIXED_MARGIN, witnesses=witnesses, margin=margin)


REFERENCE_SCENARIOS = {
    # fixed nature: truth against a Chebyshev center, both accept
    "fixed-truth-chebyshev": Scenario(
        states=SPACE2,
        nature=Forecast([0.7, 0.3]),
        experts=(
            ExpertSpec(id="alice", kind="informed"),
            ExpertSpec(id="bob", kind="uninformed", theta=VERTICES, announce="chebyshev"),
        ),
        contract_config=_fixed_margin((FX, FY)),
        trials=REFERENCE_TRIALS,
        seed=12,
    ),
    # uniform nature: a fixed announcement against per-trial samples, both accept
    "uniform-fixed-sample": Scenario(
        states=SPACE3,
        nature="uniform",
        experts=(
            ExpertSpec(id="u1", kind="uninformed", theta=TRIANGLE,
                       announce=Forecast([0.2, 0.3, 0.5])),
            ExpertSpec(id="u2", kind="uninformed", theta=TRIANGLE, announce="sample"),
        ),
        contract_config=_fixed_margin((E1, E2)),
        trials=REFERENCE_TRIALS,
        seed=13,
    ),
    # uniform nature: truth against samples, the sampling expert rejects
    "uniform-truth-sample-reject": Scenario(
        states=SPACE2,
        nature="uniform",
        experts=(
            ExpertSpec(id="alice", kind="informed"),
            ExpertSpec(id="bob", kind="uninformed", theta=VERTICES, announce="sample"),
        ),
        contract_config=Prop1Config(policy=SAFE_EPSILON, witnesses=(FX, FY)),
        trials=REFERENCE_TRIALS,
        seed=14,
    ),
    # uniform nature: truth against draws from an uncut ball, both accept
    "uniform-truth-uncut-ball-sample": Scenario(
        states=SPACE3,
        nature="uniform",
        experts=(
            ExpertSpec(id="alice", kind="informed"),
            ExpertSpec(id="bob", kind="uninformed",
                       theta=Ball(Forecast([0.4, 0.35, 0.25]), 0.1), announce="sample"),
        ),
        contract_config=_fixed_margin((E1, E2)),
        trials=REFERENCE_TRIALS,
        seed=15,
    ),
    # fixed nature: two sampling experts on clipped balls, both accept; the
    # first proposes from the simplex, the second from its ball, and both
    # reject proposals that fall outside B ∩ Δ
    "fixed-clipped-ball-samples": Scenario(
        states=SPACE3,
        nature=Forecast([0.5, 0.3, 0.2]),
        experts=(
            ExpertSpec(id="u1", kind="uninformed", theta=Ball(E1, 1.0), announce="sample"),
            ExpertSpec(id="u2", kind="uninformed",
                       theta=Ball(Forecast([0.7, 0.2, 0.1]), 0.3), announce="sample"),
        ),
        contract_config=_fixed_margin((E1, E2)),
        trials=REFERENCE_TRIALS,
        seed=16,
    ),
}


def _scalar_payoffs(sc):
    """Every trial recomputed one at a time with the scalar sample_state and
    realized_payoff, from the same block streams and draw order: truths,
    state uniforms, then one sample_from block per sampling expert; or, with
    a fixed nature and no sampling expert, one multinomial draw of state
    counts, expanded into per-trial states in state order."""
    contracts = sc.contract_config.contracts
    accept = [decide_acceptance(e, c)[0] == "accept" for e, c in zip(sc.experts, contracts)]
    centers = [chebyshev(e.theta).center if e.announce == "chebyshev" else None
               for e in sc.experts]
    pay = [[], []]
    for b, start in enumerate(range(0, sc.trials, BLOCK)):
        size = min(BLOCK, sc.trials - start)
        rng = block_rng(sc.seed, b)
        if sc.nature == "uniform":
            exps = rng.standard_exponential((size, sc.states.n))
            truths = [Forecast.from_row(e / e.sum()) for e in exps]
        else:
            truths = [sc.nature] * size
        if sc.nature != "uniform" and all(e.announce != "sample" for e in sc.experts):
            counts = rng.multinomial(size, sc.nature.probs)
            states = np.repeat(np.arange(sc.states.n), counts).tolist()
        else:
            states = [sample_state(truth, rng) for truth in truths]
        samples = [sample_from(e.theta, rng, size) if e.announce == "sample" else None
                   for e in sc.experts]
        for t, (truth, s) in enumerate(zip(truths, states)):
            announced = []
            for e, center, drawn in zip(sc.experts, centers, samples):
                if e.announce == "truth":
                    announced.append(truth)
                elif drawn is not None:
                    announced.append(Forecast.from_row(drawn[t]))
                else:
                    announced.append(e.announce if center is None else center)
            for i in range(2):
                pay[i].append(
                    realized_payoff(contracts[i], announced[i], announced[1 - i], s)
                    if accept[i] else 0.0
                )
    return np.array(pay)


def _expand(pay, counts):
    """Per-trial payoffs of one block: a per-state table's column s repeated
    counts[s] times, in state order."""
    return pay if counts is None else np.repeat(pay, counts, axis=1)


def _block_payoffs(sc):
    contracts = sc.contract_config.contracts
    decisions = [decide_acceptance(e, c) for e, c in zip(sc.experts, contracts)]
    return np.hstack([_expand(*block) for block in block_payoffs(sc, contracts, decisions)])


class TestBlockedTournament:
    @pytest.mark.parametrize("name", sorted(REFERENCE_SCENARIOS))
    def test_matches_scalar_reference(self, name):
        sc = REFERENCE_SCENARIOS[name]
        assert sc.trials > 2 * BLOCK and sc.trials % BLOCK
        ref = _scalar_payoffs(sc)
        assert np.allclose(_block_payoffs(sc), ref, rtol=0.0, atol=1e-12)
        report = run_tournament(sc)
        for e, x in zip(report.experts, ref):
            if e.decision == "reject":
                assert not x.any() and e.mean_payoff == e.payoff_stderr == 0.0
            assert e.mean_payoff == pytest.approx(np.mean(x), rel=0.0, abs=1e-12)
            se = np.std(x, ddof=1) / np.sqrt(len(x))
            assert e.payoff_stderr == pytest.approx(se, rel=0.0, abs=1e-12)

    def test_full_blocks_do_not_depend_on_trial_count(self):
        k = 2
        sc = REFERENCE_SCENARIOS["uniform-fixed-sample"]
        exact = _block_payoffs(dataclasses.replace(sc, trials=k * BLOCK))
        longer = _block_payoffs(dataclasses.replace(sc, trials=k * BLOCK + 1))
        assert exact.shape == (2, k * BLOCK)
        assert np.array_equal(longer[:, : k * BLOCK], exact)

    def test_block_streams_do_not_overlap(self):
        # a block index in the counter's low word would start block 1 four
        # words into block 0's stream
        first = set(block_rng(7, 0).random(4096).tolist())
        for b in (1, 2, 2**40):
            assert first.isdisjoint(block_rng(7, b).random(64).tolist())
        assert np.array_equal(block_rng(7, 1).random(4), block_rng(7, 1).random(4))

    @pytest.mark.parametrize("name", ["prop1", "prop2"])
    def test_one_chebyshev_solve_per_uninformed_expert(self, name, monkeypatch):
        solved = []
        solve = analyzer.chebyshev

        def counting(theta, *args, **kwargs):
            solved.append(theta)
            return solve(theta, *args, **kwargs)

        monkeypatch.setattr(analyzer, "chebyshev", counting)
        monkeypatch.setattr(simulation, "chebyshev", counting)
        if name == "prop1":
            sc = _prop1_scenario(trials=100)
        else:
            sc = Scenario(
                states=SPACE3,
                nature=Forecast([0.5, 0.3, 0.2]),
                experts=(
                    ExpertSpec(id="sharp", kind="partial",
                               theta=Ball(Forecast([0.5, 0.3, 0.2]), 0.1),
                               announce="chebyshev"),
                    ExpertSpec(id="blurry", kind="partial",
                               theta=Ball(Forecast([0.4, 0.35, 0.25]), 0.22),
                               announce="chebyshev"),
                ),
                contract_config=Prop2Config(eps1=0.1, eps2=0.22, gamma=0.02),
                trials=100,
                seed=11,
            )
        run_tournament(sc)
        uninformed = [e.theta for e in sc.experts if e.kind != "informed"]
        assert len(solved) == len(uninformed)
        assert all(sum(t is theta for t in solved) == 1 for theta in uninformed)


class TestStateCounts:
    """A fixed nature with no sampling expert: each block is one multinomial
    draw of state counts against a (2, n) per-state payoff table."""

    SC = Scenario(
        states=SPACE3,
        nature=Forecast([0.6, 0.0, 0.4]),
        experts=(
            ExpertSpec(id="alice", kind="informed"),
            ExpertSpec(id="bob", kind="uninformed", theta=TRIANGLE, announce="chebyshev"),
        ),
        contract_config=Prop1Config(policy=SAFE_EPSILON, witnesses=(E1, E2)),
        trials=2 * BLOCK + 5,
        seed=21,
    )

    def _blocks(self, sc):
        contracts = sc.contract_config.contracts
        decisions = [decide_acceptance(e, c) for e, c in zip(sc.experts, contracts)]
        return list(block_payoffs(sc, contracts, decisions))

    def test_counts_per_block(self):
        blocks = self._blocks(self.SC)
        assert [int(counts.sum()) for _, counts in blocks] == [BLOCK, BLOCK, 5]
        # a zero-probability state is never counted
        assert all(counts[1] == 0 for _, counts in blocks)
        # the counts are the block stream's first draw
        for b, (_, counts) in enumerate(blocks[:2]):
            expect = block_rng(self.SC.seed, b).multinomial(BLOCK, self.SC.nature.probs)
            assert np.array_equal(counts, expect)

    def test_block_is_the_per_state_table(self):
        blocks = self._blocks(self.SC)
        table = blocks[0][0]
        assert table.shape == (2, self.SC.states.n)
        assert all(pay is table for pay, _ in blocks)
        # bob rejects, so his row is 0; alice's row is her payoff in each state
        assert not table[1].any()
        contract = self.SC.contract_config.contracts[0]
        center = chebyshev(TRIANGLE).center
        for s in range(3):
            expect = realized_payoff(contract, self.SC.nature, center, s)
            assert table[0, s] == pytest.approx(expect, rel=0.0, abs=1e-12)

    def test_rejecting_expert_records_exactly_zero(self):
        alice, bob = run_tournament(self.SC).experts
        assert alice.decision == "accept" and bob.decision == "reject"
        assert bob.mean_payoff == 0.0 and bob.payoff_stderr == 0.0
        assert alice.payoff_stderr > 0.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_row_sums_add_columns_in_order(self, n):
        x = np.random.default_rng(n).standard_exponential((257, n))
        assert np.array_equal(_row_sums(x), np.cumsum(x, axis=1)[:, -1])
        assert np.array_equal(_row_sums(x[0]), np.cumsum(x[0])[-1])


def _reference_block_payoffs(sc, contracts, decisions):
    """The per-trial formula block_payoffs replaced, kept as its reference:
    every state by a count over the (B, n) cumsum, or from a fixed nature
    with no sampling expert by the block's multinomial counts expanded in
    state order, every row sum as the last column of a cumsum, and every
    payoff recomputed from the announced rows."""
    n = sc.states.n
    static = []
    for expert, (_, _, report) in zip(sc.experts, decisions):
        if isinstance(expert.announce, Forecast):
            static.append(expert.announce.probs)
        elif expert.announce == "chebyshev":
            static.append(report.optimal_strategy.probs)
        else:
            static.append(None)
    sampled = [i for i, e in enumerate(sc.experts) if e.announce == "sample"]
    for b, start in enumerate(range(0, sc.trials, BLOCK)):
        size = min(BLOCK, sc.trials - start)
        rng = block_rng(sc.seed, b)
        if sc.nature == "uniform":
            truth = rng.standard_exponential((size, n))
            truth /= np.cumsum(truth, axis=-1)[:, -1:]
        else:
            truth = sc.nature.probs
        if sc.nature != "uniform" and not sampled:
            states = np.repeat(np.arange(n), rng.multinomial(size, truth))
        else:
            u = rng.random(size)
            states = np.minimum((np.cumsum(truth, axis=-1) <= u[:, None]).sum(axis=1), n - 1)
        rows = [truth if a is None else a for a in static]
        for i in sampled:
            rows[i] = sample_from(sc.experts[i].theta, rng, size)
        at = [r[np.arange(size), states] if r.ndim == 2 else r[states] for r in rows]
        sq = [np.cumsum(r * r, axis=-1)[..., -1] for r in rows]
        pay = np.zeros((2, size))
        for i in range(2):
            if decisions[i][0] == "accept":
                pay[i] = 2.0 * (at[i] - at[1 - i]) - sq[i] + sq[1 - i] + contracts[i].margin
        yield pay


@st.composite
def _kernel_scenario(draw):
    """Scenarios at n = 2..10 under a fixed (sometimes zero-entry) or uniform
    nature, with truth, chebyshev, fixed or sample announcements from small
    finite sets or uncut balls, margins that make either expert accept or
    reject, and trial counts around multiples of BLOCK."""
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = StateSpace(tuple(f"s{k}" for k in range(n)))

    def forecast(zero=False):
        p = rng.dirichlet(np.ones(n))
        if zero:
            p[rng.integers(n)] = 0.0
        return Forecast(p / p.sum())

    nature = "uniform" if draw(st.booleans()) else forecast(draw(st.booleans()))
    experts = []
    for k in range(2):
        announce = draw(st.sampled_from(["truth", "chebyshev", "fixed", "sample"]))
        if announce == "truth":
            experts.append(ExpertSpec(id=f"e{k}", kind="informed"))
            continue
        if draw(st.booleans()):
            theta = FiniteSet(tuple(forecast() for _ in range(draw(st.integers(1, 3)))))
        else:
            center = Forecast(0.5 / n + 0.5 * rng.dirichlet(np.ones(n)))
            theta = Ball(center, draw(st.sampled_from([0.01, 0.04])))
        experts.append(ExpertSpec(id=f"e{k}", kind="uninformed", theta=theta,
                                  announce=forecast(True) if announce == "fixed" else announce))
    trials = draw(st.sampled_from([1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    margin = draw(st.sampled_from([-0.1, 0.0015, 0.3, 2.0]))
    e1, e2 = (Forecast(np.eye(n)[k]) for k in range(2))
    return Scenario(states=space, nature=nature, experts=tuple(experts),
                    contract_config=_fixed_margin((e1, e2), margin),
                    trials=trials, seed=draw(st.integers(0, 2**64)))


class TestPayoffKernel:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(sc=_kernel_scenario())
    def test_matches_per_trial_formula_bit_for_bit(self, sc):
        contracts = sc.contract_config.contracts
        decisions = [decide_acceptance(e, c) for e, c in zip(sc.experts, contracts)]
        new = list(block_payoffs(sc, contracts, decisions))
        ref = list(_reference_block_payoffs(sc, contracts, decisions))
        assert len(new) == len(ref)
        assert all(np.array_equal(_expand(*x), y) for x, y in zip(new, ref))
        # the merged block moments against the whole reference's
        moments = [(0, 0.0, 0.0)] * 2
        for pay, counts in new:
            moments = [_merge(m, _block_moments(x, counts)) for m, x in zip(moments, pay)]
        for (count, mean, m2), x in zip(moments, np.hstack(ref)):
            assert count == sc.trials
            assert mean == pytest.approx(np.mean(x), rel=0.0, abs=1e-12)
            assert m2 / count == pytest.approx(np.var(x), rel=0.0, abs=1e-12)
