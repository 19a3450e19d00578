"""Tests of the benchmark's own references and input generation.

    python3 -m pytest -q bench/test_bench.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
import workloads  # noqa: E402
from expert_screening import Contract, Forecast, realized_payoff  # noqa: E402


def simplex_grid(n, k):
    """All points of the simplex with coordinates in {0, 1/k, ..., 1}."""
    def counts(slots, total):
        if slots == 1:
            return [[total]]
        return [[c] + rest for c in range(total + 1) for rest in counts(slots - 1, total - c)]
    return np.array(counts(n, k), dtype=float) / k


@pytest.mark.parametrize("n,m,seed", [(2, 2, 0), (2, 5, 1), (3, 3, 2), (3, 6, 3), (4, 4, 4),
                                      (4, 6, 5)])
def test_meb_matches_grid_brute_force(n, m, seed):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=m)
    c, r2 = reference.meb(P)
    assert np.sum((P - c) ** 2, axis=1).max() <= r2 * (1 + 1e-12) + 1e-15
    k = {2: 4000, 3: 150, 4: 40}[n]
    G = simplex_grid(n, k)
    brute = (np.sum((G[:, None, :] - P[None, :, :]) ** 2, axis=2)).max(axis=1).min()
    # the grid's best center is within spacing delta of the optimum
    delta = math.sqrt(n) / k
    assert r2 <= brute + 1e-12
    assert brute <= (math.sqrt(r2) + delta) ** 2 + 1e-12


def test_meb_two_states_is_midpoint_of_extremes():
    P = np.array([[0.1, 0.9], [0.7, 0.3], [0.4, 0.6], [0.65, 0.35]])
    c, r2 = reference.meb(P)
    np.testing.assert_allclose(c, [0.4, 0.6], atol=1e-12)
    assert r2 == pytest.approx(2 * 0.3**2, abs=1e-12)


def test_meb_of_many_points_agrees_with_full_enumeration():
    rng = np.random.default_rng(7)
    P = rng.dirichlet(np.ones(4), size=10)  # above the enumeration cutoff of 8
    _, r2_active = reference.meb(P)
    _, r2_full = reference.meb_support_enumeration(P)
    assert r2_active == pytest.approx(r2_full, abs=1e-14)


def test_clipped_sample_lies_in_ball_and_simplex():
    rng = np.random.default_rng(3)
    c = np.array([0.02, 0.5, 0.48])
    S = reference.clipped_ball_boundary_sample(c, 0.2, rng, rays=500)
    assert S.min() >= 0.0
    np.testing.assert_allclose(S.sum(axis=1), 1.0, atol=1e-12)
    assert np.sqrt(np.sum((S - c) ** 2, axis=1)).max() <= 0.2 + 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_expected_payoff_matches_enumeration_over_states(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        t, own, rival = rng.dirichlet(np.ones(n), size=3)
        margin = float(rng.uniform(0, 0.2))
        by_formula = reference.expected_payoff(margin, ("fixed", t), n, ("point", own),
                                               ("point", rival))
        by_reference_brier = sum(
            t[s] * (reference.brier(own, s) - reference.brier(rival, s) + margin)
            for s in range(n))
        contract = Contract(margin, "fixed_margin")
        by_package = sum(
            t[s] * realized_payoff(contract, Forecast(own), Forecast(rival), s)
            for s in range(n))
        assert by_formula == pytest.approx(by_reference_brier, abs=1e-12)
        assert by_formula == pytest.approx(by_package, abs=1e-12)
    # announcing the truth: the own term vanishes
    t, rival = rng.dirichlet(np.ones(n), size=2)
    exact = sum(t[s] * (reference.brier(t, s) - reference.brier(rival, s)) for s in range(n))
    assert reference.expected_payoff(0.0, ("fixed", t), n, ("truth",),
                                     ("point", rival)) == pytest.approx(exact, abs=1e-12)


def test_uniform_nature_and_ball_terms_match_monte_carlo():
    n, draws = 5, 400_000
    rng = np.random.default_rng(11)
    a = rng.dirichlet(np.ones(n))
    T = rng.dirichlet(np.ones(n), size=draws)
    d2 = np.sum((T - a) ** 2, axis=1)
    assert reference.uniform_nature_sq_dist(n, a) == pytest.approx(
        d2.mean(), abs=5 * d2.std() / math.sqrt(draws))
    # exact uniform draws from the (n-1)-ball in the sum-zero hyperplane
    c, r = np.full(n, 1.0 / n), 0.1
    u = reference.sum_zero_unit(rng.standard_normal((draws, n)))
    X = c + r * u * rng.random((draws, 1)) ** (1.0 / (n - 1))
    t = rng.dirichlet(np.ones(n))
    d2 = np.sum((X - t) ** 2, axis=1)
    expected = reference.expected_sq_dist(("fixed", t), n, ("ball", c, r))
    assert expected == pytest.approx(d2.mean(), abs=5 * d2.std() / math.sqrt(draws))
    ratio = np.sum((X - c) ** 2, axis=1) / r**2
    mean, var = reference.uniform_ball_sq_moments(n)
    assert mean == pytest.approx(ratio.mean(), abs=5 * math.sqrt(var / draws))
    assert var == pytest.approx(ratio.var(), rel=0.02)
    # the uniformity check's statistic is uniform on [0, 1]
    u = ratio ** ((n - 1) / 2)
    assert u.mean() == pytest.approx(0.5, abs=5 * math.sqrt(1 / 12 / draws))
    assert u.var() == pytest.approx(1 / 12, rel=0.02)


def test_workload_generation_is_deterministic():
    root = str(BENCH.parent)
    for i in (0, 5, 23, 64):
        assert workloads.audit_case(3, i) == workloads.audit_case(3, i)
    assert workloads.audit_case(3, 5) != workloads.audit_case(4, 5)
    assert workloads.audit_case(3, 5, workloads.FULL_CELLS) == workloads.audit_case(
        3, 5, workloads.FULL_CELLS)
    for cls in (workloads.TournamentStatic, workloads.TournamentSampled):
        first, again, other = (cls.scenarios(s, root) for s in (3, 3, 4))
        assert repr(first) == repr(again)
        assert repr(first) != repr(other)


def test_audit_mixes_cover_their_cells():
    full = workloads.FULL_CELLS
    for cells in (workloads.AUDIT_CELLS, full):
        first = [workloads.audit_case(0, i, cells) for i in range(len(cells))]
        assert [(c["n"], c["kind"]) for c in first] == cells
    assert {(n, k) for n in range(2, 9) for k in ("finite", "uncut", "clipped")} == set(full)
    # finite sets: two forecasts in the timed mix, 2..6 over five rounds in the full one
    sizes = {len(workloads.audit_case(0, i, cells)["theta"]["forecasts"])
             for cells in (workloads.AUDIT_CELLS,) for i in range(5 * (len(cells) + 1))
             if workloads.audit_case(0, i, cells)["kind"] == "finite"}
    assert sizes == {2}
    sizes = {len(workloads.audit_case(0, r * (len(full) + 1), full)["theta"]["forecasts"])
             for r in range(5)}
    assert sizes == {2, 3, 4, 5, 6}
    # the largest ball is the same in every round; the n=2 uncut cell varies
    size = len(workloads.AUDIT_CELLS) + 1
    largest = [workloads.audit_case(s, r * size - 1)["theta"] for s in (0, 1) for r in (1, 2)]
    assert all(t == largest[0] for t in largest)
    n2_uncut = workloads.AUDIT_CELLS.index((2, "uncut"))
    radii = {workloads.audit_case(0, r * size + n2_uncut)["theta"]["radius"] for r in range(5)}
    assert len(radii) == 5 and max(radii) < largest[0]["radius"]
    for i in range(2 * len(full)):
        case = workloads.audit_case(9, i, full)
        if case["kind"] == "uncut":
            assert case["theta"]["radius"] <= workloads._lim(np.array(case["theta"]["center"]))
        if case["kind"] == "clipped":
            assert case["theta"]["radius"] > workloads._lim(np.array(case["theta"]["center"]))


def test_reported_metric_names_match_benchmark_json():
    import json

    import run
    import tracing

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    timed = [w["name"] for w in spec["workloads"]]
    assert set(timed) < set(workloads.WORKLOADS) and "known_defects" not in timed
    layer = tracing.per_layer_metrics(tracing.Tracer(), 1, [])
    layer["trace.overhead_share"] = (0.0, "share")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, u) for k, (_, u) in layer.items()]
    r = run.Run()
    r.items, r.attempted = 2, 2
    e2e = run.end_to_end_metrics(r, 0.3, [0.1, 0.2])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()]
