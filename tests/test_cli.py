import csv
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expert_screening import (
    Ball,
    ExpertSpec,
    Forecast,
    Prop1Config,
    SAFE_EPSILON,
    Scenario,
    StateSpace,
    analyzer,
    cli,
    contracts,
    plausible,
    scenario,
    simplex,
    simulation,
    verify,
)
from expert_screening.cli import main
from expert_screening.errors import InvalidScenario
from expert_screening.scenario import parse_scenario
from expert_screening.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos" / "scenarios"
DEMO = str(DEMOS / "prop1_safe.json")


def _demo(name, trials):
    with open(DEMOS / f"{name}.json", encoding="utf-8") as fh:
        return dict(json.load(fh), trials=trials)


TWO_POINT_SAFE = _demo("prop1_safe", 500)
PROP2 = _demo("prop2_balls", 2000)


# field name -> (scenario, function that puts a number into that field)
SET_NUMBER = {
    "nature.forecast": (PROP2, lambda o, x: o["nature"].update(forecast=[x, 0, 0])),
    "experts[0].theta.center":
        (PROP2, lambda o, x: o["experts"][0]["theta"].update(center=[0, x, 0])),
    "experts[1].theta.radius":
        (PROP2, lambda o, x: o["experts"][1]["theta"].update(radius=x)),
    "contract.eps1": (PROP2, lambda o, x: o["contract"].update(eps1=x)),
    "contract.eps2": (PROP2, lambda o, x: o["contract"].update(eps2=x)),
    "contract.gamma": (PROP2, lambda o, x: o["contract"].update(gamma=x)),
    "contract.policy.fixed":
        (TWO_POINT_SAFE, lambda o, x: o["contract"].update(policy={"fixed": x})),
    "contract.witnesses[1]":
        (TWO_POINT_SAFE, lambda o, x: o["contract"].update(witnesses=[[1, 0], [0, x]])),
    "experts[1].theta.forecasts[0]": (
        TWO_POINT_SAFE,
        lambda o, x: o["experts"][1]["theta"].update(forecasts=[[x, 0], [0, 1]]),
    ),
}


def _write(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestScenarioParsing:
    def test_round_trip(self):
        sc = parse_scenario(TWO_POINT_SAFE)
        assert sc.trials == 500
        assert sc.seed == 7
        assert sc.experts[0].kind == "informed"

    def test_unknown_top_key(self):
        bad = dict(TWO_POINT_SAFE, bonus=1)
        with pytest.raises(InvalidScenario, match="bonus"):
            parse_scenario(bad)

    def test_unknown_expert_key(self):
        bad = json.loads(json.dumps(TWO_POINT_SAFE))
        bad["experts"][0]["confidence"] = 0.9
        with pytest.raises(InvalidScenario, match="confidence"):
            parse_scenario(bad)

    def test_negative_trials_names_field(self):
        bad = dict(TWO_POINT_SAFE, trials=-1)
        with pytest.raises(InvalidScenario, match="trials"):
            parse_scenario(bad)

    def test_nonfinite_number(self):
        bad = json.loads(json.dumps(PROP2))
        bad["contract"]["gamma"] = float("inf")
        with pytest.raises(InvalidScenario, match="gamma"):
            parse_scenario(bad)

    def test_informed_with_theta_rejected(self):
        bad = json.loads(json.dumps(TWO_POINT_SAFE))
        bad["experts"][0]["theta"] = {"kind": "finite", "forecasts": [[1, 0]]}
        with pytest.raises(InvalidScenario, match="theta"):
            parse_scenario(bad)

    def test_announce_defaults(self):
        obj = json.loads(json.dumps(TWO_POINT_SAFE))
        del obj["experts"][0]["announce"]
        del obj["experts"][1]["announce"]
        sc = parse_scenario(obj)
        assert sc.experts[0].announce == "truth"
        assert sc.experts[1].announce == "chebyshev"

    def test_expert_spec_defaults_announce_by_kind(self):
        theta = Ball(Forecast([0.5, 0.5]), 0.1)
        assert ExpertSpec("i", "informed").announce == "truth"
        assert ExpertSpec("u", "uninformed", theta=theta).announce == "chebyshev"
        assert ExpertSpec("p", "partial", theta=theta).announce == "chebyshev"

    @pytest.mark.parametrize("announce", ["bogus", "Truth", 3, [0.5, 0.5], {"fixed": [0.5, 0.5]}])
    def test_expert_spec_rejects_unknown_announce(self, announce):
        theta = Ball(Forecast([0.5, 0.5]), 0.1)
        with pytest.raises(InvalidScenario, match="^expert u: announce must be"):
            ExpertSpec("u", "uninformed", theta=theta, announce=announce)

    @pytest.mark.parametrize("announce", ["bogus", 3, [0.7, 0.3]])
    def test_unknown_announce_in_a_file_exits_1(self, announce, tmp_path, capsys):
        obj = json.loads(json.dumps(TWO_POINT_SAFE))
        obj["experts"][0]["announce"] = announce
        assert main(["analyze", _write(tmp_path, obj)]) == 1
        assert capsys.readouterr().err == (
            "error: expert alice: announce must be 'truth', 'chebyshev', 'sample', "
            "or {'fixed': [...]}\n")

    @pytest.mark.parametrize("field,base,edit", [
        ("states", TWO_POINT_SAFE, lambda o: o.update(states=["up"])),
        ("states", TWO_POINT_SAFE, lambda o: o.update(states=[])),
        ("contract.witnesses", TWO_POINT_SAFE,
         lambda o: o["contract"].update(witnesses=[[1, 0]])),
        ("contract.witnesses", TWO_POINT_SAFE,
         lambda o: o["contract"].update(witnesses=[[1, 0], [0, 1], [1, 0]])),
        ("contract.witnesses", TWO_POINT_SAFE, lambda o: o["contract"].update(witnesses=None)),
        ("contract.witnesses", TWO_POINT_SAFE, lambda o: o["contract"].pop("witnesses")),
        ("contract.eps1", PROP2, lambda o: o["contract"].pop("eps1")),
        ("contract.eps2", PROP2, lambda o: o["contract"].pop("eps2")),
        ("contract.gamma", PROP2, lambda o: o["contract"].pop("gamma")),
    ])
    def test_checks_left_to_the_types_exit_1(self, field, base, edit, tmp_path, capsys):
        """A state list shorter than 2, a witness count other than 2 and a
        missing prop2 number are caught by StateSpace, Prop1Config and
        Prop2Config: one error line naming the field."""
        obj = json.loads(json.dumps(base))
        edit(obj)
        assert main(["analyze", _write(tmp_path, obj)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("field,base,edit", [
        ("contract.margin", TWO_POINT_SAFE,
         lambda o: o["contract"].update(policy={"fixed": 1.7976931348623157e308})),
        ("contract.margin", TWO_POINT_SAFE,
         lambda o: o["contract"].update(policy={"fixed": -1e300})),
        ("contract.gamma", PROP2, lambda o: o["contract"].update(eps1=1, eps2=1e150, gamma=1e299)),
    ])
    def test_margin_whose_square_overflows_exits_1(self, field, base, edit, tmp_path, capsys):
        obj = json.loads(json.dumps(base))
        edit(obj)
        assert main(["simulate", _write(tmp_path, obj)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: margin must be finite with |margin| <= ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("base,edit,err", [
        (TWO_POINT_SAFE, lambda o: o["contract"].update(witnesses=[[1, 0], [1, 0]]),
         "error: contract.witnesses: witness forecasts coincide\n"),
        (PROP2, lambda o: o["contract"].update(gamma=0.5),
         "error: contract.gamma: gamma 0.5 outside open interval "
         "(0.010000000000000002, 0.0484)\n"),
        (PROP2, lambda o: o["contract"].update(eps1=0.3),
         "error: contract.eps1: need 0 < eps1 < eps2, got 0.3, 0.22\n"),
        (PROP2, lambda o: o["contract"].update(eps2=1e200),
         "error: contract.eps2: eps2 = 1e+200 has no finite square\n"),
    ])
    def test_contract_errors_name_their_field(self, base, edit, err, tmp_path, capsys):
        """The contract builders' own errors (DegenerateWitnesses,
        InvalidGamma, InvalidRadii) reach the CLI with the field prefix."""
        obj = json.loads(json.dumps(base))
        edit(obj)
        for command in ("analyze", "simulate"):
            assert main([command, _write(tmp_path, obj)]) == 1
            assert capsys.readouterr() == ("", err)

    def test_bom_prefixed_file_exits_1(self, tmp_path, capsys):
        # json.loads raises its own error for a BOM
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(TWO_POINT_SAFE).encode())
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: file: invalid JSON (Unexpected UTF-8 BOM "
                                       "(decode using utf-8-sig): line 1 column 1 (char 0))\n")

    def test_deeply_nested_file_exits_1(self, tmp_path, capsys):
        # the decoder's RecursionError is invalid JSON, not a traceback
        path = tmp_path / "scenario.json"
        path.write_text("[" * 100_000)
        err = ("file: invalid JSON (maximum recursion depth exceeded while decoding "
               "a JSON array from a unicode string)")
        with pytest.raises(InvalidScenario, match=rf"^{re.escape(err)}$"):
            scenario.load_scenario(str(path))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("edit,err", [
        (lambda o: o.update(nature="fixed"), "nature: expected an object"),
        (lambda o: o["nature"].update(forecast="0.5"),
         "nature.forecast: expected an array of numbers"),
        (lambda o: o["experts"][1]["theta"].update(forecasts=[]),
         "experts[1].theta.forecasts: expected a non-empty array"),
        (lambda o: o["experts"][1]["theta"].update(kind="simplex"),
         "experts[1].theta.kind: must be 'finite' or 'ball'"),
        (lambda o: o["contract"].update(policy="strict"),
         "contract.policy: must be 'paper', 'safe', or {'fixed': m}"),
        (lambda o: o["contract"].update(kind="prop3"),
         "contract.kind: must be 'prop1' or 'prop2'"),
        (lambda o: o.pop("seed"), "seed: missing required key"),
        (lambda o: o.update(states=["up", 2]), "states: expected an array of >= 2 state names"),
        (lambda o: o["nature"].update(kind="mixed"), "nature.kind: must be 'fixed' or 'uniform'"),
        (lambda o: o.update(experts={"id": "alice"}), "experts: expected an array of 2 experts"),
    ])
    def test_parser_errors_exit_1(self, edit, err, tmp_path, capsys):
        """One error line per parser check that no other file case reaches."""
        obj = json.loads(json.dumps(TWO_POINT_SAFE))
        edit(obj)
        assert main(["analyze", _write(tmp_path, obj)]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_duplicate_key_exits_1(self, tmp_path, capsys):
        # json.load would keep the last value
        text = json.dumps(TWO_POINT_SAFE).replace('"trials": 500', '"trials": 500, "trials": 3')
        assert text.count('"trials"') == 2
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: file: duplicate key 'trials'\n"


class TestAnalyze:
    def test_safe_epsilon_reject(self, tmp_path, capsys):
        code = main(["analyze", _write(tmp_path, TWO_POINT_SAFE)])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        bob = next(e for e in report["experts"] if e["id"] == "bob")
        assert bob["decision"] == "reject"
        assert bob["value"]["value"] == pytest.approx(-0.25, abs=1e-9)
        assert bob["value"]["method"] == "exact"
        assert report["warnings"] == []

    def test_paper_epsilon_accept_with_warning(self, tmp_path, capsys):
        obj = json.loads(json.dumps(TWO_POINT_SAFE))
        obj["contract"]["policy"] = "paper"
        code = main(["analyze", _write(tmp_path, obj)])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        bob = next(e for e in report["experts"] if e["id"] == "bob")
        assert bob["decision"] == "accept"
        assert bob["value"]["value"] == pytest.approx(0.5, abs=1e-9)
        assert len(report["warnings"]) == 1
        assert "ACCEPTS" in report["warnings"][0]
        # warnings are mirrored to stderr
        assert "ACCEPTS" in captured.err

    def test_malformed_trials_exits_1(self, tmp_path, capsys):
        bad = dict(TWO_POINT_SAFE, trials=-1)
        code = main(["analyze", _write(tmp_path, bad)])
        assert code == 1
        assert "trials" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["analyze", "/nonexistent/path.json"]) == 1

    @pytest.mark.parametrize(
        "raw",
        [
            # past the interpreter's 4300-digit limit on parsing an int
            json.dumps(TWO_POINT_SAFE).replace('"seed": 7', '"seed": ' + "1" * 5000)
            .encode(),
            json.dumps(TWO_POINT_SAFE).replace('"up"', '"été"').encode("latin-1"),
        ],
        ids=["5000_digit_int", "latin1"],
    )
    def test_undecodable_file_exits_1(self, raw, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: file: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", sorted(SET_NUMBER))
    def test_integer_past_float_range_exits_1(self, field, tmp_path, capsys):
        """A 401-digit JSON integer is no finite float: one error line naming
        the field, no OverflowError."""
        base, put = SET_NUMBER[field]
        obj = json.loads(json.dumps(base))
        put(obj, 10**400)
        assert main(["analyze", _write(tmp_path, obj)]) == 1
        assert capsys.readouterr().err == f"error: {field}: number must be finite\n"

    def test_uncertified_chebyshev_exits_2(self, monkeypatch, capsys):
        solve = analyzer.chebyshev

        def uncertified(theta):
            return dataclasses.replace(solve(theta), certified=False)

        monkeypatch.setattr(analyzer, "chebyshev", uncertified)
        assert main(["analyze", DEMO]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["experts"][1]["chebyshev"]["certified"] is False
        assert report["warnings"] == ["uncertified chebyshev result for expert 'bob'"]
        assert "warning: uncertified chebyshev result" in captured.err

    def test_paper_warning_quotes_chebyshev_radius(self, tmp_path, capsys):
        # three vertices: r^2 = 2/3 exceeds diameter^2/4 = 1/2 (Jung 1901)
        e = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        obj = {
            "states": ["a", "b", "c"],
            "nature": {"kind": "fixed", "forecast": [0.5, 0.3, 0.2]},
            "experts": [
                {"id": "alice", "kind": "informed", "announce": "truth"},
                {"id": "bob", "kind": "uninformed", "announce": "chebyshev",
                 "theta": {"kind": "finite", "forecasts": e}},
            ],
            "contract": {"kind": "prop1", "policy": "paper", "witnesses": e[:2]},
            "trials": 10,
            "seed": 1,
        }
        assert main(["analyze", _write(tmp_path, obj)]) == 0
        report = json.loads(capsys.readouterr().out)
        bob = report["experts"][1]
        assert bob["decision"] == "accept"
        assert bob["margin"]["value"] == 1.0
        radius_sq = bob["chebyshev"]["radius_sq"]
        assert radius_sq == pytest.approx(2.0 / 3.0, abs=1e-12)
        [warning] = report["warnings"]
        assert f"rejection threshold radius_sq = {radius_sq!r};" in warning
        assert "= 0.5" not in warning

    def test_prop2_values(self, tmp_path, capsys):
        code = main(["analyze", _write(tmp_path, PROP2)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        sharp = next(e for e in report["experts"] if e["id"] == "sharp")
        blurry = next(e for e in report["experts"] if e["id"] == "blurry")
        assert sharp["decision"] == "accept"
        assert sharp["value"]["value"] == pytest.approx(0.02 - 0.01, abs=1e-9)
        assert blurry["decision"] == "reject"
        assert blurry["value"]["value"] == pytest.approx(0.02 - 0.0484, abs=1e-9)


class TestOracle:
    def test_exact_vs_oracle_difference(self, tmp_path, capsys):
        code = main(["oracle", _write(tmp_path, TWO_POINT_SAFE), "--grid-k", "50"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        bob = next(e for e in report["experts"] if e["id"] == "bob")
        assert abs(bob["oracle"]["difference_vs_exact"]) <= 0.06
        assert bob["oracle"]["method"] == "oracle"

    def test_mixtures_reported(self, tmp_path, capsys):
        code = main(
            ["oracle", _write(tmp_path, TWO_POINT_SAFE), "--grid-k", "20", "--mixtures"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        bob = next(e for e in report["experts"] if e["id"] == "bob")
        assert (
            bob["oracle"]["best_mixture_value"]
            <= bob["oracle"]["best_point_mass_value"] + 3.0 / 20
        )

    def test_mixture_budget_exits_1(self, capsys):
        # 3 candidates on the 1378 points of k = 51: past 5e7 evaluations
        argv = ["oracle", str(ROOT / "tests" / "golden" / "asymmetric_n3.json"), "--mixtures"]
        assert main(argv + ["--grid-k", "51"]) == 1
        assert capsys.readouterr() == ("", "error: two-point mixture scan needs 51269868 "
                                           "evaluations; lower grid_k\n")
        assert main(argv + ["--grid-k", "50"]) == 0

    def test_grid_cap_exits_1(self, tmp_path, capsys):
        code = main(["oracle", _write(tmp_path, PROP2), "--grid-k", "100000"])
        assert code == 1


class TestSimulate:
    def test_json_screening_correct(self, tmp_path, capsys):
        code = main(["simulate", _write(tmp_path, PROP2), "--trials", "200"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["screening_correct"] is True
        for e in report["experts"]:
            assert e["mean_payoff"]["method"] == "monte_carlo"

    def test_csv_shape(self, tmp_path, capsys):
        code = main(["simulate", _write(tmp_path, TWO_POINT_SAFE), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "id,decision,analyzer_value,mean_payoff,stderr,trials,seed"

    def test_csv_quotes_an_id_that_holds_a_comma_quote_or_newline(self, tmp_path, capsys):
        obj = json.loads(json.dumps(TWO_POINT_SAFE))
        obj["experts"][1]["id"] = 'al,ice\n"x"'
        assert main(["simulate", _write(tmp_path, obj), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [len(row) for row in rows] == [7, 7, 7]
        assert [row[0] for row in rows] == ["id", "alice", 'al,ice\n"x"']

    def test_csv_of_plain_ids_is_unquoted(self, capsys):
        # each value as the f-string writer printed it: the floats' repr
        argv = ["simulate", str(DEMOS / "prop2_balls.json"), "--trials", "100"]
        assert main(argv + ["--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert text == ("id,decision,analyzer_value,mean_payoff,stderr,trials,seed\n"
                        "sharp,accept,0.009999999999999998,0.02600000000000001,"
                        "0.015048406741397753,100,11\n"
                        "blurry,reject,-0.028399999999999998,0.0,0.0,100,11\n")
        main(argv)
        report = json.loads(capsys.readouterr().out)
        assert text.splitlines()[1:] == [
            f"{e['id']},{e['decision']},{e['analyzer_value']['value']!r},"
            f"{e['mean_payoff']['value']!r},{e['payoff_stderr']['value']!r},"
            f"{report['trial_count']},{report['seed']}" for e in report["experts"]]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = _write(tmp_path, TWO_POINT_SAFE)
        main(["simulate", path])
        first = capsys.readouterr().out
        main(["simulate", path])
        second = capsys.readouterr().out
        assert first == second

    def test_sampler_without_draw_exits_1(self, tmp_path, capsys):
        vertex = [1.0] + [0.0] * 11
        raw = {
            "states": [f"s{i}" for i in range(12)],
            "nature": {"kind": "fixed", "forecast": vertex},
            "experts": [
                {"id": "alice", "kind": "informed", "announce": "truth"},
                {"id": "bob", "kind": "uninformed", "announce": "sample",
                 "theta": {"kind": "ball", "center": vertex, "radius": 0.05}},
            ],
            "contract": {"kind": "prop1", "policy": "safe",
                         "witnesses": [vertex, [0.0, 1.0] + [0.0] * 10]},
            "trials": 10,
            "seed": 1,
        }
        assert main(["simulate", _write(tmp_path, raw)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "12 states" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_uncertified_chebyshev_exits_2(self, fmt, monkeypatch, capsys):
        argv = ["simulate", DEMO, "--trials", "100", "--format", fmt]
        assert main(argv) == 0
        certified = capsys.readouterr().out
        solve = analyzer.chebyshev

        def uncertified(theta):
            return dataclasses.replace(solve(theta), certified=False)

        monkeypatch.setattr(analyzer, "chebyshev", uncertified)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == certified
        assert captured.err == "warning: uncertified chebyshev result for expert 'bob'\n"

    def test_seed_override(self, tmp_path, capsys):
        path = _write(tmp_path, TWO_POINT_SAFE)
        main(["simulate", path, "--seed", "123"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 123


class TestVerify:
    def test_quick_passes(self, capsys):
        code = main(["verify", "--quick"])
        captured = capsys.readouterr()
        out = captured.out
        assert code == 0
        assert "paper-epsilon-counterexample" in out
        assert "FAIL" not in out
        # one wall-time line per check, on stderr only (stdout: golden verify-quick)
        timings = captured.err.splitlines()
        assert [line.split()[1] for line in timings] == [name for name, _ in CHECKS]
        assert all(re.fullmatch(r"time: \S+ +\d+\.\d{3} s", line) for line in timings)
        assert "time:" not in out


def test_verify_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", [("holds", lambda quick: (True, "fine")),
                                           ("breaks", lambda quick: (False, "broken"))])
    assert main(["verify", "--quick"]) == 3
    assert capsys.readouterr().out == ("holds   PASS  fine\nbreaks  FAIL  broken\n"
                                       "FAILED: breaks\n")


@pytest.mark.parametrize(
    "argv,code",
    [
        (["oracle", DEMO, "--grid-k", "0"], 1),
        (["oracle", DEMO, "--grid-k", "-3"], 1),
        (["oracle", DEMO, "--grid-k", "abc"], 1),
        (["analyze", DEMO, "--tol", "1e-8"], 1),  # --tol no longer exists
        (["oracle", DEMO, "--tol", "1e-8"], 1),
        (["analyze", DEMO, "--unknown-option"], 1),
        (["analyze", "--help"], 0),
        (["simulate", DEMO, "--trials", "10", "--seed", str(2**128)], 1),
    ],
)
def test_bad_arguments_exit_1(argv, code, capsys):
    try:
        got = main(argv)
    except SystemExit as exc:  # --help exits from argparse
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


# a flag in one call, the same command without it, a bad value, another command
SHARED_PARSER_RUNS = [
    ["oracle", DEMO, "--grid-k", "10", "--mixtures"],
    ["oracle", DEMO, "--grid-k", "10"],
    ["oracle", DEMO, "--grid-k", "0"],
    ["analyze", DEMO],
]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_shared(monkeypatch, capsys):
    """main reuses one parser per process; each call's output equals a run
    with a freshly built parser, so no call leaves state for the next."""
    fresh = []
    for argv in SHARED_PARSER_RUNS:
        cli.build_parser.cache_clear()
        fresh.append(_run(argv, capsys))
    cli.build_parser.cache_clear()
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    shared = [_run(argv, capsys) for argv in SHARED_PARSER_RUNS]
    assert shared == fresh
    assert built == ["expert-screen"] + [
        f"expert-screen {c}" for c in ("analyze", "oracle", "simulate", "verify")
    ]
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 1, 0]
    with_flag, without = (json.loads(out)["experts"][1]["oracle"] for _, out, _ in shared[:2])
    assert "best_mixture_value" in with_flag
    assert "best_mixture_value" not in without


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


# subclasses miss the writer's exact-type table and go to json.dumps, as do
# tuples and int-keyed dicts; below the top level, json's text is re-indented
_REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(_Int),
    st.text().map(_Str),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(),
    st.sampled_from(["", "é", "\u2028", "\x00", "\U0001f600", "\\\"", "\ud800"]),
    st.builds(list),
    st.builds(dict),
    st.just(()),
)
_REPORTS = st.recursive(
    _REPORT_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_List),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.text(max_size=6).map(_Str), inner, max_size=4).map(_Dict),
        st.dictionaries(st.integers(), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_REPORTS)
def test_report_writer_equals_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    np.int64(3), np.bool_(True), {1, 2}, b"x", [np.float32(0.5)], {"a": [1, object()]},
    {(1, 2): 0}, {"a": 0, 1: 0}, {None: 0, "a": 1},
])
def test_report_writer_raises_where_json_dumps_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._json(obj)


@pytest.mark.parametrize("obj", [{1: 0, 2.5: 1, -3: 2}, {True: 0}, {None: 1}, {float("nan"): 0}])
def test_report_writer_non_string_keys(obj):
    assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _bench_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _package_attributes():
    """Every attribute the traced run could rebind, by identity."""
    modules = (analyzer, cli, contracts, plausible, scenario, simplex, simulation)
    attrs = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    attrs.update({("Forecast", k): v for k, v in vars(simplex.Forecast).items()})
    return attrs


def _assert_restored(before):
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_bench_tracing_instruments_and_restores(tmp_path):
    """The benchmark's traced run rebinds package attributes by name."""
    tracing = _bench_tracing()
    before = _package_attributes()
    with tracing.instrument(tracing.Tracer()) as tracer:
        assert cli.main(["oracle", _write(tmp_path, PROP2), "--grid-k", "10"]) == 0
    _assert_restored(before)
    assert tracer.stats["analyzer.oracle_maxmin"][0] == 2
    assert tracer.stats["analyzer.uninformed_maxmin"][0] == 2


def test_bench_tracing_records_sampled_tournament():
    """A traced tournament with a `sample` announcement records its spans
    through the rebound simulation attributes: one sample_from call per
    block and sampling expert."""
    tracing = _bench_tracing()
    sc = Scenario(
        states=StateSpace(("a", "b", "c")),
        nature=Forecast([0.5, 0.3, 0.2]),
        experts=(
            ExpertSpec(id="alice", kind="informed"),
            ExpertSpec(id="bob", kind="uninformed",
                       theta=Ball(Forecast([0.4, 0.35, 0.25]), 0.1), announce="sample"),
        ),
        contract_config=Prop1Config(
            policy=SAFE_EPSILON, witnesses=(Forecast([1, 0, 0]), Forecast([0, 1, 0]))
        ),
        trials=simulation.BLOCK + 5,
        seed=3,
    )
    before = _package_attributes()
    with tracing.instrument(tracing.Tracer()) as tracer:
        simulation.run_tournament(sc)
    _assert_restored(before)
    names = {span[1] for span in tracer.spans}
    assert "simulation.run_tournament" in names
    assert tracer.stats["plausible.sample_from.n3"][0] == 2
    assert "plausible.sample_from.n3" in names


def test_cli_import_leaves_verify_unloaded():
    """The property suites load only for `expert-screen verify`."""
    code = "import sys, expert_screening.cli; print('expert_screening.verify' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_each_contract_is_built_once(monkeypatch, tmp_path, capsys):
    """Loading a scenario builds its contracts once, in its config; the oracle
    command and a tournament read them from there. Every module of the
    package that holds a contract builder has it counted."""
    calls = []

    def counted(name, make):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return make(*args, **kwargs)
        return wrapper

    for name in ("make_prop1_contract", "make_prop2_contracts"):
        make = getattr(contracts, name)
        for module in [m for k, m in sys.modules.items() if k.startswith("expert_screening")]:
            if getattr(module, name, None) is make:
                monkeypatch.setattr(module, name, counted(name, make))
    builder = {"prop1": ["make_prop1_contract"], "prop2": ["make_prop2_contracts"]}
    for demo in sorted(DEMOS.glob("*.json")):
        obj = json.loads(demo.read_text())
        expect = builder[obj["contract"]["kind"]]
        sc = scenario.load_scenario(demo)
        assert calls == expect
        calls.clear()
        assert main(["oracle", _write(tmp_path, obj), "--grid-k", "10"]) == 0
        capsys.readouterr()
        assert calls == expect
        calls.clear()
        simulation.run_tournament(dataclasses.replace(sc, trials=10))
        assert calls == []
