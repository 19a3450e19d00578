"""Command-line surface: analyze, oracle, simulate, verify.

Reports are machine-readable JSON (CSV for simulate on request); every
numeric result carries a method tag (exact | oracle | monte_carlo), and
warnings appear both in the report and on stderr.

Exit codes: 0 success; 1 invalid input; 2 an uncertified Chebyshev solve
in analyze, oracle or simulate (its radius bounds still more than
plausible.GAP_TOL apart after plausible.MAX_ROUNDS rounds; the report is
written all the same); 3 verification failure.
"""

import argparse
import dataclasses
import json
import sys

from .analyzer import (
    ACCEPT,
    oracle_maxmin,
    uninformed_maxmin,  # unused; bench/tracing.py rebinds it here
)
from .contracts import PAPER_EPSILON
from .errors import ScreeningError
from .scenario import load_scenario
from .simplex import Forecast
from .simulation import (
    INFORMED,
    Prop1Config,
    build_contracts,
    decide_acceptance,
    run_tournament,
)
from .verify import run_all


def _forecast_list(f):
    return f.probs.tolist()


def _scenario_echo(sc):
    if isinstance(sc.contract_config, Prop1Config):
        contract = {
            "kind": "prop1",
            "policy": sc.contract_config.policy,
            "witnesses": [_forecast_list(w) for w in sc.contract_config.witnesses],
        }
        if sc.contract_config.margin is not None:
            contract["fixed_margin"] = sc.contract_config.margin
    else:
        contract = {
            "kind": "prop2",
            "eps1": sc.contract_config.eps1,
            "eps2": sc.contract_config.eps2,
            "gamma": sc.contract_config.gamma,
        }
    return {
        "states": list(sc.states.labels),
        "nature": (
            {"kind": "uniform"}
            if sc.nature == "uniform"
            else {"kind": "fixed", "forecast": _forecast_list(sc.nature)}
        ),
        "experts": [
            {
                "id": e.id,
                "kind": e.kind,
                "announce": (
                    {"fixed": _forecast_list(e.announce)}
                    if isinstance(e.announce, Forecast)
                    else e.announce
                ),
            }
            for e in sc.experts
        ],
        "contract": contract,
        "trials": sc.trials,
        "seed": sc.seed,
    }


def _uncertified(expert_id):
    return f"uncertified chebyshev result for expert '{expert_id}'"


def _analyze_experts(sc, contracts):
    """Per-expert analyzer results plus warning strings, each entry built
    from one decide_acceptance call."""
    experts, warnings = [], []
    any_uncertified = False
    for expert, contract in zip(sc.experts, contracts):
        decision, value, report = decide_acceptance(expert, contract)
        entry = {"id": expert.id, "kind": expert.kind, "decision": decision,
                 "margin": {"value": contract.margin, "method": "exact"},
                 "value": {"value": value, "method": "exact"}}
        if report is not None:
            radius_sq = report.details["chebyshev_radius_sq"]
            entry["chebyshev"] = {
                "center": _forecast_list(report.optimal_strategy.atoms[0][0]),
                "radius_sq": radius_sq,
                "certified": report.certified,
                "method": "exact",
            }
            entry["worst_case_truth"] = _forecast_list(report.worst_case_truth)
            if not report.certified:
                any_uncertified = True
                warnings.append(_uncertified(expert.id))
            if contract.policy == PAPER_EPSILON and decision == ACCEPT:
                warnings.append(
                    f"expert '{expert.id}' ACCEPTS under the half-witness-distance "
                    f"margin {contract.margin}: the margin exceeds the rejection "
                    f"threshold radius_sq = {radius_sq}; "
                    "the safe policy (witness distance^2 / 8) guarantees rejection"
                )
        experts.append(entry)
    return experts, warnings, any_uncertified


def _json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(out, warnings):
    sys.stdout.write(out)
    for w in warnings:
        sys.stderr.write(f"warning: {w}\n")


def _oracle_entry(entry, expert, contract, args):
    report = oracle_maxmin(
        expert.theta, contract, grid_k=args.grid_k, mixture_pairs=args.mixtures
    )
    block = {
        "value": report.value,
        "method": "oracle",
        "decision": report.decision,
        "grid_k": args.grid_k,
        "difference_vs_exact": report.value - entry["value"]["value"],
        "reduction_rival_matches_truth_dist_sq": report.details[
            "reduction_rival_matches_truth_dist_sq"
        ],
    }
    if args.mixtures:
        for key in ("best_mixture_value", "best_point_mass_value"):
            block[key] = report.details[key]
    return block


def cmd_report(args):
    """`analyze`; `oracle` is the same report plus a per-expert oracle block."""
    sc = load_scenario(args.scenario)
    contracts = build_contracts(sc.contract_config)
    experts, warnings, uncertified = _analyze_experts(sc, contracts)
    if args.command == "oracle":
        for entry, expert, contract in zip(experts, sc.experts, contracts):
            if expert.kind != INFORMED:
                entry["oracle"] = _oracle_entry(entry, expert, contract, args)
    report = {
        "scenario": _scenario_echo(sc),
        "experts": experts,
        "warnings": warnings,
    }
    _emit(_json(report), warnings)
    return 2 if uncertified else 0


def cmd_simulate(args):
    sc = load_scenario(args.scenario)
    if args.trials is not None:
        sc = dataclasses.replace(sc, trials=args.trials)
    if args.seed is not None:
        sc = dataclasses.replace(sc, seed=args.seed)
    result = run_tournament(sc)
    warnings = [_uncertified(e.id) for e in result.experts if not e.analyzer_certified]
    if args.format == "csv":
        out = "id,decision,analyzer_value,mean_payoff,stderr,trials,seed\n" + "".join(
            f"{e.id},{e.decision},{e.analyzer_value!r},{e.mean_payoff!r},"
            f"{e.payoff_stderr!r},{result.trial_count},{result.seed}\n"
            for e in result.experts
        )
    else:
        out = _json({"scenario": _scenario_echo(sc), **result.to_dict()})
    _emit(out, warnings)
    return 2 if warnings else 0


def cmd_verify(args):
    results = run_all(quick=args.quick)
    width = max(len(name) for name, _, _ in results)
    failed = []
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{name.ljust(width)}  {status}  {detail}\n")
        if not ok:
            failed.append(name)
    if failed:
        sys.stdout.write(f"FAILED: {', '.join(failed)}\n")
        return 3
    sys.stdout.write(f"all {len(results)} property suites passed\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors exit through main's one error path (exit 1)."""

    def error(self, message):
        raise ScreeningError(message)


def _positive_int(text):
    """argparse type: an integer above zero."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive int, got {text!r}")
    return value


def build_parser():
    parser = _Parser(
        prog="expert-screen",
        description="Screening contracts for probabilistic forecasters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="margins, maxmin values, accept/reject")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("oracle", help="brute-force audit of the exact analyzer")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--grid-k", type=_positive_int, default=50, dest="grid_k")
    p.add_argument("--mixtures", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("simulate", help="run a seeded Monte Carlo tournament")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the built-in property suites")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ScreeningError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
