"""Command-line surface: analyze, oracle, simulate, verify.

Reports are machine-readable JSON (CSV for simulate on request); every
numeric result carries a method tag (exact | oracle | monte_carlo), and
warnings appear both in the report and on stderr. `verify` writes each
check's wall seconds to stderr, so its stdout stays byte-identical.

Exit codes: 0 success; 1 invalid input; 2 an uncertified Chebyshev solve
in analyze, oracle or simulate (its radius bounds still more than
plausible.GAP_TOL apart after plausible.MAX_ROUNDS rounds; the report is
written all the same); 3 verification failure.
"""

import argparse
import dataclasses
import functools
import sys
from json.encoder import encode_basestring_ascii

from .analyzer import (
    ACCEPT,
    oracle_maxmin,
    uninformed_maxmin,  # unused; bench/tracing.py rebinds it here
)
from .contracts import PAPER_EPSILON
from .errors import ScreeningError
from .scenario import INFORMED, echo_scenario, load_scenario
from .simulation import decide_acceptance, run_tournament


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
                "center": report.optimal_strategy.probs.tolist(),
                "radius_sq": radius_sq,
                "certified": report.certified,
                "method": "exact",
            }
            entry["worst_case_truth"] = report.worst_case_truth.probs.tolist()
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
    """`json.dumps(report, sort_keys=True, indent=2) + "\n"`, the same
    string. With an indent, json leaves its C encoder for a pure-Python
    one. This writer takes json's branches (a bool before an int, since
    bool is an int) and raises TypeError wherever json.dumps does."""
    out = []
    _write_value(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _scalar_text(x):
    """JSON text of None, a bool, an int or a float, as json writes it."""
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# exact builtin leaf types; a subclass (np.float64) takes the isinstance branches
_LEAF_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _scalar_text,
              bool: _scalar_text, type(None): _scalar_text}


def _key_text(key):
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_value(obj, newline, out):
    """Append obj's JSON text to out; newline is the line break plus the
    indent of the line obj starts on."""
    leaf = _LEAF_TEXT.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (int, float)):
        out.append(_scalar_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            sep = "," + inner
            _write_value(item, inner, out)
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(_key_text(key)) + ": ")
            sep = "," + inner
            _write_value(value, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
    contracts = sc.contract_config.contracts
    experts, warnings, uncertified = _analyze_experts(sc, contracts)
    if args.command == "oracle":
        for entry, expert, contract in zip(experts, sc.experts, contracts):
            if expert.kind != INFORMED:
                entry["oracle"] = _oracle_entry(entry, expert, contract, args)
    report = {
        "scenario": echo_scenario(sc),
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
        out = _json({"scenario": echo_scenario(sc), **result.to_dict()})
    _emit(out, warnings)
    return 2 if warnings else 0


def cmd_verify(args):
    from .verify import run_all  # the property suites load only for this command
    results = run_all(quick=args.quick)
    width = max(len(name) for name, _, _, _ in results)
    failed = []
    for name, ok, detail, seconds in results:
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{name.ljust(width)}  {status}  {detail}\n")
        sys.stderr.write(f"time: {name.ljust(width)}  {seconds:.3f} s\n")
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


@functools.cache
def build_parser():
    """The `expert-screen` parser, built on the first call and shared by
    every later call in the process (an in-process caller of `main` pays
    for argparse once). Callers must not mutate it."""
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
