"""Strict scenario-file parsing.

Scenario files are UTF-8 JSON with a fixed schema; unknown keys are
rejected with the offending key name, and every number must be finite.
"""

import json

from .errors import InvalidScenario, ScreeningError
from .simplex import StateSpace, validate_forecast
from .simulation import (
    ExpertSpec,
    Prop1Config,
    Prop2Config,
    Scenario,
    _finite_number,
)
from .plausible import Ball, FiniteSet
from .contracts import FIXED_MARGIN, PAPER_EPSILON, SAFE_EPSILON

_TOP_KEYS = {"states", "nature", "experts", "contract", "trials", "seed"}
_EXPERT_KEYS = {"id", "kind", "theta", "announce"}


def _require_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise InvalidScenario(f"{where}: expected an object")
    for k in obj:
        if k not in allowed:
            raise InvalidScenario(f"{where}: unknown key '{k}'")


def _forecast(raw, space, where):
    if not isinstance(raw, list):
        raise InvalidScenario(f"{where}: expected an array of numbers")
    vec = [_finite_number(v, where) for v in raw]
    try:
        return validate_forecast(vec, space)
    except (ValueError, ScreeningError) as exc:
        raise InvalidScenario(f"{where}: {exc}") from exc


def _parse_theta(obj, space, where):
    _require_keys(obj, {"kind", "forecasts", "center", "radius"}, where)
    kind = obj.get("kind")
    if kind == "finite":
        raw = obj.get("forecasts")
        if not isinstance(raw, list) or not raw:
            raise InvalidScenario(f"{where}.forecasts: expected a non-empty array")
        fs = tuple(_forecast(r, space, f"{where}.forecasts[{i}]") for i, r in enumerate(raw))
        try:
            return FiniteSet(fs)
        except (ValueError, ScreeningError) as exc:
            raise InvalidScenario(f"{where}: {exc}") from exc
    if kind == "ball":
        center = _forecast(obj.get("center"), space, f"{where}.center")
        radius = _finite_number(obj.get("radius"), f"{where}.radius")
        try:
            return Ball(center, radius)
        except (ValueError, ScreeningError) as exc:
            raise InvalidScenario(f"{where}.radius: {exc}") from exc
    raise InvalidScenario(f"{where}.kind: must be 'finite' or 'ball'")


def _parse_announce(raw, space, where):
    """A fixed forecast; anything else goes to ExpertSpec, which checks it."""
    if isinstance(raw, dict):
        _require_keys(raw, {"fixed"}, where)
        return _forecast(raw.get("fixed"), space, f"{where}.fixed")
    return raw


def _parse_expert(obj, space, idx):
    where = f"experts[{idx}]"
    _require_keys(obj, _EXPERT_KEYS, where)
    theta = _parse_theta(obj["theta"], space, f"{where}.theta") if "theta" in obj else None
    announce = _parse_announce(obj.get("announce"), space, f"{where}.announce")
    return ExpertSpec(id=obj.get("id"), kind=obj.get("kind"), theta=theta, announce=announce)


def _parse_contract(obj, space):
    where = "contract"
    _require_keys(
        obj, {"kind", "policy", "witnesses", "eps1", "eps2", "gamma"}, where
    )
    kind = obj.get("kind")
    if kind == "prop1":
        policy_raw = obj.get("policy")
        margin = None
        if policy_raw == "paper":
            policy = PAPER_EPSILON
        elif policy_raw == "safe":
            policy = SAFE_EPSILON
        elif isinstance(policy_raw, dict):
            _require_keys(policy_raw, {"fixed"}, f"{where}.policy")
            policy = FIXED_MARGIN
            margin = _finite_number(policy_raw.get("fixed"), f"{where}.policy.fixed")
        else:
            raise InvalidScenario(
                f"{where}.policy: must be 'paper', 'safe', or {{'fixed': m}}"
            )
        raw_w = obj.get("witnesses")
        if not isinstance(raw_w, list) or len(raw_w) != 2:
            raise InvalidScenario(f"{where}.witnesses: expected exactly 2 forecasts")
        witnesses = tuple(
            _forecast(w, space, f"{where}.witnesses[{i}]") for i, w in enumerate(raw_w)
        )
        return Prop1Config(policy=policy, witnesses=witnesses, margin=margin)
    if kind == "prop2":
        for key in ("eps1", "eps2", "gamma"):
            if key not in obj:
                raise InvalidScenario(f"{where}.{key}: required for prop2 contracts")
        return Prop2Config(eps1=obj["eps1"], eps2=obj["eps2"], gamma=obj["gamma"])
    raise InvalidScenario(f"{where}.kind: must be 'prop1' or 'prop2'")


def parse_scenario(obj):
    """Build a Scenario from a decoded JSON object; strict about keys."""
    _require_keys(obj, _TOP_KEYS, "scenario")
    for key in _TOP_KEYS:
        if key not in obj:
            raise InvalidScenario(f"{key}: missing required key")

    states_raw = obj["states"]
    if (
        not isinstance(states_raw, list)
        or len(states_raw) < 2
        or not all(isinstance(s, str) for s in states_raw)
    ):
        raise InvalidScenario("states: expected an array of >= 2 state names")
    try:
        space = StateSpace(tuple(states_raw))
    except (ValueError, ScreeningError) as exc:
        raise InvalidScenario(f"states: {exc}") from exc

    nature_raw = obj["nature"]
    _require_keys(nature_raw, {"kind", "forecast"}, "nature")
    if nature_raw.get("kind") == "uniform":
        nature = "uniform"
    elif nature_raw.get("kind") == "fixed":
        nature = _forecast(nature_raw.get("forecast"), space, "nature.forecast")
    else:
        raise InvalidScenario("nature.kind: must be 'fixed' or 'uniform'")

    experts_raw = obj["experts"]
    if not isinstance(experts_raw, list):
        raise InvalidScenario("experts: expected an array of 2 experts")
    experts = tuple(
        _parse_expert(e, space, i) for i, e in enumerate(experts_raw)
    )

    contract = _parse_contract(obj["contract"], space)

    return Scenario(
        states=space,
        nature=nature,
        experts=experts,
        contract_config=contract,
        trials=obj["trials"],
        seed=obj["seed"],
    )


def _unique_keys(pairs):
    """json object_pairs_hook: a key given twice is an error, not the last
    value silently winning."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InvalidScenario(f"file: duplicate key '{key}'")
    return obj


def load_scenario(path):
    """Read and parse a scenario file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InvalidScenario(f"file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise InvalidScenario(f"file: invalid JSON ({exc})") from exc
    return parse_scenario(obj)
