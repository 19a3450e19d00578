"""The scenario format: its types, its strict parser and its writer.

Scenario files are UTF-8 JSON with a fixed schema; unknown keys are
rejected with the offending key name, and every number must be finite.
A scenario built in process is checked as a parsed file is.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

from .contracts import (
    FIXED_MARGIN,
    PAPER_EPSILON,
    SAFE_EPSILON,
    make_prop1_contract,
    make_prop2_contracts,
)
from .errors import InvalidRadii, InvalidScenario, ScreeningError
from .plausible import Ball, FiniteSet
from .simplex import Forecast, StateSpace, validate_forecast

INFORMED = "informed"
UNINFORMED = "uninformed"
PARTIAL = "partial"

ANNOUNCE_TRUTH = "truth"
ANNOUNCE_CHEBYSHEV = "chebyshev"
ANNOUNCE_SAMPLE = "sample"
ANNOUNCE_POLICIES = (ANNOUNCE_TRUTH, ANNOUNCE_CHEBYSHEV, ANNOUNCE_SAMPLE)

_TOP_KEYS = {"states", "nature", "experts", "contract", "trials", "seed"}
_EXPERT_KEYS = {"id", "kind", "theta", "announce"}


def _finite_number(x, where):
    """x as a finite float; a bool, a non-number or an infinity raises
    InvalidScenario naming `where`."""
    if type(x) is float and math.isfinite(x):
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidScenario(f"{where}: expected a number")
    try:
        value = float(x)  # an int past float range raises OverflowError
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidScenario(f"{where}: number must be finite")
    return value


@dataclass(frozen=True)
class ExpertSpec:
    id: str
    kind: str                      # informed | uninformed | partial
    theta: object = None           # FiniteSet | Ball for non-informed kinds
    announce: object = None        # policy name or a fixed Forecast; None: by kind

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidScenario(f"expert id: expected a non-empty string, got {self.id!r}")
        if not isinstance(self.kind, str) or self.kind not in (INFORMED, UNINFORMED, PARTIAL):
            raise InvalidScenario(
                f"expert {self.id}: kind must be 'informed', 'uninformed', or 'partial'"
            )
        if self.announce is None:
            default = ANNOUNCE_TRUTH if self.kind == INFORMED else ANNOUNCE_CHEBYSHEV
            object.__setattr__(self, "announce", default)
        if not isinstance(self.announce, Forecast) and not (
            isinstance(self.announce, str) and self.announce in ANNOUNCE_POLICIES
        ):
            raise InvalidScenario(f"expert {self.id}: announce must be 'truth', "
                                  "'chebyshev', 'sample', or {'fixed': [...]}")
        if self.kind == INFORMED:
            if self.theta is not None:
                raise InvalidScenario(f"expert {self.id}: informed experts take no theta")
            if self.announce != ANNOUNCE_TRUTH:
                raise InvalidScenario(
                    f"expert {self.id}: informed experts must announce the truth"
                )
        else:
            if not isinstance(self.theta, (FiniteSet, Ball)):
                raise InvalidScenario(
                    f"expert {self.id}: theta required for kind '{self.kind}'"
                )
            if self.announce == ANNOUNCE_TRUTH:
                raise InvalidScenario(
                    f"expert {self.id}: uninformed experts cannot announce the truth"
                )
            if self.kind == PARTIAL and not isinstance(self.theta, Ball):
                raise InvalidScenario(
                    f"expert {self.id}: partially informed experts need a ball set"
                )


@dataclass(frozen=True)
class Prop1Config:
    """Checked once, by building `contracts`; an error names the field."""

    policy: str
    witnesses: tuple
    margin: float = None
    contracts: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.policy, str):
            raise InvalidScenario("contract.policy: expected a policy name")
        w = self.witnesses
        if not (isinstance(w, tuple) and len(w) == 2
                and all(isinstance(f, Forecast) for f in w)):
            raise InvalidScenario("contract.witnesses: expected a pair of forecasts")
        if self.margin is not None:
            object.__setattr__(self, "margin", _finite_number(self.margin, "contract.margin"))
        try:
            c = make_prop1_contract(*w, self.policy, margin=self.margin)
        except ScreeningError as exc:  # witnesses that coincide or differ in length
            raise InvalidScenario(f"contract.witnesses: {exc}") from exc
        except ValueError as exc:
            name = "margin" if self.policy == FIXED_MARGIN else "policy"
            raise InvalidScenario(f"contract.{name}: {exc}") from exc
        if self.margin is not None and self.policy != FIXED_MARGIN:
            raise InvalidScenario(f"contract.margin: the {self.policy} policy sets its own "
                                  f"margin; only {FIXED_MARGIN} takes one")
        object.__setattr__(self, "contracts", (c, c))


@dataclass(frozen=True)
class Prop2Config:
    """Checked once: finite numbers, stored as floats, that make `contracts`."""

    eps1: float
    eps2: float
    gamma: float
    contracts: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("eps1", "eps2", "gamma"):
            value = _finite_number(getattr(self, name), f"contract.{name}")
            object.__setattr__(self, name, value)
        try:
            contracts = make_prop2_contracts(self.eps1, self.eps2, self.gamma)
        except InvalidRadii as exc:  # eps2's square overflows once the order holds
            name = "eps2" if 0 < self.eps1 < self.eps2 else "eps1"
            raise InvalidScenario(f"contract.{name}: {exc}") from exc
        except (ValueError, ScreeningError) as exc:  # gamma is both contracts' margin
            raise InvalidScenario(f"contract.gamma: {exc}") from exc
        object.__setattr__(self, "contracts", contracts)


@dataclass(frozen=True)
class Scenario:
    states: StateSpace
    nature: object            # Forecast (fixed) or "uniform"
    experts: tuple            # exactly 2 ExpertSpec
    contract_config: object   # Prop1Config | Prop2Config
    trials: int
    seed: int

    def __post_init__(self):
        # isinstance checks only: dataclasses.replace runs these per tournament
        if not isinstance(self.states, StateSpace):
            raise InvalidScenario("states: expected a StateSpace")
        if not (isinstance(self.experts, tuple) and len(self.experts) == 2
                and all(isinstance(e, ExpertSpec) for e in self.experts)):
            raise InvalidScenario("experts: exactly 2 experts required, a tuple of ExpertSpec")
        if not isinstance(self.contract_config, (Prop1Config, Prop2Config)):
            raise InvalidScenario("contract: expected a Prop1Config or a Prop2Config")
        if self.experts[0].id == self.experts[1].id:
            raise InvalidScenario("experts: ids must be distinct")
        # exact type checks, because bool is an int subclass
        if type(self.trials) is not int or self.trials < 1:
            raise InvalidScenario("trials: must be a positive integer")
        if type(self.seed) is not int or not 0 <= self.seed < 2**128:
            raise InvalidScenario("seed: must be an integer in [0, 2**128)")
        # isinstance first: an array compared with "uniform" has no truth value
        n = self.states.n
        if isinstance(self.nature, Forecast):
            if self.nature.n != n:
                raise InvalidScenario(f"nature: a forecast on {self.nature.n} states, "
                                      f"the scenario has {n}")
        elif not (isinstance(self.nature, str) and self.nature == "uniform"):
            raise InvalidScenario("nature: must be 'uniform' or a fixed forecast")
        for e in self.experts:
            if e.theta is not None and e.theta.n != n:
                raise InvalidScenario(f"expert {e.id}: theta on {e.theta.n} states, "
                                      f"the scenario has {n}")
            if isinstance(e.announce, Forecast) and e.announce.n != n:
                raise InvalidScenario(f"expert {e.id}: a fixed announcement on "
                                      f"{e.announce.n} states, the scenario has {n}")
        if (isinstance(self.contract_config, Prop1Config)
                and self.contract_config.witnesses[0].n != n):
            raise InvalidScenario(f"contract.witnesses: expected 2 forecasts on "
                                  f"the scenario's {n} states")


def _require_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise InvalidScenario(f"{where}: expected an object")
    for k in obj:
        if k not in allowed:
            raise InvalidScenario(f"{where}: unknown key '{k}'")


def _build(make, where, *args):
    """make(*args); a ValueError or ScreeningError it raises becomes
    InvalidScenario naming `where`."""
    try:
        return make(*args)
    except (ValueError, ScreeningError) as exc:
        raise InvalidScenario(f"{where}: {exc}") from exc


def _forecast(raw, space, where):
    if not isinstance(raw, list):
        raise InvalidScenario(f"{where}: expected an array of numbers")
    vec = [_finite_number(v, where) for v in raw]
    return _build(validate_forecast, where, vec, space)


def _parse_theta(obj, space, where):
    _require_keys(obj, {"kind", "forecasts", "center", "radius"}, where)
    kind = obj.get("kind")
    if kind == "finite":
        raw = obj.get("forecasts")
        if not isinstance(raw, list) or not raw:
            raise InvalidScenario(f"{where}.forecasts: expected a non-empty array")
        fs = tuple(_forecast(r, space, f"{where}.forecasts[{i}]") for i, r in enumerate(raw))
        return _build(FiniteSet, where, fs)
    if kind == "ball":
        center = _forecast(obj.get("center"), space, f"{where}.center")
        radius = _finite_number(obj.get("radius"), f"{where}.radius")
        return _build(Ball, f"{where}.radius", center, radius)
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
        witnesses = obj.get("witnesses")  # Prop1Config checks the count and type
        if isinstance(witnesses, list):
            witnesses = tuple(
                _forecast(w, space, f"{where}.witnesses[{i}]") for i, w in enumerate(witnesses)
            )
        return Prop1Config(policy=policy, witnesses=witnesses, margin=margin)
    if kind == "prop2":
        return Prop2Config(eps1=obj.get("eps1"), eps2=obj.get("eps2"), gamma=obj.get("gamma"))
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
        or not all(isinstance(s, str) for s in states_raw)
    ):
        raise InvalidScenario("states: expected an array of >= 2 state names")
    space = _build(StateSpace, "states", tuple(states_raw))

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
    """Read and parse a scenario file: one json.loads call, which rejects
    a UTF-8 BOM and duplicate keys. Input nested too deeply to decode is
    invalid JSON too, an error rather than a traceback."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InvalidScenario(f"file: {exc}") from exc
    # JSONDecodeError, UnicodeDecodeError, int digit limit, deep nesting
    except (ValueError, RecursionError) as exc:
        raise InvalidScenario(f"file: invalid JSON ({exc})") from exc
    return parse_scenario(obj)


def echo_scenario(sc):
    """The scenario as a report echoes it: JSON-ready, with no theta."""
    config = sc.contract_config
    if isinstance(config, Prop1Config):
        contract = {
            "kind": "prop1",
            "policy": config.policy,
            "witnesses": [w.probs.tolist() for w in config.witnesses],
        }
        if config.margin is not None:
            contract["fixed_margin"] = config.margin
    else:
        contract = {
            "kind": "prop2",
            "eps1": config.eps1,
            "eps2": config.eps2,
            "gamma": config.gamma,
        }
    return {
        "states": list(sc.states.labels),
        "nature": (
            {"kind": "uniform"}
            if sc.nature == "uniform"
            else {"kind": "fixed", "forecast": sc.nature.probs.tolist()}
        ),
        "experts": [
            {
                "id": e.id,
                "kind": e.kind,
                "announce": (
                    {"fixed": e.announce.probs.tolist()}
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
