"""Construction and evaluation of screening contracts.

A contract pays its holder the Brier-score difference between their own
forecast and the rival's, plus a margin. The margin policy records how
the margin was derived so reports can explain its value.
"""

from dataclasses import dataclass

from .errors import DegenerateWitnesses, InvalidGamma, InvalidRadii
from .scoring import brier
from .simplex import l2_dist_sq

PAPER_EPSILON = "paper_epsilon"      # margin = witness distance^2 / 2
SAFE_EPSILON = "safe_epsilon"        # margin = witness distance^2 / 8
FIXED_MARGIN = "fixed_margin"
GAMMA_COMPARATIVE = "gamma_comparative"

WITNESS_TOL = 1e-9
MAX_MARGIN = 1.3407807929942596e154  # sqrt(float max): a larger margin's square overflows


@dataclass(frozen=True)
class Contract:
    """Payoff rule brier(own, s) - brier(rival, s) + margin."""

    margin: float
    policy: str

    def __post_init__(self):
        m = float(self.margin)
        if not abs(m) <= MAX_MARGIN:  # also false for NaN
            raise ValueError(f"margin must be finite with |margin| <= {MAX_MARGIN!r}")
        object.__setattr__(self, "margin", m)


def make_prop1_contract(fx, fy, policy, margin=None):
    """Single-screening contract from two plausible witness forecasts.

    paper_epsilon uses half the squared witness distance; safe_epsilon
    uses an eighth of it, which sits strictly below the minimal-enclosing
    squared radius of any set containing both witnesses; fixed_margin
    passes `margin` through.
    """
    d2 = l2_dist_sq(fx, fy)
    if d2 <= WITNESS_TOL**2:
        raise DegenerateWitnesses("witness forecasts coincide")
    if policy == PAPER_EPSILON:
        return Contract(d2 / 2.0, PAPER_EPSILON)
    if policy == SAFE_EPSILON:
        return Contract(d2 / 8.0, SAFE_EPSILON)
    if policy == FIXED_MARGIN:
        if margin is None:
            raise ValueError("fixed_margin policy requires a margin value")
        return Contract(float(margin), FIXED_MARGIN)
    raise ValueError(f"unknown margin policy {policy!r}")


def make_prop2_contracts(eps1, eps2, gamma):
    """Mirrored comparative contracts for two ball-informed experts.

    Requires 0 < eps1 < eps2 and eps1^2 < gamma < eps2^2; both contracts
    carry the additive margin gamma.
    """
    eps1, eps2, gamma = float(eps1), float(eps2), float(gamma)
    if not 0 < eps1 < eps2:
        raise InvalidRadii(f"need 0 < eps1 < eps2, got {eps1}, {eps2}")
    try:
        lo, hi = eps1**2, eps2**2
    except OverflowError:
        raise InvalidRadii(f"eps2 = {eps2} has no finite square") from None
    if not lo < gamma < hi:
        raise InvalidGamma(f"gamma {gamma} outside open interval ({lo}, {hi})")
    c = Contract(gamma, GAMMA_COMPARATIVE)
    return c, c


def realized_payoff(c, own, rival, s):
    """Payoff when state s is observed."""
    return brier(own, s) - brier(rival, s) + c.margin


def expected_payoff(c, truth, own, rival):
    """Expected payoff under `truth`: dist^2(truth, rival) - dist^2(truth, own)
    plus the margin (closed form via the Brier expected-score identity)."""
    return l2_dist_sq(truth, rival) - l2_dist_sq(truth, own) + c.margin
