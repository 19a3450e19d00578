"""Screening contracts for probabilistic forecasters.

Brier-score-difference contracts that informed experts accept and
uncertainty-averse uninformed experts reject, with exact maxmin
acceptance analysis, a brute-force oracle, and seeded tournaments.
"""

from .analyzer import (
    ACCEPT,
    REJECT,
    MaxminReport,
    informed_guarantee,
    oracle_maxmin,
    truth_telling_gap,
    uninformed_maxmin,
)
from .contracts import (
    Contract,
    FIXED_MARGIN,
    GAMMA_COMPARATIVE,
    PAPER_EPSILON,
    SAFE_EPSILON,
    expected_payoff,
    make_prop1_contract,
    make_prop2_contracts,
    realized_payoff,
)
from .plausible import (
    Ball,
    ChebyshevResult,
    FiniteSet,
    chebyshev,
    diameter_sq,
    farthest_point,
    sample_from,
)
from .scoring import (
    brier,
    expected_score_closed_form,
    expected_score_direct,
    propriety_gap,
)
from .simplex import (
    Forecast,
    StateSpace,
    grid_enumerate,
    l2_dist_sq,
    project_to_simplex,
    sample_simplex_uniform,
    validate_forecast,
)
from .simulation import SimulationReport, run_tournament, sample_state
from .scenario import (
    ExpertSpec,
    Prop1Config,
    Prop2Config,
    Scenario,
    load_scenario,
    parse_scenario,
)

__version__ = "0.1.0"
