"""Costly flexible information acquisition with finite states and actions.

Solve the agent's optimal stochastic choice rule for a utility and an
information cost, certify whether an observed rule is (uniquely)
rationalizable, recover rationalizing utilities up to their nuisance
term, and predict behavior across all submenus.
"""

from .costs import (
    AffinePsi,
    ChiSquareDivergence,
    CustomDivergence,
    ExpPsi,
    IdentityPsi,
    KLDivergence,
    MaxOverSet,
    MutualInformation,
    PosteriorSeparable,
    PowerPsi,
    Quadratic,
    Transformed,
    cost_eval,
    derivative_basis,
)
from .inverse import (
    FOCCertificate,
    RecoveredUtility,
    UniquenessReport,
    certify,
    find_equivalent,
    rationalize,
    recover_utility,
    unique_check,
)
from .menus import SubmenuForecast, forecast_consistency, predict_submenus
from .model import (
    Belief,
    InvalidInputError,
    Menu,
    Prior,
    SCR,
    SimpleInfoPolicy,
    submenu,
    validate,
)
from .revealed import (
    BlackwellResult,
    RevealedPolicy,
    blackwell_geq,
    kappa,
    mix_policies,
    reveal,
)
from .solver import (
    GridOracleResult,
    SolveOptions,
    SolveResult,
    SolverError,
    grid_oracle,
    solve,
    solve_mi,
    solve_ps,
    value_convexity_probe,
)

__version__ = "0.1.0"

__all__ = [
    "AffinePsi", "Belief", "BlackwellResult", "ChiSquareDivergence",
    "CustomDivergence", "ExpPsi", "FOCCertificate", "GridOracleResult",
    "IdentityPsi", "InvalidInputError", "KLDivergence", "MaxOverSet", "Menu",
    "MutualInformation", "PosteriorSeparable", "PowerPsi", "Prior",
    "Quadratic", "RecoveredUtility", "RevealedPolicy", "SCR",
    "SimpleInfoPolicy", "SolveOptions", "SolveResult", "SolverError",
    "SubmenuForecast", "Transformed", "UniquenessReport", "blackwell_geq",
    "certify", "cost_eval", "derivative_basis", "find_equivalent",
    "forecast_consistency", "grid_oracle", "kappa", "mix_policies",
    "predict_submenus", "rationalize", "recover_utility", "reveal", "solve",
    "solve_mi", "solve_ps", "submenu", "unique_check", "validate",
    "value_convexity_probe",
]
