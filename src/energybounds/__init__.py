"""Sharp bounds on the pairwise potential energy of positive reals.

For x_1, ..., x_n >= 0 the energy is E = sum_{i<j} (x_i - x_j)^2
= n*S_2 - S_1^2.  This package computes the attainable extremes of E under
either a trace+norm constraint (S_1 and the product fixed) or a power-sum
constraint (S_1 and S_r fixed), the companion reverse AM-GM and power-sum
comparisons, and discriminant-based lower bounds for integer polynomials,
all cross-checked by brute-force oracles and exact integer arithmetic.
"""

from . import polylab
from .bounds import (
    BoundReport,
    Formula,
    HypothesisViolationError,
    PotentialSpec,
    SiegelConstants,
    UVValues,
    energy_lower_from_disc,
    energy_max_power,
    energy_min_power,
    energy_min_trace_norm,
    potential_lower_from_disc,
    power_sum_upper,
    reverse_amgm,
    siegel_constants,
    uv_values,
)
from .core import (
    Configuration,
    EnergyReport,
    FeasibilityError,
    NTilde,
    PowerSumConstraints,
    SearchFailedError,
    TraceNormConstraints,
    a_factor_log,
    energy,
    energy_report,
    hyperfactorial,
    ntilde,
    power_sum,
    power_sums_from_coeffs,
)
from .oracle import (
    ConfigKind,
    CriticalConfig,
    SearchExtrema,
    TraceNormExtrema,
    TwoValueExtrema,
    extrema_search,
    extrema_trace_norm,
    extrema_two_value,
)
from .rootfind import (
    AlphaRoot,
    Branch,
    BranchExistence,
    BranchMissingError,
    branch_exists,
    solve_powersum_alpha,
    solve_trace_norm_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaRoot",
    "BoundReport",
    "Branch",
    "BranchExistence",
    "BranchMissingError",
    "ConfigKind",
    "Configuration",
    "CriticalConfig",
    "EnergyReport",
    "FeasibilityError",
    "Formula",
    "HypothesisViolationError",
    "NTilde",
    "PotentialSpec",
    "PowerSumConstraints",
    "SearchFailedError",
    "SearchExtrema",
    "SiegelConstants",
    "TraceNormConstraints",
    "TraceNormExtrema",
    "TwoValueExtrema",
    "UVValues",
    "a_factor_log",
    "branch_exists",
    "energy",
    "energy_lower_from_disc",
    "energy_max_power",
    "energy_min_power",
    "energy_min_trace_norm",
    "energy_report",
    "extrema_search",
    "extrema_trace_norm",
    "extrema_two_value",
    "hyperfactorial",
    "ntilde",
    "polylab",
    "potential_lower_from_disc",
    "power_sum",
    "power_sum_upper",
    "power_sums_from_coeffs",
    "reverse_amgm",
    "siegel_constants",
    "solve_powersum_alpha",
    "solve_trace_norm_alpha",
    "uv_values",
    "__version__",
]
