"""Constant-factor Nash social welfare solvers for XOS and subadditive
valuations, with brute-force exact oracles verifying every stage at desk
scale."""

from .concentration import (
    TailExperiment,
    expectation_lower,
    lower_tail,
    median_expectation,
    nsw_product_identity,
    two_sided_tail,
)
from .generators import GenSpec, generate
from .matching import extension_pi, initial_matching, product_matching, rematch_rho
from .model import (
    Allocation,
    ConfigSolution,
    Instance,
    InvariantViolation,
    ItemFractional,
    Matching,
    SchemaError,
    load_instance,
    nsw_value,
    serialize_instance,
    validate_valuation,
)
from .oracle import (
    ExactResult,
    exact_config_lp,
    exact_nsw,
    exact_scaled_welfare,
    scaled_optimum_check,
)
from .pipeline import PipelineParams, PipelineReport, run_subadditive, run_xos
from .relaxation import ConcaveExtValue, EgResult, concave_ext, solve_eg
from .rounding import (
    RngStream,
    RoundOutcome,
    cr_procedure,
    iterated_round,
    oracle_procedure,
    round_xos,
)
from .splitting import SubaddSplitOutput, XosSplitOutput, split_subadditive, split_xos
from .valuations import (
    Additive,
    BudgetedAdditive,
    CapExceeded,
    ExplicitTable,
    Valuation,
    Xos,
    demand,
    singleton_max,
    xos_clause,
)

__version__ = "0.1.0"

__all__ = [
    "Additive", "Allocation", "BudgetedAdditive", "CapExceeded",
    "ConcaveExtValue", "ConfigSolution", "EgResult",
    "ExactResult", "ExplicitTable", "GenSpec", "Instance",
    "InvariantViolation", "ItemFractional", "Matching", "PipelineParams",
    "PipelineReport", "RngStream", "RoundOutcome", "SchemaError",
    "SubaddSplitOutput", "TailExperiment", "Valuation", "Xos",
    "XosSplitOutput", "concave_ext", "cr_procedure", "demand",
    "exact_config_lp", "exact_nsw", "exact_scaled_welfare",
    "expectation_lower", "extension_pi", "generate",
    "initial_matching", "iterated_round", "load_instance", "lower_tail",
    "median_expectation", "nsw_product_identity", "nsw_value",
    "oracle_procedure", "product_matching", "rematch_rho", "round_xos",
    "run_subadditive", "run_xos", "scaled_optimum_check",
    "serialize_instance", "singleton_max", "solve_eg", "split_subadditive",
    "split_xos", "two_sided_tail",
    "validate_valuation", "xos_clause",
]
