"""Polar-code construction and analysis on the binary erasure channel."""

from .codec import (
    SimResult,
    exact_block_error,
    simulate,
    wilson_interval,
)
from .construction import (
    CodeSpec,
    ConstructionReport,
    construct_multipocket,
    load_codespec,
    save_codespec,
    select_classical,
    union_bound,
)
from .criterion import (
    CandidateH,
    binary_entropy,
    binary_entropy_inv,
    estimate_mu,
    iterate_g,
    mu_star_from_ratio,
    ratio_curve,
    sup_ratio,
)
from .erasure import (
    RootChannel,
    complement_log2,
    level_log_table,
)
from .errors import (
    DecodingInconsistencyError,
    DegenerateFitError,
    EmptyCodeError,
    InfeasibleTargetError,
    LevelTooLargeError,
    PolarBECError,
)
from .frontier import (
    CorollaryReport,
    FrontierPoint,
    conjectured_intercept,
    gamma_tradeoff,
    is_achievable,
    max_beta,
    trace_frontier,
    verify_corollaries,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateH",
    "CodeSpec",
    "ConstructionReport",
    "CorollaryReport",
    "DecodingInconsistencyError",
    "DegenerateFitError",
    "EmptyCodeError",
    "FrontierPoint",
    "InfeasibleTargetError",
    "LevelTooLargeError",
    "PolarBECError",
    "RootChannel",
    "SimResult",
    "binary_entropy",
    "binary_entropy_inv",
    "complement_log2",
    "conjectured_intercept",
    "construct_multipocket",
    "estimate_mu",
    "exact_block_error",
    "gamma_tradeoff",
    "is_achievable",
    "iterate_g",
    "level_log_table",
    "load_codespec",
    "max_beta",
    "mu_star_from_ratio",
    "ratio_curve",
    "save_codespec",
    "select_classical",
    "simulate",
    "sup_ratio",
    "trace_frontier",
    "union_bound",
    "verify_corollaries",
    "wilson_interval",
]
