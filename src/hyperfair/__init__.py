"""Exact fair division of [0, 1] with piecewise-constant preferences.

The package decides, constructs, and audits divisions whose sharing
matrix equals ``P + delta K`` for a target point ``p``, a zero-row-sum
goal matrix ``K``, and a positive margin ``delta``, entirely in
rational arithmetic.
"""

from .hyperfree import (
    DEFAULT_TOL,
    UNBOUNDED,
    UNCONSTRAINED,
    DeltaTooLargeError,
    GoalMatrix,
    HyperFreeCertificate,
    ImproperMatrixError,
    PropernessReport,
    TargetPoint,
    delta_bound,
    factor_delta_bound,
    is_proper,
    necessary_condition_check,
    spectral_delta_bound,
    stochastic_factor,
    target_matrix,
)
from .linalg import (
    RatMatrix,
    Rational,
    fmt,
    kernel_basis,
    pseudo_inverse,
    rank_factorization,
    rat,
    rref,
    smallest_eigenvalue,
)
from .measures import (
    Interval,
    MeasureProfile,
    StepDensity,
    common_refinement,
    gram_matrix,
    measure_of,
    measure_relations,
    rn_weights,
)
from .partition import (
    MAXIMIZE,
    InfeasibleError,
    Partition,
    PartitionError,
    WeightSystem,
    build_from_weights,
    build_via_stochastic_factor,
    factor_weights,
    solve_alpha,
)
from .relations import (
    Relation,
    RelationMatrix,
    RelationSolution,
    solve_relations,
    verify_relation_solution,
)
from .simplex import LpOutcome, LpProblem, LpStatus, certified_solve, simplex_solve
from .verify import (
    FairnessReport,
    SharingMatrix,
    check_fairness,
    rawlsian_distance,
    sharing_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "UNBOUNDED", "UNCONSTRAINED", "MAXIMIZE",
    "Rational", "RatMatrix", "rat", "fmt", "rref", "kernel_basis",
    "rank_factorization", "pseudo_inverse", "smallest_eigenvalue",
    "LpProblem", "LpOutcome", "LpStatus", "simplex_solve", "certified_solve",
    "Interval", "StepDensity", "MeasureProfile", "common_refinement",
    "measure_of", "rn_weights", "gram_matrix", "measure_relations",
    "TargetPoint", "GoalMatrix", "PropernessReport", "HyperFreeCertificate",
    "ImproperMatrixError", "DeltaTooLargeError", "is_proper", "target_matrix",
    "delta_bound", "factor_delta_bound", "spectral_delta_bound", "stochastic_factor",
    "necessary_condition_check",
    "Relation", "RelationMatrix", "RelationSolution", "solve_relations",
    "verify_relation_solution",
    "WeightSystem", "Partition", "PartitionError", "InfeasibleError",
    "build_from_weights", "solve_alpha", "build_via_stochastic_factor", "factor_weights",
    "SharingMatrix", "FairnessReport", "sharing_matrix", "check_fairness",
    "rawlsian_distance",
    "__version__",
]
