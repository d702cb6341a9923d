"""blockcs: block-sparse compressed sensing at desk scale.

Mixed l2/l1 recovery solvers, exact block restricted-isometry constants by
support enumeration, the sharp recovery condition delta < t/(4-t) with both
of its error bounds, the threshold-attaining counterexample construction,
and the combinatorial identities behind the analysis.
"""

from .blocks import (
    BlockApproximation,
    BlockSignal,
    BlockStructure,
    best_block_approx,
    block_support,
    mixed_norm_2_0,
    mixed_norm_2_1,
    mixed_norm_2_inf,
)
from .sensing import (
    SensingMatrix,
    SharpnessInstance,
    apply,
    gaussian_matrix,
    sharpness_instance,
    spread_kernel_matrix,
)
from .ric import (
    BoundReport,
    ConditionReport,
    EnumerationCapError,
    RicCertificate,
    check_condition,
    condition_threshold,
    error_bound_loose,
    error_bound_tight,
    exact_block_ric,
    ric_scaling_bound,
)
from .solvers import (
    InfeasibleProblemError,
    RecoveryResult,
    SolverConfig,
    block_soft_threshold,
    solve_noiseless,
    solve_noiseless_batch,
    solve_noisy,
    solve_noisy_batch,
)
from .oracle import (
    ConeCheckReport,
    HypothesisNotMetError,
    NoSparseFitError,
    OracleSolution,
    TailPowerReport,
    brute_force_l20,
    brute_force_l20_batch,
    cone_constraint_check,
    tail_power_check,
)
from .identities import (
    PolytopeDecomposition,
    disjoint_pair_energy_residual,
    polytope_decompose,
    subset_energy_difference_residual,
    subset_inner_product_residual,
    subset_sum_residual,
)
from .experiments import (
    CounterexampleReport,
    ExperimentSpec,
    TrialRecord,
    demo_counterexample,
    run_experiment,
)
from .seeding import generator, stream_key

__version__ = "0.1.0"

__all__ = [
    "BlockApproximation",
    "BlockSignal",
    "BlockStructure",
    "BoundReport",
    "ConditionReport",
    "ConeCheckReport",
    "CounterexampleReport",
    "EnumerationCapError",
    "ExperimentSpec",
    "HypothesisNotMetError",
    "InfeasibleProblemError",
    "NoSparseFitError",
    "OracleSolution",
    "PolytopeDecomposition",
    "RecoveryResult",
    "RicCertificate",
    "SensingMatrix",
    "SharpnessInstance",
    "SolverConfig",
    "TailPowerReport",
    "TrialRecord",
    "apply",
    "best_block_approx",
    "block_soft_threshold",
    "block_support",
    "brute_force_l20",
    "brute_force_l20_batch",
    "check_condition",
    "condition_threshold",
    "cone_constraint_check",
    "demo_counterexample",
    "disjoint_pair_energy_residual",
    "error_bound_loose",
    "error_bound_tight",
    "exact_block_ric",
    "gaussian_matrix",
    "generator",
    "mixed_norm_2_0",
    "mixed_norm_2_1",
    "mixed_norm_2_inf",
    "polytope_decompose",
    "ric_scaling_bound",
    "run_experiment",
    "sharpness_instance",
    "solve_noiseless",
    "solve_noiseless_batch",
    "solve_noisy",
    "solve_noisy_batch",
    "spread_kernel_matrix",
    "stream_key",
    "subset_energy_difference_residual",
    "subset_inner_product_residual",
    "subset_sum_residual",
    "tail_power_check",
]
