import importlib

import blockcs

EXPORTED = {
    "BlockApproximation", "BlockSignal", "BlockStructure", "BoundReport", "ConditionReport",
    "ConeCheckReport", "CounterexampleReport", "EnumerationCapError", "ExperimentSpec",
    "HypothesisNotMetError", "InfeasibleProblemError", "NoSparseFitError", "OracleSolution",
    "PolytopeDecomposition", "RecoveryResult", "RicCertificate", "SensingMatrix",
    "SharpnessInstance", "SolverConfig", "TailPowerReport", "TrialRecord", "apply",
    "best_block_approx", "block_soft_threshold", "block_support", "brute_force_l20",
    "brute_force_l20_batch", "check_condition", "condition_threshold", "cone_constraint_check",
    "demo_counterexample", "disjoint_pair_energy_residual", "error_bound_loose",
    "error_bound_tight", "exact_block_ric", "gaussian_matrix", "generator", "mixed_norm_2_0",
    "mixed_norm_2_1", "mixed_norm_2_inf", "polytope_decompose", "ric_scaling_bound",
    "run_experiment", "sharpness_instance", "solve_noiseless", "solve_noiseless_batch",
    "solve_noisy", "solve_noisy_batch", "spread_kernel_matrix", "stream_key",
    "subset_energy_difference_residual", "subset_inner_product_residual", "subset_sum_residual",
    "tail_power_check",
}


def test_package_exports_each_public_name_once():
    assert len(EXPORTED) == 54
    assert sorted(blockcs.__all__) == sorted(EXPORTED)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from blockcs import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


def test_each_export_is_the_object_of_its_defining_module():
    for name in blockcs.__all__:
        obj = getattr(blockcs, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("blockcs.") and getattr(module, name) is obj, name
        assert name in module.__all__, name
