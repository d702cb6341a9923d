import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


# Run in a fresh interpreter: this test process has scipy loaded by other test modules.
_WITHOUT_A_SOLVE = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import blockcs, blockcs.cli
    from blockcs.serialize import matrix_to_json, save_json

    tmp = Path(sys.argv[1])
    inst = blockcs.sharpness_instance(1.0, 2, 2, 6)
    b = blockcs.apply(inst.phi, inst.x0)
    delta = blockcs.exact_block_ric(inst.phi, 2).delta
    blockcs.brute_force_l20(inst.phi, b, 2)
    blockcs.check_condition(0.2, 1.0, 2)
    blockcs.error_bound_tight(1.0, 2, 0.2, 0.1, 0.1)
    blockcs.error_bound_loose(1.0, 2, 0.2, 0.1, 0.1)
    blockcs.subset_energy_difference_residual(inst.phi, inst.x0, 2, 3)
    save_json(matrix_to_json(inst.phi), tmp / "phi.json")
    (tmp / "b.json").write_text(json.dumps(b.tolist()))
    for argv in (["bound", "--t", "1", "--s", "2", "--delta", "0.2"],
                 ["ric", "--matrix", str(tmp / "phi.json"), "--order", "2"],
                 ["oracle", "--matrix", str(tmp / "phi.json"), "--obs", str(tmp / "b.json"),
                  "--smax", "2"]):
        assert blockcs.cli.main([*argv, "--out", str(tmp / "out.json")]) == 0, argv
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    blockcs.solve_noiseless(inst.phi, b)
    print("scipy.linalg" in sys.modules)
""")


def test_scipy_is_loaded_by_the_first_solve_only(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(blockcs.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_A_SOLVE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
