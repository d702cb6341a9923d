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
_IMPORT_CONTRACT = textwrap.dedent("""
    import contextlib, io, json, sys
    from pathlib import Path

    import numpy as np

    import blockcs, blockcs.cli
    from blockcs.serialize import matrix_to_json, save_json

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert blockcs.cli.main([*argv, "--out", str(tmp / "out")]) == 0, argv

    tmp = Path(sys.argv[1])
    inst = blockcs.sharpness_instance(1.0, 2, 2, 6)
    phi, b = inst.phi, blockcs.apply(inst.phi, inst.x0)
    matrix, obs = str(tmp / "phi.json"), str(tmp / "b.json")
    save_json(matrix_to_json(phi), matrix)
    Path(obs).write_text(json.dumps(b.tolist()))
    delta = blockcs.exact_block_ric(phi, 2).delta
    blockcs.brute_force_l20(phi, b, 2)
    blockcs.check_condition(0.2, 1.0, 2)
    blockcs.error_bound_tight(1.0, 2, 0.2, 0.1, 0.1)
    blockcs.error_bound_loose(1.0, 2, 0.2, 0.1, 0.1)
    blockcs.subset_energy_difference_residual(phi, inst.x0, 2, 3)
    cli("bound", "--t", "1", "--s", "2", "--delta", "0.2")
    cli("ric", "--matrix", matrix, "--order", "2")
    cli("oracle", "--matrix", matrix, "--obs", obs, "--smax", "2")
    cli("verify-identities")
    print(scipy_modules())

    # every solve path: the LAPACK wrapper only
    first = blockcs.solve_noiseless(phi, b)
    blockcs.solve_noisy_batch(phi, np.column_stack([b, b]), [0.0, 1e-3])
    cli("recover", "--matrix", matrix, "--obs", obs)
    cli("counterexample", "--t", "1", "--s", "2", "--d", "2", "--l", "6")
    spec = {"kind": "PHASE_TRANSITION", "seed": 3,
            "grid": {"l": 6, "d": 2, "m_values": [6, 10], "s_values": [1, 2], "trials": 1}}
    (tmp / "spec.json").write_text(json.dumps(spec))
    cli("sweep", "--config", str(tmp / "spec.json"))
    print("scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules)

    # scipy.linalg, imported afterwards, runs on the very same LAPACK functions
    import scipy.linalg
    lapack = sys.modules["scipy.linalg._flapack"]
    gram = np.eye(phi.num_cols) + phi.entries.T @ phi.entries
    chol, lower = scipy.linalg.cho_factor(gram)
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (chol,))
    print(potrf is lapack.dpotrf, potrs is lapack.dpotrs, scipy.linalg.lapack.dpotrs is potrs)
    print(lapack.dpotrf(gram, lower=0, clean=0)[0].tobytes() == chol.tobytes())
    second = blockcs.solve_noiseless(phi, b)
    print(second.estimate.coeffs.tobytes() == first.estimate.coeffs.tobytes()
          and second.iterations == first.iterations
          and (second.primal_residual, second.dual_residual) == (first.primal_residual,
                                                                  first.dual_residual))
""")


def test_solves_load_the_lapack_wrapper_and_never_scipy_linalg(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(blockcs.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CONTRACT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False True", "True True True", "True", "True"]
