import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import blockcs
from blockcs import BlockStructure, SensingMatrix, SolverConfig, gaussian_matrix, sharpness_instance, apply
from blockcs import cli
from blockcs.cli import main
from blockcs.experiments import spec_from_json
from blockcs.serialize import matrix_to_json, save_json, signal_from_json, structure_to_json
from conftest import strip_wall_time


@pytest.fixture
def instance_files(tmp_path):
    inst = sharpness_instance(1.0, 2, 2, 6)
    matrix_path = tmp_path / "phi.json"
    obs_path = tmp_path / "b.json"
    save_json(matrix_to_json(inst.phi), matrix_path)
    b = apply(inst.phi, inst.x0)
    obs_path.write_text(json.dumps([float(v) for v in b]))
    return inst, str(matrix_path), str(obs_path), tmp_path


def test_recover_subcommand(instance_files):
    inst, matrix_path, obs_path, tmp_path = instance_files
    out = tmp_path / "result.json"
    code = main(["recover", "--matrix", matrix_path, "--obs", obs_path, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["objective"] <= 2 * np.sqrt(2) + 1e-6
    assert payload["feasibility_gap"] <= 1e-7
    estimate = signal_from_json(payload["estimate"])
    assert estimate.structure == inst.phi.structure


def test_recover_truth_off_the_matrix_structure_exit_one(instance_files, capsys):
    _, matrix_path, obs_path, tmp_path = instance_files
    truth = tmp_path / "truth.json"
    save_json({"structure": structure_to_json(BlockStructure.uniform(3, 4)), "coeffs": [0.0] * 12},
              truth)
    assert main(["recover", "--matrix", matrix_path, "--obs", obs_path, "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: truth must be a BlockSignal on the matrix's BlockStructure(")
    assert err.count("\n") == 1


def test_recover_nonconvergence_exit_code(instance_files):
    _, matrix_path, obs_path, tmp_path = instance_files
    out = tmp_path / "r.json"
    code = main([
        "recover", "--matrix", matrix_path, "--obs", obs_path,
        "--max-iters", "2", "--out", str(out),
    ])
    assert code == 3
    assert json.loads(out.read_text())["converged"] is False


def test_ric_subcommand(instance_files):
    _, matrix_path, _, tmp_path = instance_files
    out = tmp_path / "ric.json"
    code = main(["ric", "--matrix", matrix_path, "--order", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["delta"] - 1.0 / 3.0) <= 1e-10
    assert payload["supports_enumerated"] == 15
    assert payload["wall_time"] >= 0.0


def test_ric_invalid_order_exit_one(instance_files):
    _, matrix_path, _, _ = instance_files
    assert main(["ric", "--matrix", matrix_path, "--order", "99"]) == 1


def test_ric_over_enumeration_cap_exit_one(instance_files, capsys):
    _, matrix_path, _, _ = instance_files
    assert main(["ric", "--matrix", matrix_path, "--order", "3", "--cap", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ric_gram_matrix_that_overflows_exit_one(tmp_path, capsys, gram_overflow_phi):
    # the certificate would be delta = min_eig = max_eig = inf, which JSON cannot hold
    save_json(matrix_to_json(gram_overflow_phi), tmp_path / "phi.json")
    out = tmp_path / "ric.json"
    code = main(["ric", "--matrix", str(tmp_path / "phi.json"), "--order", "1", "--out", str(out)])
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err == ("error: the sensing matrix's scale (largest |entry| 1.34e+154) is out of the RIC "
                   "enumeration's range: a restricted Gram eigenvalue is not finite; rescale the "
                   "matrix toward unit entries\n")


def test_oracle_gram_matrix_that_overflows_prints_no_warning(tmp_path, capfd, gram_overflow_phi):
    # the QR pivots and, with b the matrix's own column, the empty support's residual
    # square past the largest double; numpy's overflow warnings stay inside the call
    save_json(matrix_to_json(gram_overflow_phi), tmp_path / "phi.json")
    column = gram_overflow_phi.entries[:, 0]
    for b, found in ((column * 1e-154, True), (column, False)):
        (tmp_path / "b.json").write_text(json.dumps(b.tolist()))
        out = tmp_path / "oracle.json"
        code = main(["oracle", "--matrix", str(tmp_path / "phi.json"), "--obs", str(tmp_path / "b.json"),
                     "--smax", "1", "--out", str(out)])
        assert code == 0 and json.loads(out.read_text())["found"] is found
        assert capfd.readouterr().err == ""


def test_recover_infeasible_exit_one(tmp_path, capsys):
    phi = SensingMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), BlockStructure.uniform(1, 2))
    save_json(matrix_to_json(phi), tmp_path / "phi.json")
    (tmp_path / "b.json").write_text(json.dumps([0.0, 0.0, 1.0]))
    code = main(["recover", "--matrix", str(tmp_path / "phi.json"), "--obs", str(tmp_path / "b.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("matrix, scale, shown", [
    (lambda: blockcs.spread_kernel_matrix(21, BlockStructure.uniform(2, 12), seed=1), 1e8,
     "the iterates are not finite"),
    (lambda: gaussian_matrix(4, BlockStructure.uniform(2, 3), seed=1), 1e100,
     "I + Phi^T Phi is not positive definite in floating point"),
], ids=["nan_iterates", "cholesky"])
def test_recover_matrix_scale_out_of_range_exit_one(tmp_path, capsys, matrix, scale, shown):
    phi = matrix()
    phi = SensingMatrix(phi.entries * scale, phi.structure)
    x = np.zeros(phi.num_cols)
    x[:2], x[-2:] = [1.0, 2.0], [-1.0, 0.5]
    save_json(matrix_to_json(phi), tmp_path / "phi.json")
    (tmp_path / "b.json").write_text(json.dumps((phi.entries @ x).tolist()))
    code = main(["recover", "--matrix", str(tmp_path / "phi.json"), "--obs", str(tmp_path / "b.json"),
                 "--max-iters", "1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the sensing matrix's scale (largest |entry| ")
    assert f"is out of the solver's range: {shown}; rescale" in err and err.count("\n") == 1


def test_recover_gram_matrix_that_overflows_exit_one(tmp_path, capsys, gram_overflow_phi):
    save_json(matrix_to_json(gram_overflow_phi), tmp_path / "phi.json")
    (tmp_path / "b.json").write_text(json.dumps((gram_overflow_phi.entries[:, 0] * 1e-154).tolist()))
    code = main(["recover", "--matrix", str(tmp_path / "phi.json"), "--obs", str(tmp_path / "b.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the sensing matrix's scale (largest |entry| 1.34e+154) is out of "
                          "the solver's range: I + Phi^T Phi is not finite; rescale ")
    assert err.count("\n") == 1


def test_malformed_json_exit_one(tmp_path, capsys):
    (tmp_path / "phi.json").write_text("{not json")
    assert main(["ric", "--matrix", str(tmp_path / "phi.json"), "--order", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_two(tmp_path):
    code = main(["ric", "--matrix", str(tmp_path / "nope.json"), "--order", "1"])
    assert code == 2


def test_usage_error_exit_one():
    assert main(["recover", "--matrix"]) == 1
    assert main(["bogus-subcommand"]) == 1


def test_bound_subcommand(tmp_path, capsys):
    out = tmp_path / "bound.json"
    code = main([
        "bound", "--t", "1", "--s", "2", "--delta", "0.25",
        "--rho", "0.1", "--tail", "0.0", "--variant", "both", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())["bounds"]
    assert payload[0]["variant"] == "tight"
    assert payload[1]["variant"] == "loose"
    assert payload[0]["bound"] <= payload[1]["bound"] + 1e-12


def test_bound_invalid_condition_exit_one():
    assert main(["bound", "--t", "1", "--s", "2", "--delta", "0.5"]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--rho", "nan"), ("--tail", "inf"), ("--rho", "-inf"), ("--t", "inf"),
])
def test_bound_non_finite_input_exit_one(flag, value, capsys):
    values = {"--rho": "0.1", "--tail": "0.0", flag: value}
    argv = ["bound", "--t", "1", "--s", "2", "--delta", "0.25"]
    assert main([*argv, *(f"{key}={val}" for key, val in values.items())]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_bound_t_whose_order_overflows_exit_one(capsys):
    assert main(["bound", "--t", "1e308", "--s", "10", "--delta", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_out_of_range" in err and "Traceback" not in err


def test_bound_takes_an_s_beyond_the_float_range(capsys):
    s = "1" + "0" * 400
    assert main(["bound", "--t", "1", "--s", s, "--delta", "0.1", "--rho", "0.1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = json.loads(captured.out)
    assert [rep["s"] for rep in reports] == [int(s)] * 2
    assert all(math.isfinite(rep["bound"]) and rep["bound"] > 0 for rep in reports)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(blockcs.__file__).parents[1]))
    argv = [sys.executable, "-m", "blockcs", "bound", "--t", "1", "--s", "2", "--delta", "0.25"]
    ok = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert ok.returncode == 0, ok.stderr
    assert [rep["variant"] for rep in json.loads(ok.stdout)] == ["tight", "loose"]
    bad = subprocess.run([*argv[:-1], "0.5"], env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == 1 and bad.stderr.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "-1.0", "inf"])
def test_oracle_bad_residual_tol_exit_one(instance_files, capsys, tol):
    _, matrix_path, obs_path, _ = instance_files
    argv = ["oracle", "--matrix", matrix_path, "--obs", obs_path, "--smax", "2"]
    assert main([*argv, f"--residual-tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "residual_tol" in captured.err


def test_oracle_subcommand(tmp_path):
    st_ = BlockStructure.uniform(2, 5)
    phi = gaussian_matrix(6, st_, seed=3)
    truth = np.zeros(10)
    truth[4:6] = [1.5, -2.0]
    b = phi.entries @ truth
    save_json(matrix_to_json(phi), tmp_path / "phi.json")
    (tmp_path / "b.json").write_text(json.dumps([float(v) for v in b]))
    out = tmp_path / "oracle.json"
    code = main([
        "oracle", "--matrix", str(tmp_path / "phi.json"),
        "--obs", str(tmp_path / "b.json"), "--smax", "2", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["found"] is True
    assert payload["support"] == [2]
    assert payload["sparsity"] == 1


def test_counterexample_subcommand(tmp_path, capsys):
    out = tmp_path / "cx.json"
    code = main([
        "counterexample", "--t", "1", "--s", "2", "--d", "2", "--l", "6",
        "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "threshold instance" in text
    payload = json.loads(out.read_text())
    assert abs(payload["delta"] - 1.0 / 3.0) <= 1e-10
    assert payload["non_unique"] is True


def test_counterexample_over_the_enumeration_cap_builds_nothing(capsys):
    l = 10**400
    with mock.patch("numpy.zeros", side_effect=AssertionError("an array was built")):
        assert main(["counterexample", "--t", "1", "--s", "2", "--d", "1", "--l", str(l)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: C({l}, 2) = {math.comb(l, 2)} block supports exceeds "
                            "the enumeration cap 1000000\n")


def test_counterexample_invalid_params_exit_one():
    assert main(["counterexample", "--t", "1", "--s", "2", "--d", "2", "--l", "4"]) == 1


def test_sweep_subcommand_and_determinism(tmp_path, capsys):
    config = {
        "kind": "RECOVERY_TRIALS",
        "seed": 4,
        "grid": {"l": 6, "d": 2, "m": 10, "s": 2, "ensemble": "gaussian",
                 "compute_ric": False, "trials": 4},
        "output_path": str(tmp_path / "sweep1"),
    }
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep2")]) == 0
    assert strip_wall_time((tmp_path / "sweep1.csv").read_text()) == strip_wall_time(
        (tmp_path / "sweep2.csv").read_text()
    )


def test_sweep_requires_config():
    assert main(["sweep"]) == 1


def test_sweep_missing_grid_key_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"kind": "RECOVERY_TRIALS", "grid": {"m": 8, "s": 2, "trials": 1},
                                    "output_path": str(tmp_path / "rt")}))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "solver": {"bogus": 1}},
    {"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "solver": {"max_iters": "x"}},
    {"kind": "PHASE_TRANSITION", "grid": {"l": 6, "m_values": 8, "s_values": [1], "trials": 1}},
    {"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "solver": {"max_iters": 2.5}},
    {"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "solver": {"tol": float("nan")}},
    {"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "solver": {"tol": 10**400}},
])
def test_sweep_mistyped_spec_exit_one(tmp_path, capsys, spec):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(dict(spec, output_path=str(tmp_path / "out"))))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_solver_config_fields_are_the_recover_flags_and_the_solver_spec_keys(instance_files):
    # a SolverConfig setting that neither the CLI nor a spec can set has no caller
    names = [field.name for field in dataclasses.fields(SolverConfig)]
    assert names == ["max_iters", "tol"]
    recover = cli._build_parser()._subparsers._group_actions[0].choices["recover"]
    flags = {action.dest: action.option_strings for action in recover._actions}
    assert [flags[name] for name in names] == [["--max-iters"], ["--tol"]]
    _, matrix_path, obs_path, _ = instance_files
    with mock.patch.object(cli, "solve_noisy", side_effect=ValueError("stop")) as solve:
        assert main(["recover", "--matrix", matrix_path, "--obs", obs_path, "--max-iters", "7",
                     "--tol", "0.5"]) == 1
    assert solve.call_args.args[3] == SolverConfig(max_iters=7, tol=0.5)
    with pytest.raises(ValueError) as err:
        spec_from_json({"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "solver": {"bogus": 1}})
    assert str(err.value).endswith(f"it reads {names}")


@pytest.mark.parametrize("key, value", [
    ("primal_tol", 1e-9), ("dual_tol", 1e-9), ("over_relaxation", 1.6), ("feasibility_tol", 1e-8),
    ("penalty", 1.0),
])
def test_sweep_refuses_a_solver_key_beyond_max_iters_and_tol(tmp_path, capsys, key, value):
    # each a setting SolverConfig once had, at its old default
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"kind": "IDENTITY_SUITE", "grid": {"trials": 1},
                                    "output_path": str(tmp_path / "out"), "solver": {key: value}}))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: experiment spec key 'solver' has no key {key!r}; "
                   "it reads ['max_iters', 'tol']\n")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("key, value", [
    ("seed", 2.7), ("seed", [1]), ("success_tol", [1]), ("success_tol", float("nan")),
    pytest.param("success_tol", 10**400, id="success_tol-400_digits"),
    ("solver", 5), ("output_path", None), ("output_path", 5), ("output_path", ""), ("sead", 1),
])
def test_sweep_bad_seed_or_success_tol_exit_one(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)  # where an output_path of None would write None.csv
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"kind": "IDENTITY_SUITE", "grid": {"trials": 1},
                                    "output_path": str(tmp_path / "ids"), key: value}))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_subcommands_reject_flags_they_do_not_read(instance_files):
    _, matrix_path, _, _ = instance_files
    assert main(["bound", "--t", "1", "--s", "2", "--delta", "0.25", "--seed", "9"]) == 1
    assert main(["ric", "--matrix", matrix_path, "--order", "1", "--config", "x"]) == 1


def test_recover_negative_rho_exit_one(instance_files, capsys):
    _, matrix_path, obs_path, tmp_path = instance_files
    out = tmp_path / "r.json"
    argv = ["recover", "--matrix", matrix_path, "--obs", obs_path, "--out", str(out)]
    assert main([*argv, "--rho=-0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rho" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_recover_non_finite_tol_exit_one(instance_files, capsys, tol):
    _, matrix_path, obs_path, _ = instance_files
    argv = ["recover", "--matrix", matrix_path, "--obs", obs_path]
    assert main([*argv, "--tol", tol]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tol must be") and "Traceback" not in err


def test_recover_non_finite_observation_exit_one(instance_files, capsys):
    _, matrix_path, _, tmp_path = instance_files
    obs = tmp_path / "nan.json"
    obs.write_text("[" + ", ".join(["0.0"] * 11 + ["NaN"]) + "]")
    assert main(["recover", "--matrix", matrix_path, "--obs", str(obs)]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("obs", [[0.0] * 11 + [[0.0, 1.0]], ["0.0"] * 12, [[0.0, 0.0]] * 12],
                         ids=["ragged", "strings", "two_columns"])
@pytest.mark.parametrize("command", [["recover"], ["oracle", "--smax", "2"]], ids=["recover", "oracle"])
def test_bad_observation_exit_one(instance_files, capsys, command, obs):
    _, matrix_path, _, tmp_path = instance_files
    (tmp_path / "bad.json").write_text(json.dumps(obs))
    assert main([*command, "--matrix", matrix_path, "--obs", str(tmp_path / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: observation must be a finite real array of shape (12,), got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [["recover"], ["oracle", "--smax", "2"]], ids=["recover", "oracle"])
def test_observation_whose_squares_overflow_exit_one(instance_files, capsys, command):
    _, matrix_path, _, tmp_path = instance_files
    (tmp_path / "huge.json").write_text(json.dumps([1e308] * 12))
    assert main([*command, "--matrix", matrix_path, "--obs", str(tmp_path / "huge.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: observation must have a finite squared norm, got entries as ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [["recover"], ["ric", "--order", "1"]], ids=["recover", "ric"])
def test_matrix_whose_squares_overflow_exit_one(instance_files, capsys, command):
    inst, _, obs_path, tmp_path = instance_files
    big = tmp_path / "big.json"
    save_json({**matrix_to_json(inst.phi), "data": (inst.phi.entries * 1e200).ravel().tolist()}, big)
    obs = ["--obs", obs_path] if command == ["recover"] else []
    assert main([*command, "--matrix", str(big), *obs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entries must have a finite squared norm, got entries as ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("rows, message", [
    ("1,2,3,4\n5,x,7,8\n", "phi.csv, row 2: a cell is not a number"),
    ("1,2,3,4\n5,6\n", "entries must be a finite real array of shape (*, 4), got a ragged sequence"),
], ids=["not_a_number", "ragged"])
def test_bad_csv_matrix_exit_one(tmp_path, capsys, rows, message):
    save_json(structure_to_json(BlockStructure.uniform(2, 2)), tmp_path / "st.json")
    (tmp_path / "phi.csv").write_text(rows)
    argv = ["ric", "--matrix", str(tmp_path / "phi.csv"), "--structure", str(tmp_path / "st.json")]
    assert main([*argv, "--order", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip("\n").endswith(message) and err.count("\n") == 1


def test_sweep_rejects_threads_flag(tmp_path):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"kind": "IDENTITY_SUITE", "grid": {"trials": 1},
                                    "output_path": str(tmp_path / "ids")}))
    assert main(["sweep", "--config", str(cfg_path), "--threads", "2"]) == 1


def test_verify_identities_subcommand(tmp_path, capsys):
    out = tmp_path / "ids"
    code = main([
        "verify-identities", "--seed", "2", "--trials", "20",
        "--max-blocks", "5", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["all_below_1e-10"] is True
    assert (tmp_path / "ids.json").exists()
    assert (tmp_path / "ids.csv").exists()


def test_verify_identities_over_the_enumeration_cap_runs_no_trial(tmp_path, capsys):
    # 16 blocks have C(16, 5) * C(11, 5) = 2018016 disjoint pairs, over the cap
    with mock.patch.object(cli, "run_experiment") as run:
        assert main(["verify-identities", "--max-blocks", "16", "--out", str(tmp_path / "ids")]) == 1
    run.assert_not_called()
    err = capsys.readouterr().err
    assert err == ("error: IDENTITY_SUITE grid key 'max_blocks': value must be an integer in "
                   "[2, 15], got 16\n")
    assert not list(tmp_path.iterdir())


def test_recover_csv_matrix_with_sidecar(tmp_path):
    st_ = BlockStructure.uniform(2, 2)
    entries = np.eye(4)
    (tmp_path / "phi.csv").write_text(
        "\n".join(",".join(f"{v:.17g}" for v in row) for row in entries) + "\n"
    )
    save_json(structure_to_json(st_), tmp_path / "st.json")
    (tmp_path / "b.json").write_text(json.dumps([1.0, 2.0, 3.0, 4.0]))
    out = tmp_path / "res.json"
    code = main([
        "recover", "--matrix", str(tmp_path / "phi.csv"),
        "--structure", str(tmp_path / "st.json"),
        "--obs", str(tmp_path / "b.json"), "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    np.testing.assert_allclose(payload["estimate"]["coeffs"], [1, 2, 3, 4], atol=1e-6)
