"""Golden outputs: every experiment kind on a small grid writes exactly the
CSV (wall_time column removed) and JSON stored under tests/data/golden/, and
the `recover`, `ric` (wall_time removed) and `oracle` subcommands write
exactly the JSON stored there for one spread-kernel instance, as `bound`
does for one admissible (t, s, delta) with nonzero rho and tail.  Exact block
RIC certificates and spread-kernel matrix entries over a seeded grid of
uniform and ragged shapes match `ric_certificates.json` bit for bit, and the
batch solver's outputs on a grid of noiseless, noisy and mixed-radius batches
match the sha256 digests in `admm_outputs.json`, and the brute-force oracle's
outputs on a grid of exact, tied, rank-deficient and no-fit cases match the
sha256 digests in `oracle_outputs.json`.

Regenerate with `PYTHONPATH=src python tests/test_golden.py` only when an
output change is intended.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from blockcs import (
    BlockSignal,
    BlockStructure,
    ExperimentSpec,
    NoSparseFitError,
    SensingMatrix,
    SolverConfig,
    brute_force_l20,
    exact_block_ric,
    gaussian_matrix,
    generator,
    mixed_norm_2_1,
    run_experiment,
    sharpness_instance,
    solve_noisy_batch,
    spread_kernel_matrix,
)
from blockcs.cli import main
from blockcs.serialize import matrix_to_json, save_json, signal_to_json
from conftest import strip_wall_time

GOLDEN = Path(__file__).parent / "data" / "golden"

SPECS = {
    "RECOVERY_TRIALS": (5, {"l": 6, "d": 2, "m": 11, "s": 2, "ensemble": "spread_kernel",
                            "rho": [0.0, 0.01], "trials": 2}),
    "PHASE_TRANSITION": (42, {"l": 8, "d": 2, "s_values": [1, 2], "m_values": [6, 10],
                              "trials": 2, "compute_ric": True}),
    "COUNTEREXAMPLE": (1, {"t": 1.0, "s": 2, "d": 2, "l": 6}),
    "RIC_SWEEP": (2, {"l": 6, "d": 2, "m": 9, "orders": [1, 2], "matrices": 2,
                      "ensemble": "spread_kernel"}),
    "IDENTITY_SUITE": (7, {"trials": 10, "max_blocks": 5}),
}


def _outputs(kind: str, out_dir: Path) -> tuple[str, str]:
    seed, grid = SPECS[kind]
    spec = ExperimentSpec(kind=kind, seed=seed, grid=grid, output_path=str(out_dir / kind.lower()))
    report = run_experiment(spec)
    return strip_wall_time(Path(report.csv_path).read_text()), Path(report.json_path).read_text()


# golden file name -> subcommand arguments after the instance's file paths are filled in
CLI_COMMANDS = {
    "cli_recover": ["recover", "--matrix", "{phi}", "--obs", "{b}", "--truth", "{x}"],
    "cli_recover_noisy": ["recover", "--matrix", "{phi}", "--obs", "{b}", "--rho", "0.05"],
    "cli_ric": ["ric", "--matrix", "{phi}", "--order", "2"],
    "cli_oracle_found": ["oracle", "--matrix", "{phi}", "--obs", "{b}", "--smax", "2"],
    "cli_oracle_not_found": ["oracle", "--matrix", "{phi}", "--obs", "{b}", "--smax", "1"],
    "cli_bound": ["bound", "--t", "0.9", "--s", "3", "--delta", "0.2", "--rho", "0.05",
                  "--tail", "0.3", "--variant", "both"],
}


def _cli_output(name: str, work_dir: Path) -> str:
    """The subcommand's JSON on a 2-block-sparse signal under a 10 x 12 spread-kernel matrix."""
    structure = BlockStructure.uniform(2, 6)
    phi = spread_kernel_matrix(10, structure, 3)
    truth = np.zeros(structure.total_dim)
    truth[2:4] = [1.5, -2.0]
    truth[8:10] = [0.5, 1.0]
    paths = {key: str(work_dir / f"{key}.json") for key in ("phi", "b", "x", "out")}
    save_json(matrix_to_json(phi), paths["phi"])
    save_json([float(v) for v in phi.entries @ truth], paths["b"])
    save_json(signal_to_json(BlockSignal(truth, structure)), paths["x"])
    argv = [arg.format(**paths) for arg in CLI_COMMANDS[name]]
    assert main([*argv, "--out", paths["out"]]) == 0
    payload = json.loads(Path(paths["out"]).read_text())
    payload.pop("wall_time", None)
    return json.dumps(payload, indent=2) + "\n"


# (block lengths, rows) of the certified matrices: uniform and ragged, with
# C(l, s) from 1 to 495 supports at orders 1-4
RIC_SHAPES = (
    ((2,) * 6, 9),
    ((1,) * 8, 6),
    ((3,) * 5, 10),
    ((1, 2, 3) * 2, 8),
    ((3, 2, 1, 2), 6),
    ((2, 1, 1, 3, 2), 7),
    ((1, 2, 3) * 4, 16),
)
RIC_SEEDS = (0, 1, 2)
# (t, s, d, l) of the threshold instances, certified at order t*s
RIC_SHARP = ((1.0, 2, 2, 6), (1.0, 3, 1, 8), (2.0 / 3.0, 3, 2, 8))


def _ric_certificates() -> str:
    """Every certificate field, and the sha256 of each spread-kernel matrix's
    entries, over the RIC grid."""
    records = []

    def certify(name, phi, orders, **key):
        for order in orders:
            records.append({"matrix": name, **key, **asdict(exact_block_ric(phi, order))})

    for lengths, m in RIC_SHAPES:
        structure = BlockStructure(lengths)
        orders = range(1, min(4, structure.num_blocks) + 1)
        for seed in RIC_SEEDS:
            key = {"lengths": list(lengths), "m": m, "seed": seed}
            certify("gaussian", gaussian_matrix(m, structure, seed), orders, **key)
            phi = spread_kernel_matrix(m, structure, seed)
            digest = hashlib.sha256(np.ascontiguousarray(phi.entries).tobytes()).hexdigest()
            records.append({"matrix": "spread_kernel", **key, "entries_sha256": digest})
            certify("spread_kernel", phi, orders, **key)
    for t, s, d, l in RIC_SHARP:
        certify("sharpness", sharpness_instance(t, s, d, l).phi, [round(t * s)], t=t, s=s, d=d, l=l)
    return "[\n" + ",\n".join(json.dumps(record) for record in records) + "\n]\n"


# case name -> (ensemble, block lengths, rows, seed, noise radius per column, max_iters).
# Every matrix has fewer rows than columns, so each observation is feasible.
# In `noiseless_12_gaussian_d1` some columns' penalties rebalance up and others'
# down; every 12-column noisy or mixed case rebalances up; the `unconverged_*`
# cases stop at max_iters, the second after 4 of its 12 columns have converged.
_MIXED_RHOS = (0.0, 1e-3, 1e-2, 1e-1) * 3
ADMM_CASES = {
    "noiseless_1_gaussian_d1": ("gaussian", (1,) * 8, 6, 1, (0.0,), 50_000),
    "noiseless_12_gaussian_d1": ("gaussian", (1,) * 8, 6, 1, (0.0,) * 12, 50_000),
    "noiseless_1_spread_d2": ("spread_kernel", (2,) * 8, 11, 2, (0.0,), 50_000),
    "noiseless_12_spread_ragged": ("spread_kernel", (1, 2, 3, 2, 1, 3), 8, 4, (0.0,) * 12, 50_000),
    "noisy_1_spread_d2": ("spread_kernel", (2,) * 8, 11, 2, (1e-2,), 50_000),
    "noisy_12_spread_d2": ("spread_kernel", (2,) * 8, 11, 2, (1e-2,) * 12, 50_000),
    "noisy_1_gaussian_ragged": ("gaussian", (1, 2, 3, 2, 1, 3), 8, 5, (1e-1,), 50_000),
    "noisy_12_gaussian_d3": ("gaussian", (3,) * 8, 16, 3, (1e-2,) * 12, 50_000),
    "mixed_12_gaussian_d2": ("gaussian", (2,) * 8, 11, 1, _MIXED_RHOS, 50_000),
    "mixed_12_spread_d3": ("spread_kernel", (3,) * 8, 16, 3, _MIXED_RHOS, 50_000),
    "mixed_12_spread_ragged": ("spread_kernel", (1, 2, 3, 2, 1, 3), 8, 4, _MIXED_RHOS, 50_000),
    "unconverged_3_spread_ragged": ("spread_kernel", (1, 2, 3, 2, 1, 3), 8, 4, (0.0,) * 3, 40),
    "unconverged_12_gaussian_d2": ("gaussian", (2,) * 8, 11, 2, _MIXED_RHOS, 400),
}


def _admm_case(name: str):
    """(phi, observations, radii, config, truths) of one batch solve: 2-block-sparse
    signals, each observation moved by a random vector of norm rho/2 off its exact value."""
    ensemble, lengths, m, seed, rhos, max_iters = ADMM_CASES[name]
    structure = BlockStructure(lengths)
    make = gaussian_matrix if ensemble == "gaussian" else spread_kernel_matrix
    phi = make(m, structure, seed)
    rng = generator(seed, len(rhos))
    X = np.zeros((structure.total_dim, len(rhos)))
    for j in range(len(rhos)):
        for i in rng.choice(structure.num_blocks, size=2, replace=False):
            sl = structure.block_slice(int(i))
            X[sl, j] = rng.standard_normal(sl.stop - sl.start)
    E = rng.standard_normal((m, len(rhos)))
    E *= 0.5 * np.asarray(rhos) / np.linalg.norm(E, axis=0)
    truths = [BlockSignal(X[:, j], structure) for j in range(len(rhos))]
    return phi, phi.entries @ X + E, rhos, SolverConfig(max_iters=max_iters), truths


def _admm_digest(name: str) -> str:
    """sha256 over (estimates, iterations, primal, dual, converged) of one batch solve."""
    phi, B, rhos, config, _ = _admm_case(name)
    results = solve_noisy_batch(phi, B, rhos, config)
    digest = hashlib.sha256()
    for part in (
        np.stack([r.estimate.coeffs for r in results], axis=1),
        np.array([r.iterations for r in results], dtype=np.int64),
        np.array([r.primal_residual for r in results]),
        np.array([r.dual_residual for r in results]),
        np.array([r.converged for r in results]),
    ):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _admm_outputs() -> str:
    return json.dumps({name: _admm_digest(name) for name in ADMM_CASES}, indent=2) + "\n"


# case name -> (matrix, block lengths, rows, seed, true support, s_max, noise norm).
# `integer` matrices have small integer entries and integer coefficients, so
# residuals tie exactly or differ only by rounding; `duplicated` copies block 0
# into block 1, `rank_deficient` makes one column of block 2 twice the other,
# and `zero_block` zeroes block 3.  A noise norm above the default tolerance
# leaves no fit within s_max.
ORACLE_CASES = {
    "gaussian_uniform_s2": ("gaussian", (2,) * 6, 9, 1, (1, 4), 2, 0.0),
    "gaussian_uniform_s3_smax3": ("gaussian", (2,) * 6, 12, 2, (0, 2, 5), 3, 0.0),
    "gaussian_ragged_s2_smax3": ("gaussian", (1, 2, 3, 2, 1, 3), 8, 3, (2, 4), 3, 0.0),
    "spread_ragged_s1": ("spread_kernel", (1, 2, 3, 2, 1, 3), 8, 4, (3,), 2, 0.0),
    "zero_observation_smax0": ("gaussian", (2,) * 4, 5, 5, (), 0, 0.0),
    "one_block_smax0_no_fit": ("gaussian", (2,) * 4, 5, 5, (1,), 0, 0.0),
    "duplicated_tie_s1": ("duplicated", (2,) * 5, 6, 6, (1,), 2, 0.0),
    "duplicated_tie_s2": ("duplicated", (2,) * 5, 6, 6, (1, 3), 2, 0.0),
    "integer_square_ties": ("integer", (2,) * 5, 4, 7, (1, 3), 2, 0.0),
    "integer_ragged_smax3": ("integer", (1, 2, 1, 2, 1), 3, 8, (0, 3), 3, 0.0),
    "integer_uniform_s1": ("integer", (2,) * 6, 7, 9, (4,), 3, 0.0),
    "rank_deficient_s1": ("rank_deficient", (2,) * 5, 7, 10, (2,), 2, 0.0),
    "rank_deficient_s2": ("rank_deficient", (2,) * 5, 7, 10, (0, 2), 2, 0.0),
    "zero_block_s2": ("zero_block", (2,) * 5, 7, 11, (1, 3), 2, 0.0),
    "zero_block_no_fit": ("zero_block", (2,) * 5, 7, 11, (1, 3), 1, 1e-3),
    "underdetermined_ties": ("gaussian", (2,) * 4, 3, 12, (0, 1), 2, 0.0),
    "noisy_no_fit_s2": ("spread_kernel", (2,) * 6, 10, 13, (1, 4), 2, 1e-3),
    "noisy_no_fit_ragged": ("gaussian", (1, 2, 3, 2, 1, 3), 8, 14, (0, 5), 1, 1e-2),
    "noisy_within_tol": ("spread_kernel", (2,) * 6, 10, 15, (2, 3), 2, 1e-10),
}


def _oracle_case(name: str):
    """(phi, b, s_max) of one oracle case."""
    kind, lengths, m, seed, support, s_max, noise = ORACLE_CASES[name]
    structure = BlockStructure(lengths)
    rng = generator(seed, 3)
    if kind == "integer":
        entries = rng.integers(-2, 3, size=(m, structure.total_dim)).astype(float)
    else:
        make = spread_kernel_matrix if kind == "spread_kernel" else gaussian_matrix
        entries = make(m, structure, seed).entries.copy()
    if kind == "duplicated":
        entries[:, structure.block_slice(1)] = entries[:, structure.block_slice(0)]
    elif kind == "rank_deficient":
        first = structure.block_slice(2).start
        entries[:, first + 1] = 2.0 * entries[:, first]
    elif kind == "zero_block":
        entries[:, structure.block_slice(3)] = 0.0
    x = np.zeros(structure.total_dim)
    for i in support:
        sl = structure.block_slice(i)
        width = sl.stop - sl.start
        x[sl] = rng.integers(1, 4, width) if kind == "integer" else rng.standard_normal(width)
    b = entries @ x
    if noise:
        e = rng.standard_normal(m)
        b = b + noise * e / np.linalg.norm(e)
    return SensingMatrix(entries, structure), b, s_max


def _oracle_digest(outcome) -> str:
    """sha256 over (estimate, support, sparsity, residual, supports_searched) of a
    fit, or over (best_residual, message) of a NoSparseFitError."""
    digest = hashlib.sha256()
    if isinstance(outcome, NoSparseFitError):
        digest.update(np.float64(outcome.best_residual).tobytes())
        digest.update(str(outcome).encode())
    else:
        digest.update(np.ascontiguousarray(outcome.estimate.coeffs).tobytes())
        digest.update(np.array(outcome.support, dtype=np.int64).tobytes())
        counts = [outcome.sparsity, outcome.supports_searched]
        digest.update(np.array(counts, dtype=np.int64).tobytes())
        digest.update(np.float64(outcome.residual).tobytes())
    return digest.hexdigest()


def _oracle_outputs() -> str:
    digests = {}
    for name in ORACLE_CASES:
        try:
            outcome = brute_force_l20(*_oracle_case(name))
        except NoSparseFitError as err:
            outcome = err
        digests[name] = _oracle_digest(outcome)
    return json.dumps(digests, indent=2) + "\n"


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_golden_outputs(kind, tmp_path):
    csv_text, json_text = _outputs(kind, tmp_path)
    assert csv_text == (GOLDEN / f"{kind.lower()}.csv").read_text()
    assert json_text == (GOLDEN / f"{kind.lower()}.json").read_text()


@pytest.mark.parametrize("name", sorted(CLI_COMMANDS))
def test_golden_cli_payloads(name, tmp_path):
    assert _cli_output(name, tmp_path) == (GOLDEN / f"{name}.json").read_text()


def test_golden_ric_certificates():
    assert _ric_certificates() == (GOLDEN / "ric_certificates.json").read_text()


def test_golden_admm_outputs():
    assert _admm_outputs() == (GOLDEN / "admm_outputs.json").read_text()


@pytest.mark.parametrize("name", sorted(ADMM_CASES))
def test_admm_result_fields_are_numpy_norms_bit_for_bit(name):
    phi, B, rhos, config, truths = _admm_case(name)
    results = solve_noisy_batch(phi, B, rhos, config, truths=truths)
    for j, (r, rho, truth) in enumerate(zip(results, rhos, truths)):
        est = r.estimate.coeffs
        resid = float(np.linalg.norm(phi.entries @ est - B[:, j]))
        assert r.objective == mixed_norm_2_1(r.estimate)
        assert r.feasibility_gap == (resid if rho == 0.0 else max(0.0, resid - rho))
        assert r.error_vector_norm == float(np.linalg.norm(est - truth.coeffs))


def test_golden_oracle_outputs():
    assert _oracle_outputs() == (GOLDEN / "oracle_outputs.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for kind in SPECS:
        csv_text, json_text = _outputs(kind, GOLDEN)
        (GOLDEN / f"{kind.lower()}.csv").write_text(csv_text)
        (GOLDEN / f"{kind.lower()}.json").write_text(json_text)
        print(f"wrote {kind.lower()}.csv and {kind.lower()}.json", file=sys.stderr)
    for name in CLI_COMMANDS:
        with tempfile.TemporaryDirectory() as work_dir:
            (GOLDEN / f"{name}.json").write_text(_cli_output(name, Path(work_dir)))
        print(f"wrote {name}.json", file=sys.stderr)
    (GOLDEN / "ric_certificates.json").write_text(_ric_certificates())
    print("wrote ric_certificates.json", file=sys.stderr)
    (GOLDEN / "admm_outputs.json").write_text(_admm_outputs())
    print("wrote admm_outputs.json", file=sys.stderr)
    (GOLDEN / "oracle_outputs.json").write_text(_oracle_outputs())
    print("wrote oracle_outputs.json", file=sys.stderr)
