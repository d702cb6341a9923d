"""Golden outputs: every experiment kind on a small grid writes exactly the
CSV (wall_time column removed) and JSON stored under tests/data/golden/, and
the `recover`, `ric` (wall_time removed) and `oracle` subcommands write
exactly the JSON stored there for one spread-kernel instance.  Exact block
RIC certificates and spread-kernel matrix entries over a seeded grid of
uniform and ragged shapes match `ric_certificates.json` bit for bit, and the
batch solver's outputs on a grid of noiseless, noisy and mixed-radius batches
match the sha256 digests in `admm_outputs.json`.

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
    SolverConfig,
    exact_block_ric,
    gaussian_matrix,
    generator,
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
# `noiseless_12_gaussian_d1` and `mixed_12_gaussian_d2` rebalance the penalty
# both up and down; the `unconverged_*` cases stop at max_iters, the second
# after some of its columns have converged.
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


def _admm_digest(name: str) -> str:
    """sha256 over (estimates, iterations, primal, dual, converged) of one
    batch solve: 2-block-sparse signals, each observation moved by a
    random vector of norm rho/2 off its exact value."""
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
    results = solve_noisy_batch(phi, phi.entries @ X + E, rhos, SolverConfig(max_iters=max_iters))
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
