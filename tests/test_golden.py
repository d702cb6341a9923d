"""Golden outputs: every experiment kind on a small grid writes exactly the
CSV (wall_time column removed) and JSON stored under tests/data/golden/, and
the `recover`, `ric` (wall_time removed) and `oracle` subcommands write
exactly the JSON stored there for one spread-kernel instance.

Regenerate with `PYTHONPATH=src python tests/test_golden.py` only when an
output change is intended.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from blockcs import BlockSignal, BlockStructure, ExperimentSpec, run_experiment, spread_kernel_matrix
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


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_golden_outputs(kind, tmp_path):
    csv_text, json_text = _outputs(kind, tmp_path)
    assert csv_text == (GOLDEN / f"{kind.lower()}.csv").read_text()
    assert json_text == (GOLDEN / f"{kind.lower()}.json").read_text()


@pytest.mark.parametrize("name", sorted(CLI_COMMANDS))
def test_golden_cli_payloads(name, tmp_path):
    assert _cli_output(name, tmp_path) == (GOLDEN / f"{name}.json").read_text()


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
