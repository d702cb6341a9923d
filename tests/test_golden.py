"""Golden outputs: every experiment kind on a small grid writes exactly the
CSV (wall_time column removed) and JSON stored under tests/data/golden/.

Regenerate with `PYTHONPATH=src python tests/test_golden.py` only when an
output change is intended.
"""

import sys
from pathlib import Path

import pytest

from blockcs import ExperimentSpec, run_experiment
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


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_golden_outputs(kind, tmp_path):
    csv_text, json_text = _outputs(kind, tmp_path)
    assert csv_text == (GOLDEN / f"{kind.lower()}.csv").read_text()
    assert json_text == (GOLDEN / f"{kind.lower()}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for kind in SPECS:
        csv_text, json_text = _outputs(kind, GOLDEN)
        (GOLDEN / f"{kind.lower()}.csv").write_text(csv_text)
        (GOLDEN / f"{kind.lower()}.json").write_text(json_text)
        print(f"wrote {kind.lower()}.csv and {kind.lower()}.json", file=sys.stderr)
