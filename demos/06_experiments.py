"""The experiment harness: a seeded phase-transition sweep over sparsity and
measurement count, written to CSV + JSON.  Identical (spec, seed) reproduce
identical trial records.

Run:  python demos/06_experiments.py
"""

import json
from pathlib import Path

from blockcs import ExperimentSpec, run_experiment

out = Path("demo_phase")
spec = ExperimentSpec(
    kind="PHASE_TRANSITION",
    seed=42,
    grid={
        "l": 12,
        "d": 2,
        "s_values": [1, 2, 3, 4, 5],
        "m_values": [8, 12, 16, 20, 24],
        "trials": 8,
        "ensemble": "gaussian",
    },
    output_path=str(out),
)

report = run_experiment(spec)
print(f"wrote {report.csv_path} ({len(report.records)} trials) and {report.json_path}\n")

cells = report.summary["cells"]
print("success rate by (rows m, sparsity s):")
print("        " + "".join(f"s={s:<5}" for s in spec.grid["s_values"]))
for m in spec.grid["m_values"]:
    row = "".join(f"{cells[f'm={m},s={s}']['success_rate']:<7.2f}"
                  for s in spec.grid["s_values"])
    print(f"  m={m:<3} {row}")

summary = json.loads(Path(report.json_path).read_text())
print("\nsummary keys:", sorted(summary))
