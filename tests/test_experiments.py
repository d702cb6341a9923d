import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from blockcs import ExperimentSpec, TrialRecord, demo_counterexample, run_experiment
from blockcs.experiments import (
    _GRID_FORMATS,
    _REQUIRED,
    records_from_csv,
    records_to_csv,
    spec_from_json,
    spec_to_json,
)
from conftest import BAD_COUNTS, BAD_REALS, bad_arguments, rejects_argument, strip_wall_time

README = Path(__file__).parent.parent / "README.md"


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="NOPE", seed=1, grid={"trials": 1})
    with pytest.raises(ValueError):
        ExperimentSpec(kind="RECOVERY_TRIALS", seed=1, grid={})
    with pytest.raises(ValueError):
        ExperimentSpec(kind="RECOVERY_TRIALS", seed=1, grid={"trials": 0})


@pytest.mark.parametrize("kind, grid, missing", [
    ("RECOVERY_TRIALS", {"m": 8, "s": 2, "trials": 1}, "l"),
    ("PHASE_TRANSITION", {"l": 6, "m_values": [8]}, "s_values"),
    ("RIC_SWEEP", {"l": 6}, "m"),
])
def test_spec_rejects_missing_grid_key(kind, grid, missing):
    with pytest.raises(ValueError, match=repr(missing)):
        ExperimentSpec(kind=kind, seed=1, grid=grid)


_RECOVERY_GRID = {"l": 6, "m": 8, "s": 2}


@pytest.mark.parametrize("kind, grid, key", [
    ("PHASE_TRANSITION", {"l": 6, "m_values": 8, "s_values": [1]}, "m_values"),
    ("PHASE_TRANSITION", {"l": 6, "m_values": [8], "s_values": "12"}, "s_values"),
    ("PHASE_TRANSITION", {"l": 6, "m_values": [8], "s_values": [1, 7]}, "s_values"),
    ("RECOVERY_TRIALS", dict(_RECOVERY_GRID, rho=[]), "rho"),
    ("RECOVERY_TRIALS", dict(_RECOVERY_GRID, t="x"), "t"),
    ("RECOVERY_TRIALS", dict(_RECOVERY_GRID, trials=0), "trials"),
    ("RECOVERY_TRIALS", dict(_RECOVERY_GRID, s=7), "s"),
    ("RECOVERY_TRIALS", dict(_RECOVERY_GRID, compute_ric="no"), "compute_ric"),
    ("RECOVERY_TRIALS", dict(_RECOVERY_GRID, ensemble="bernoulli"), "ensemble"),
    ("RIC_SWEEP", {"l": 3, "m": 6, "orders": [4]}, "orders"),
    ("PHASE_TRANSITION", {"l": 4, "m_values": [4, 8], "s_values": [1], "ensemble": "spread_kernel"}, "m_values"),
    ("RECOVERY_TRIALS", dict(_RECOVERY_GRID, ensemble="identity"), "m"),
    ("RIC_SWEEP", {"l": 3, "m": 6, "ensemble": "spread_kernel"}, "m"),
    ("RIC_SWEEP", {"l": 3, "m": 5, "ensemble": "identity"}, "m"),
    ("PHASE_TRANSITION", {"l": 1, "d": 4, "m_values": [2], "s_values": [1], "ensemble": "spread_kernel"}, "l"),
    ("RECOVERY_TRIALS", {"l": 1, "d": 4, "m": 2, "s": 1, "ensemble": "spread_kernel"}, "l"),
    ("RIC_SWEEP", {"l": 1, "d": 4, "m": 2, "orders": [1], "ensemble": "spread_kernel"}, "l"),
    ("RIC_SWEEP", {"l": 1415, "d": 1, "m": 10, "orders": [1], "ensemble": "spread_kernel"}, "l"),
    ("RIC_SWEEP", {"l": 40, "d": 1, "m": 10, "orders": [1, 20], "matrices": 3}, "orders"),
    ("RIC_SWEEP", {"l": 4, "m": 6, "trials": 3}, "trials"),
    ("COUNTEREXAMPLE", {"t": 4 / 3}, "t"),
    ("COUNTEREXAMPLE", {"t": 0.0}, "t"),
    ("COUNTEREXAMPLE", {"s": 3, "l": 6}, "l"),
    ("IDENTITY_SUITE", {"max_blocks": 1}, "max_blocks"),
    ("IDENTITY_SUITE", {"trials": 1, "bogus": 1}, "bogus"),
])
def test_spec_rejects_bad_grid(kind, grid, key):
    with pytest.raises(ValueError, match=f"key {key!r}"):
        ExperimentSpec(kind=kind, seed=1, grid=grid)


def test_spec_from_json_rejects_unknown_solver_key():
    with pytest.raises(ValueError, match="'bogus'"):
        spec_from_json({"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "solver": {"bogus": 1}})


@pytest.mark.parametrize("key, value", [
    ("success_tol", math.nan),
    ("success_tol", math.inf),
    ("success_tol", 0.0),
    ("success_tol", -1e-5),
    ("success_tol", [1]),
    ("success_tol", "1e-5"),
    ("success_tol", True),
    ("seed", 2.7),
    ("seed", [1]),
    ("seed", "1"),
    ("seed", None),
    ("solver", 5),
    ("output_path", None),
    ("output_path", 5),
    ("output_path", ""),
    ("sead", 1),  # no spec key: only spec_from_json can be given it
])
def test_spec_rejects_bad_seed_or_success_tol(key, value):
    with pytest.raises(ValueError, match=f"key {key!r}"):
        spec_from_json({"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, key: value})
    if key in {f.name for f in fields(ExperimentSpec)}:
        with pytest.raises(ValueError, match=f"key {key!r}"):
            ExperimentSpec(**{"kind": "IDENTITY_SUITE", "seed": 1, "grid": {"trials": 1}, key: value})


def test_spec_from_json_keeps_seed_int_and_success_tol_float():
    spec = spec_from_json({"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "seed": 3, "success_tol": 1,
                           "output_path": Path("runs") / "ids"})
    assert (spec.seed, spec.success_tol, spec.output_path) == (3, 1.0, str(Path("runs") / "ids"))
    assert type(spec.seed) is int and type(spec.success_tol) is float and type(spec.output_path) is str


def _grid_table() -> str:
    """Markdown table of every kind's grid keys, as the README carries it."""
    rows = ["| kind | key | type | default |", "|---|---|---|---|"]
    for kind, formats in _GRID_FORMATS.items():
        for key, (convert, default) in formats.items():
            shown = "required" if default is _REQUIRED else f"`{json.dumps(default)}`"
            rows.append(f"| `{kind}` | `{key}` | {convert.__doc__} | {shown} |")
    return "\n".join(rows) + "\n"


def test_readme_grid_table_matches_formats():
    assert _grid_table() in README.read_text()


def test_readme_spec_example_loads():
    example = README.read_text().split("```json\n", 1)[1].split("```", 1)[0]
    spec = spec_from_json(json.loads(example))
    assert (spec.kind, spec.seed, spec.output_path) == ("PHASE_TRANSITION", 42, "phase")


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        kind="PHASE_TRANSITION",
        seed=42,
        grid={"l": 12, "d": 2, "s_values": [1, 2], "m_values": [8, 16], "trials": 2},
        output_path="out",
        success_tol=1e-5,
    )
    back = spec_from_json(spec_to_json(spec))
    assert back == spec


def test_counterexample_demo_values():
    report = demo_counterexample(1.0, 2, 2, 6)
    assert abs(report.delta - 1.0 / 3.0) <= 1e-10
    assert report.threshold == pytest.approx(1.0 / 3.0)
    target = 2 * math.sqrt(2)
    assert report.x0_mixed_norm == pytest.approx(target, abs=1e-12)
    assert report.x_hat_mixed_norm == pytest.approx(target, abs=1e-12)
    assert report.measurement_gap <= 1e-12
    assert report.solver_objective <= target + 1e-6
    assert report.non_unique
    text = report.render()
    assert "verdict" in text and "share the measurement" in text


def test_counterexample_demo_smallest_instance():
    report = demo_counterexample(1.0, 1, 1, 3)
    assert abs(report.delta - 1.0 / 3.0) <= 1e-10
    assert report.ric_order == 1
    assert report.x0_mixed_norm == pytest.approx(1.0, abs=1e-12)
    assert report.solver_objective <= 1.0 + 1e-6


def test_counterexample_rejects_small_l():
    with pytest.raises(ValueError, match="2s < l"):
        demo_counterexample(1.0, 2, 2, 4)


def test_records_csv_round_trip(tmp_path):
    spec = ExperimentSpec(
        kind="RECOVERY_TRIALS",
        seed=3,
        grid={"l": 6, "d": 2, "m": 11, "s": 2, "ensemble": "spread_kernel", "trials": 2},
        output_path=str(tmp_path / "trials"),
    )
    report = run_experiment(spec)
    text = Path(report.csv_path).read_text()
    records = records_from_csv(report.csv_path)
    assert len(records) == 2
    again = tmp_path / "again.csv"
    records_to_csv(records, again, {"kind": spec.kind, "seed": spec.seed, "success_tol": "1.0000000000000001e-05"})
    # byte-identical modulo the fixed float formatting used on both sides
    assert Path(report.csv_path).read_text() == again.read_text()


_ROW = TrialRecord(trial_id=0, seed_stream=1, m=4, n=8, d=2, l=4, s=1, t=1.0)


@pytest.mark.parametrize("column, cell", [
    ("condition_ok", "maybe"),
    ("condition_ok", ""),
    ("success", "True"),
    ("m", "x"),
    ("m", ""),
    ("m", "4.0"),
    ("t", ""),
    ("wall_time", "fast"),
])
def test_records_from_csv_names_a_malformed_cell(tmp_path, column, cell):
    path = tmp_path / "rows.csv"
    records_to_csv([_ROW, _ROW], path, {})
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[1].split(",").index(column)] = cell
    path.write_text("\n".join(lines[:3] + [",".join(cells)]) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} line 4 column {column!r}: "):
        records_from_csv(path)


def test_records_from_csv_names_a_short_row(tmp_path):
    path = tmp_path / "rows.csv"
    records_to_csv([_ROW], path, {})
    path.write_text(path.read_text() + "0,1\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} line 4: malformed trial row"):
        records_from_csv(path)


@pytest.mark.parametrize("kind, grid", [
    ("RECOVERY_TRIALS", {"l": 4, "m": 6, "s": 1, "rho": [0.0, 0.01], "trials": 2}),
    ("PHASE_TRANSITION", {"l": 4, "m_values": [6], "s_values": [1], "trials": 2, "compute_ric": True}),
    ("COUNTEREXAMPLE", {"t": 1.0}),
    ("RIC_SWEEP", {"l": 4, "m": 6, "matrices": 2}),
    ("IDENTITY_SUITE", {"trials": 3, "max_blocks": 4}),
])
def test_every_trial_is_timed_and_reads_back(tmp_path, kind, grid):
    report = run_experiment(ExperimentSpec(kind=kind, seed=3, grid=grid, output_path=str(tmp_path / "run")))
    assert report.records and all(rec.wall_time > 0 for rec in report.records)
    assert records_from_csv(report.csv_path) == list(report.records)


def test_recovery_trials_identity_all_succeed(tmp_path):
    spec = ExperimentSpec(
        kind="RECOVERY_TRIALS",
        seed=11,
        grid={"l": 4, "d": 2, "m": 8, "s": 2, "ensemble": "identity",
              "compute_ric": False, "trials": 5},
        output_path=str(tmp_path / "ident"),
    )
    report = run_experiment(spec)
    assert report.summary["success_rate"] == 1.0


def test_recovery_trials_certified_bounds_present(tmp_path):
    spec = ExperimentSpec(
        kind="RECOVERY_TRIALS",
        seed=5,
        grid={"l": 6, "d": 2, "m": 11, "s": 2, "ensemble": "spread_kernel",
              "rho": [0.0, 0.01], "trials": 3},
        output_path=str(tmp_path / "cert"),
    )
    report = run_experiment(spec)
    assert report.summary["condition_certified"] == len(report.records)
    # rho = 0 trials have a zero theoretical bound; the reported violation is
    # then pure solver tolerance, far below any meaningful error scale
    assert report.summary["max_bound_violation"] <= 1e-7
    for rec in report.records:
        assert rec.condition_ok
        assert rec.bound_tight is not None and rec.bound_loose is not None
        assert rec.bound_tight <= rec.bound_loose + 1e-12
        if rec.rho > 0:
            assert rec.recovery_error <= rec.bound_tight


def test_run_deterministic(tmp_path):
    grid = {"l": 6, "d": 2, "m": 10, "s": 2, "ensemble": "gaussian",
            "compute_ric": False, "trials": 6}
    spec1 = ExperimentSpec(kind="RECOVERY_TRIALS", seed=9, grid=grid,
                           output_path=str(tmp_path / "a"))
    spec2 = ExperimentSpec(kind="RECOVERY_TRIALS", seed=9, grid=grid,
                           output_path=str(tmp_path / "b"))
    rep1 = run_experiment(spec1)
    rep2 = run_experiment(spec2)
    a = strip_wall_time(Path(rep1.csv_path).read_text())
    b = strip_wall_time(Path(rep2.csv_path).read_text())
    assert a == b
    s1 = json.loads(Path(rep1.json_path).read_text())
    s2 = json.loads(Path(rep2.json_path).read_text())
    assert s1 == s2


def test_phase_transition_monotone_trend(tmp_path):
    spec = ExperimentSpec(
        kind="PHASE_TRANSITION",
        seed=42,
        grid={"l": 12, "d": 2, "s_values": [1, 2, 3, 4], "m_values": [8, 12, 16, 20, 24],
              "trials": 6, "ensemble": "gaussian"},
        output_path=str(tmp_path / "phase"),
    )
    report = run_experiment(spec)
    cells = report.summary["cells"]
    # success is nonincreasing in s for each m, with one-cell slack
    for m in (8, 12, 16, 20, 24):
        rates = [cells[f"m={m},s={s}"]["success_rate"] for s in (1, 2, 3, 4)]
        violations = sum(1 for lo, hi in zip(rates, rates[1:]) if hi > lo + 1e-12)
        assert violations <= 1, (m, rates)
    # extremes behave as expected
    assert cells["m=24,s=1"]["success_rate"] == 1.0


def test_counterexample_experiment(tmp_path):
    spec = ExperimentSpec(
        kind="COUNTEREXAMPLE",
        seed=1,
        grid={"t": 1.0, "s": 2, "d": 2, "l": 6},
        output_path=str(tmp_path / "cx"),
    )
    report = run_experiment(spec)
    assert abs(report.summary["delta"] - 1.0 / 3.0) <= 1e-10
    assert report.summary["non_unique_minimizer"] is True
    payload = json.loads(Path(report.json_path).read_text())
    assert payload["summary"]["threshold"] == pytest.approx(1.0 / 3.0)


def test_ric_sweep_experiment(tmp_path):
    spec = ExperimentSpec(
        kind="RIC_SWEEP",
        seed=2,
        grid={"l": 6, "d": 2, "m": 9, "orders": [1, 2, 3], "matrices": 3,
              "ensemble": "gaussian"},
        output_path=str(tmp_path / "ric"),
    )
    report = run_experiment(spec)
    per_order = report.summary["per_order"]
    assert set(per_order) == {"order=1", "order=2", "order=3"}
    # monotone in the order, matrix by matrix
    by_matrix = {}
    for rec in report.records:
        by_matrix.setdefault(rec.seed_stream, {})[rec.s] = rec.delta
    for deltas in by_matrix.values():
        assert deltas[1] <= deltas[2] + 1e-14
        assert deltas[2] <= deltas[3] + 1e-14


def test_identity_suite_experiment(tmp_path):
    spec = ExperimentSpec(
        kind="IDENTITY_SUITE",
        seed=7,
        grid={"trials": 25, "max_blocks": 6},
        output_path=str(tmp_path / "ids"),
    )
    report = run_experiment(spec)
    worst = report.summary["max_residuals"]
    assert set(worst) == {
        "subset_sum", "subset_inner_product", "subset_energy_difference",
        "disjoint_pair_energy",
    }
    assert max(worst.values()) <= 1e-10
    assert report.summary["all_below_1e-10"]
    assert report.summary["polytope_members_checked"] == 25


def _spec_with_solver(**solver):
    return spec_from_json({"kind": "IDENTITY_SUITE", "grid": {"trials": 1}, "solver": solver})


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("demo_counterexample", "t", lambda v: demo_counterexample(v, 2, 2, 6), BAD_REALS),
    ("demo_counterexample", "s", lambda v: demo_counterexample(1.0, v, 2, 6), BAD_COUNTS),
    ("demo_counterexample", "d", lambda v: demo_counterexample(1.0, 2, v, 6), BAD_COUNTS),
    ("demo_counterexample", "l", lambda v: demo_counterexample(1.0, 2, 2, v), BAD_COUNTS),
    ("spec_from_json", "max_iters", lambda v: _spec_with_solver(max_iters=v), BAD_COUNTS),
    ("spec_from_json", "primal_tol", lambda v: _spec_with_solver(primal_tol=v), BAD_REALS),
))
def test_rejects_bad_count_or_real(name, call, value):
    with rejects_argument(name, value):
        call(value)
