"""Experiment harness: seeded batch trials, phase-transition sweeps, the
threshold counterexample demonstration, and machine-readable reporting.

Every trial draws from its own Philox stream keyed by (experiment seed,
trial id), so a trial's record depends only on the spec and its trial id.
Per-trial records go to CSV (17-significant-digit floats, exact round-trip);
aggregate summaries go to JSON.  The wall_time column is the only
nondeterministic field in the outputs.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _checks
from .blocks import BlockSignal, BlockStructure, SensingMatrix, mixed_norm_2_1
from .ric import (
    _effective_order,
    check_condition,
    condition_threshold,
    error_bound_loose,
    error_bound_tight,
    exact_block_ric,
)
from .seeding import generator, stream_key
from .sensing import gaussian_matrix, sharpness_instance, spread_kernel_matrix, apply
from .serialize import format_float
from .solvers import SolverConfig, solve_noiseless, solve_noisy
from .identities import (
    disjoint_pair_energy_residual,
    polytope_decompose,
    subset_energy_difference_residual,
    subset_inner_product_residual,
    subset_sum_residual,
)

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "TrialRecord",
    "ExperimentReport",
    "CounterexampleReport",
    "run_experiment",
    "demo_counterexample",
    "spec_from_json",
    "spec_to_json",
    "records_to_csv",
    "records_from_csv",
]


def _at_least(cast, low):
    """Conversion of an int (cast=int) or finite real (cast=float) >= low."""
    check = _checks.count if cast is int else _checks.real

    def convert(value):
        return check("value", value, low)
    convert.__doc__ = f"{cast.__name__} ≥ {low}"
    return convert


def _flag(value) -> bool:
    """bool"""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _one_of(*choices: str):
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value
    convert.__doc__ = "one of " + ", ".join(choices)
    return convert


def _list_of(item, scalar_ok: bool = False):
    def convert(value):
        if scalar_ok and not isinstance(value, (list, tuple)):
            return [item(value)]
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"expected a non-empty list, got {value!r}")
        return [item(v) for v in value]
    convert.__doc__ = f"{item.__doc__} or a list of them" if scalar_ok else f"list of {item.__doc__}"
    return convert


_COUNT = _at_least(int, 1)
_REQUIRED = object()  # grid-format default of a key the spec must give
# grid keys of the kinds that draw matrices: their block structure, t and ensemble
_MATRIX_KEYS = {
    "l": (_COUNT, _REQUIRED),
    "d": (_COUNT, 2),
    "t": (_at_least(float, 0.0), 1.0),
    "ensemble": (_one_of("gaussian", "spread_kernel", "identity"), "gaussian"),
}

# experiment kind -> grid key -> (conversion, default or _REQUIRED); a None
# default stays None, every other default goes through the conversion
_GRID_FORMATS = {
    "RECOVERY_TRIALS": {
        **_MATRIX_KEYS,
        "m": (_COUNT, _REQUIRED),
        "s": (_COUNT, _REQUIRED),
        "rho": (_list_of(_at_least(float, 0.0), scalar_ok=True), 0.0),
        "trials": (_COUNT, 1),
        "compute_ric": (_flag, True),
    },
    "PHASE_TRANSITION": {
        **_MATRIX_KEYS,
        "m_values": (_list_of(_COUNT), _REQUIRED),
        "s_values": (_list_of(_COUNT), _REQUIRED),
        "trials": (_COUNT, 10),
        "compute_ric": (_flag, False),
    },
    "COUNTEREXAMPLE": {
        "t": _MATRIX_KEYS["t"],
        "s": (_COUNT, 2),
        "d": (_COUNT, 2),
        "l": (_COUNT, 6),
    },
    "RIC_SWEEP": {
        **_MATRIX_KEYS,
        "m": (_COUNT, _REQUIRED),
        "orders": (_list_of(_COUNT), [1, 2]),
        "matrices": (_COUNT, None),  # None: as many as trials
        "trials": (_COUNT, 1),
    },
    "IDENTITY_SUITE": {
        "trials": (_COUNT, 200),
        "max_blocks": (_at_least(int, 2), 8),
    },
}
EXPERIMENT_KINDS = tuple(_GRID_FORMATS)

_RIC_AUTO_CAP = 10_000  # compute exact constants automatically below this many supports


def _grid_values(kind: str, grid: dict) -> dict:
    """Every grid key of `kind`, converted, with defaults filled in; a
    ValueError names the first unknown, missing or malformed key."""
    formats = _GRID_FORMATS[kind]
    unknown = [key for key in grid if key not in formats]
    if unknown:
        raise ValueError(f"{kind} grid has no key {unknown[0]!r}; it reads {sorted(formats)}")
    values = dict.fromkeys(formats)  # an absent key with a None default stays None
    for key, (convert, default) in formats.items():
        if key not in grid and default is _REQUIRED:
            raise ValueError(f"{kind} grid lacks the required key {key!r}")
        if key in grid or default is not None:
            try:
                values[key] = convert(grid.get(key, default))
            except ValueError as exc:
                raise ValueError(f"{kind} grid key {key!r}: {exc}") from None
    for key in ("s", "s_values", "orders"):
        if key in values and max(np.atleast_1d(values[key])) > values["l"]:
            raise ValueError(f"{kind} grid key {key!r} asks for more than l = {values['l']} blocks")
    return values


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run, checked when it is made:
    `output_path` (a str or os.PathLike) is stored as a str."""

    kind: str
    seed: int
    grid: dict
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_path: str = "experiment"
    success_tol: float = 1e-5

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}")
        if not isinstance(self.grid, dict) or not self.grid:
            raise ValueError("grid must be a non-empty mapping of parameter ranges")
        _grid_values(self.kind, self.grid)
        for key, check in (
            ("seed", lambda value: _checks.count("value", value, -math.inf)),
            ("solver", lambda value: _checks.instance("value", value, SolverConfig)),
            ("output_path", lambda value: _checks.path("value", value)),
            ("success_tol", lambda value: _checks.real("value", value, 0.0, strict=True)),
        ):
            try:
                object.__setattr__(self, key, check(getattr(self, key)))
            except ValueError as exc:
                raise ValueError(f"experiment spec key {key!r}: {exc}") from None


def spec_to_json(spec: ExperimentSpec) -> dict:
    return asdict(spec)


def spec_from_json(obj: dict) -> ExperimentSpec:
    """The spec a JSON object describes, with "seed" 0 and "grid" {} when absent
    and "solver" a mapping of SolverConfig keys."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('experiment spec JSON must carry at least "kind"')
    keys = [f.name for f in fields(ExperimentSpec)]
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ValueError(f"experiment spec has no key {unknown[0]!r}; it reads {keys}")
    solver = obj.get("solver", {})
    if not isinstance(solver, dict):
        raise ValueError("experiment spec key 'solver': value must be a mapping of SolverConfig keys, "
                         f"got {type(solver).__name__}")
    try:
        solver = SolverConfig(**solver)
    except (TypeError, ValueError) as exc:  # a key SolverConfig lacks, or a bad value
        raise ValueError(f"experiment spec key 'solver': {exc}") from None
    return ExperimentSpec(**{"seed": 0, "grid": {}, **obj, "solver": solver})


@dataclass(frozen=True)
class TrialRecord:
    """One row of an experiment's CSV output; a kind leaves the fields it
    does not measure at their defaults."""

    trial_id: int
    seed_stream: int
    m: int
    n: int
    d: int
    l: int
    s: int
    t: float
    rho: float = 0.0
    delta: float | None = None
    condition_ok: bool = False
    recovery_error: float | None = None
    bound_tight: float | None = None
    bound_loose: float | None = None
    success: bool | None = None
    wall_time: float = 0.0


_CSV_TYPES = {f.name: f.type for f in fields(TrialRecord)}  # annotations, as strings
_CSV_COLUMNS = tuple(_CSV_TYPES)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def _record_line(rec: TrialRecord) -> str:
    return ",".join(_cell(getattr(rec, col)) for col in _CSV_COLUMNS)


def records_to_csv(records, path, header_fields: dict) -> None:
    meta = " ".join(f"{k}={v}" for k, v in header_fields.items())
    lines = [f"# blockcs-trials v1 {meta}", ",".join(_CSV_COLUMNS)]
    lines.extend(_record_line(rec) for rec in records)
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_cell(annotation: str, text: str):
    if text == "":
        return None
    if annotation == "int":
        return int(text)
    if annotation.startswith("bool"):
        return text == "true"
    return float(text)


def records_from_csv(path) -> list[TrialRecord]:
    records = []
    lines = Path(path).read_text().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != ",".join(_CSV_COLUMNS):
        raise ValueError(f"{path} does not carry the blockcs trial schema")
    for line in body[1:]:
        cells = line.split(",")
        if len(cells) != len(_CSV_COLUMNS):
            raise ValueError(f"malformed trial row: {line!r}")
        kwargs = {name: _parse_cell(_CSV_TYPES[name], cell) for name, cell in zip(_CSV_COLUMNS, cells)}
        kwargs["condition_ok"] = bool(kwargs["condition_ok"])
        records.append(TrialRecord(**kwargs))
    return records


@dataclass(frozen=True)
class ExperimentReport:
    """Return value of run_experiment: summary plus output locations."""

    spec: ExperimentSpec
    records: tuple[TrialRecord, ...]
    summary: dict
    csv_path: str
    json_path: str


@dataclass(frozen=True)
class CounterexampleReport:
    """Exact threshold demonstration: two distinct block s-sparse signals
    share both the measurement and the objective value."""

    t: float
    s: int
    d: int
    l: int
    ric_order: int
    delta: float
    threshold: float
    x0_mixed_norm: float
    x_hat_mixed_norm: float
    expected_objective: float
    measurement_gap: float
    solver_objective: float
    solver_converged: bool
    non_unique: bool

    def render(self) -> str:
        lines = [
            f"threshold instance (t={self.t:g}, s={self.s}, d={self.d}, l={self.l})",
            f"  exact block RIC at order {self.ric_order}: {self.delta:.12f}",
            f"  recovery threshold t/(4-t):          {self.threshold:.12f}",
            f"  ||x0||_(2,I) = {self.x0_mixed_norm:.12f}",
            f"  ||x^||_(2,I) = {self.x_hat_mixed_norm:.12f}   (construction value s*sqrt(d) = {self.expected_objective:.12f})",
            f"  ||Phi (x0 - x^)||_2 = {self.measurement_gap:.3e}",
            f"  solver objective on b = Phi x0: {self.solver_objective:.12f} (converged={self.solver_converged})",
        ]
        if self.non_unique:
            lines.append(
                "  verdict: two distinct block s-sparse signals share the measurement and the"
            )
            lines.append(
                "  objective, so mixed-norm minimization cannot single out either one."
            )
        else:
            lines.append("  verdict: witnesses do NOT collide (unexpected).")
        return "\n".join(lines)


def demo_counterexample(
    t: float, s: int, d: int, l: int, config: SolverConfig | None = None
) -> CounterexampleReport:
    """Build the threshold instance, certify its constant, and exhibit the
    two equal-objective witnesses sharing one measurement."""
    inst = sharpness_instance(t, s, d, l)
    order = max(1, _effective_order(inst.t, inst.s))
    cert = exact_block_ric(inst.phi, order)
    b = apply(inst.phi, inst.x0)
    gap = float(np.linalg.norm(b - apply(inst.phi, inst.x_hat)))
    result = solve_noiseless(inst.phi, b, config)
    n0 = mixed_norm_2_1(inst.x0)
    n_hat = mixed_norm_2_1(inst.x_hat)
    distinct = float(np.linalg.norm(inst.x0.coeffs - inst.x_hat.coeffs)) > 1e-12
    non_unique = distinct and gap <= 1e-10 and abs(n0 - n_hat) <= 1e-10
    return CounterexampleReport(
        t=inst.t,
        s=inst.s,
        d=inst.d,
        l=inst.l,
        ric_order=order,
        delta=cert.delta,
        threshold=condition_threshold(inst.t),
        x0_mixed_norm=n0,
        x_hat_mixed_norm=n_hat,
        expected_objective=inst.s * math.sqrt(inst.d),
        measurement_gap=gap,
        solver_objective=result.objective,
        solver_converged=result.converged,
        non_unique=non_unique,
    )


def _make_matrix(ensemble: str, m: int, structure: BlockStructure, key: int) -> SensingMatrix:
    if ensemble == "gaussian":
        return gaussian_matrix(m, structure, key)
    if ensemble == "spread_kernel":
        return spread_kernel_matrix(m, structure, key)
    if m != structure.total_dim:
        raise ValueError("identity ensemble needs m == total dimension")
    return SensingMatrix(np.eye(m), structure)


def _random_block_sparse(rng, structure: BlockStructure, s: int) -> BlockSignal:
    support = sorted(rng.choice(structure.num_blocks, size=s, replace=False).tolist())
    coeffs = np.zeros(structure.total_dim)
    for i in support:
        sl = structure.block_slice(i)
        coeffs[sl] = rng.standard_normal(sl.stop - sl.start)
    return BlockSignal(coeffs, structure)


def _recovery_trial(spec: ExperimentSpec, g: dict, trial_id: int, m: int, s: int, rho: float) -> TrialRecord:
    start = time.perf_counter()
    d, l, t = g["d"], g["l"], g["t"]
    structure = BlockStructure.uniform(d, l)
    phi = _make_matrix(g["ensemble"], m, structure, stream_key(spec.seed, trial_id, 0))
    truth = _random_block_sparse(generator(spec.seed, trial_id, 1), structure, s)
    b = apply(phi, truth)
    if rho > 0:
        xi = generator(spec.seed, trial_id, 2).standard_normal(m)
        b = b + xi * (rho / np.linalg.norm(xi))

    order = max(1, _effective_order(t, s))
    delta = None
    if g["compute_ric"] and math.comb(l, order) <= _RIC_AUTO_CAP:
        delta = exact_block_ric(phi, order).delta
    condition_ok = delta is not None and check_condition(delta, t, s).ok

    # the same bits at rho = 0; the benchmark's sweep spans wrap this module's solve_noiseless
    if rho > 0:
        result = solve_noisy(phi, b, rho, spec.solver, truth=truth)
    else:
        result = solve_noiseless(phi, b, spec.solver, truth=truth)
    err = result.error_vector_norm
    rel_err = err / max(np.linalg.norm(truth.coeffs), 1e-300)

    bound_t = bound_l = None
    if condition_ok:
        bound_t = error_bound_tight(t, s, delta, rho, 0.0).bound
        bound_l = error_bound_loose(t, s, delta, rho, 0.0).bound
    return TrialRecord(
        trial_id=trial_id,
        seed_stream=stream_key(spec.seed, trial_id),
        m=m,
        n=structure.total_dim,
        d=d,
        l=l,
        s=s,
        t=t,
        rho=rho,
        delta=delta,
        condition_ok=condition_ok,
        recovery_error=err,
        bound_tight=bound_t,
        bound_loose=bound_l,
        success=bool(rel_err <= spec.success_tol),
        wall_time=time.perf_counter() - start,
    )


def _recovery_grid(spec: ExperimentSpec, g: dict, m_values, s_values, rhos):
    """Run `_recovery_trial` over m x s x rho x trial, numbering trials in that order."""
    grid = itertools.product(m_values, s_values, rhos, range(g["trials"]))
    return [
        _recovery_trial(spec, g, tid, m, s, rho)
        for tid, (m, s, rho, _) in enumerate(grid)
    ]


def _success_cells(records, cell_key) -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for rec in records:
        cell = cells.setdefault(cell_key(rec), {"trials": 0, "successes": 0})
        cell["trials"] += 1
        cell["successes"] += int(bool(rec.success))
    for cell in cells.values():
        cell["success_rate"] = cell["successes"] / cell["trials"]
    return cells


def _run_recovery_trials(spec: ExperimentSpec, g: dict):
    records = _recovery_grid(spec, g, [g["m"]], [g["s"]], g["rho"])
    violations = [
        max(0.0, rec.recovery_error - rec.bound_tight)
        for rec in records
        if rec.condition_ok and rec.bound_tight is not None
    ]
    summary = {
        "trials": len(records),
        "success_rate": sum(int(bool(r.success)) for r in records) / len(records),
        "max_bound_violation": max(violations) if violations else 0.0,
        "condition_certified": sum(int(r.condition_ok) for r in records),
        "cells": _success_cells(records, lambda r: f"m={r.m},s={r.s},rho={format_float(r.rho)}"),
    }
    return records, summary


def _run_phase_transition(spec: ExperimentSpec, g: dict):
    records = _recovery_grid(spec, g, g["m_values"], g["s_values"], [0.0])
    summary = {
        "trials": len(records),
        "cells": _success_cells(records, lambda r: f"m={r.m},s={r.s}"),
        "m_values": g["m_values"],
        "s_values": g["s_values"],
    }
    return records, summary


def _run_counterexample(spec: ExperimentSpec, g: dict):
    start = time.perf_counter()
    report = demo_counterexample(g["t"], g["s"], g["d"], g["l"], spec.solver)
    # condition_ok stays False: the instance sits exactly at the threshold
    rec = TrialRecord(
        trial_id=0,
        seed_stream=stream_key(spec.seed, 0),
        m=report.l * report.d,
        n=report.l * report.d,
        d=report.d,
        l=report.l,
        s=report.s,
        t=report.t,
        delta=report.delta,
        wall_time=time.perf_counter() - start,
    )
    summary = {
        "delta": report.delta,
        "threshold": report.threshold,
        "ric_order": report.ric_order,
        "x0_mixed_norm": report.x0_mixed_norm,
        "x_hat_mixed_norm": report.x_hat_mixed_norm,
        "expected_objective": report.expected_objective,
        "measurement_gap": report.measurement_gap,
        "solver_objective": report.solver_objective,
        "non_unique_minimizer": report.non_unique,
        "text": report.render(),
    }
    return [rec], summary


def _ric_trial(spec: ExperimentSpec, g: dict, trial_id: int, matrix_index: int, order: int) -> TrialRecord:
    start = time.perf_counter()
    structure = BlockStructure.uniform(g["d"], g["l"])
    phi = _make_matrix(g["ensemble"], g["m"], structure, stream_key(spec.seed, matrix_index, 0))
    cert = exact_block_ric(phi, order)
    cond = check_condition(cert.delta, g["t"], order)
    return TrialRecord(
        trial_id=trial_id,
        seed_stream=stream_key(spec.seed, matrix_index),
        m=g["m"],
        n=structure.total_dim,
        d=g["d"],
        l=g["l"],
        s=order,
        t=g["t"],
        delta=cert.delta,
        condition_ok=bool(cond.ok),
        wall_time=time.perf_counter() - start,
    )


def _run_ric_sweep(spec: ExperimentSpec, g: dict):
    matrices = g["matrices"] or g["trials"]
    records = [
        _ric_trial(spec, g, tid, idx, order)
        for tid, (idx, order) in enumerate(itertools.product(range(matrices), g["orders"]))
    ]
    deltas: dict[str, list] = {}
    for rec in records:
        deltas.setdefault(f"order={rec.s}", []).append(rec.delta)
    per_order = {key: {"min": min(ds), "max": max(ds), "mean": sum(ds) / len(ds)}
                 for key, ds in deltas.items()}
    summary = {"matrices": matrices, "orders": g["orders"], "per_order": per_order}
    return records, summary


def _run_identity_suite(spec: ExperimentSpec, g: dict):
    worst = {
        "subset_sum": 0.0,
        "subset_inner_product": 0.0,
        "subset_energy_difference": 0.0,
        "disjoint_pair_energy": 0.0,
    }
    polytope_checked = 0
    records: list[TrialRecord] = []
    for trial in range(g["trials"]):
        rng = generator(spec.seed, trial)
        s = int(rng.integers(2, g["max_blocks"] + 1))
        m = int(rng.integers(1, s + 1))
        vectors = [rng.standard_normal(4) for _ in range(s)]
        r1 = subset_sum_residual(vectors, m)
        r2 = subset_inner_product_residual(vectors, max(2, m))

        l = int(rng.integers(2, g["max_blocks"] + 1))
        d = int(rng.integers(1, 3))
        structure = BlockStructure.uniform(d, l)
        rows = int(rng.integers(2, 7))
        phi = SensingMatrix(rng.standard_normal((rows, structure.total_dim)) / np.sqrt(rows), structure)
        x = BlockSignal(rng.standard_normal(structure.total_dim), structure)
        mm = int(rng.integers(1, l + 1))
        nn = int(rng.integers(1, l + 1))
        r3 = subset_energy_difference_residual(phi, x, mm, nn)
        if l >= mm + nn:
            r4 = disjoint_pair_energy_residual(phi, x, mm, nn)
        else:
            r4 = disjoint_pair_energy_residual(phi, x, 1, 1)

        sp = int(rng.integers(1, l + 1))
        alpha = float(rng.uniform(0.5, 2.0))
        member = _random_polytope_member(rng, structure, sp, alpha)
        polytope_decompose(member, alpha, sp)
        polytope_checked += 1

        for name, res in zip(worst, (r1, r2, r3, r4)):
            worst[name] = max(worst[name], res)
        records.append(
            TrialRecord(
                trial_id=trial,
                seed_stream=stream_key(spec.seed, trial),
                m=rows,
                n=structure.total_dim,
                d=d,
                l=l,
                s=s,
                t=1.0,
                recovery_error=max(r1, r2, r3, r4),
                success=bool(max(r1, r2, r3, r4) <= 1e-10),
            )
        )
    summary = {
        "trials": g["trials"],
        "max_residuals": worst,
        "polytope_members_checked": polytope_checked,
        "all_below_1e-10": all(bool(r.success) for r in records),
    }
    return records, summary


def _random_polytope_member(rng, structure: BlockStructure, s: int, alpha: float) -> BlockSignal:
    """Random member of the block polytope with mixed norm up to s*alpha."""
    l = structure.num_blocks
    raw = rng.gamma(1.0, 1.0, l) * (rng.random(l) < 0.85)
    if raw.sum() == 0:
        raw[int(rng.integers(l))] = 1.0
    target = s * alpha * rng.uniform(0.2, 1.0)
    a = raw / raw.sum() * target
    for _ in range(200):
        over = a > alpha
        if not over.any():
            break
        excess = float((a[over] - alpha).sum())
        a[over] = alpha
        under = ~over & (a > 0)
        if not under.any():
            break
        a[under] += excess * a[under] / a[under].sum()
    a = np.minimum(a, alpha)
    coeffs = np.zeros(structure.total_dim)
    for i in range(l):
        if a[i] > 0:
            sl = structure.block_slice(i)
            direction = rng.standard_normal(sl.stop - sl.start)
            coeffs[sl] = direction * (a[i] / np.linalg.norm(direction))
    return BlockSignal(coeffs, structure)


_RUNNERS = {
    "RECOVERY_TRIALS": _run_recovery_trials,
    "PHASE_TRANSITION": _run_phase_transition,
    "COUNTEREXAMPLE": _run_counterexample,
    "RIC_SWEEP": _run_ric_sweep,
    "IDENTITY_SUITE": _run_identity_suite,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute the experiment grid deterministically and write its outputs.

    Writes `<output_path>.csv` (per-trial records) and `<output_path>.json`
    (summary).  Outputs for identical (spec, seed) are identical apart from
    the wall_time column.
    """
    spec = _checks.instance("spec", spec, ExperimentSpec)
    records, summary = _RUNNERS[spec.kind](spec, _grid_values(spec.kind, spec.grid))
    header = {
        "kind": spec.kind,
        "seed": spec.seed,
        "success_tol": format_float(spec.success_tol),
    }
    csv_path = spec.output_path + ".csv"
    json_path = spec.output_path + ".json"
    records_to_csv(records, csv_path, header)
    payload = {
        "kind": spec.kind,
        "seed": spec.seed,
        "success_tol": spec.success_tol,
        "grid": spec.grid,
        "summary": summary,
    }
    Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return ExperimentReport(
        spec=spec,
        records=tuple(records),
        summary=summary,
        csv_path=csv_path,
        json_path=json_path,
    )
