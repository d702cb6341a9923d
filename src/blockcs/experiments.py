"""Experiment harness: seeded batch trials, phase-transition sweeps, the
threshold counterexample demonstration, and machine-readable reporting.

A kind is three things in `_KINDS`: its trials' parameters in trial-id
order, a trial that returns one record's fields, and a summary of the
records.  `run_experiment` runs every kind through one loop, which numbers
and times each trial.  Every trial draws from its own Philox stream keyed
by (experiment seed, trial id), so a trial's record depends only on the
spec and its trial id.  Per-trial records go to CSV (17-significant-digit
floats, exact round-trip); aggregate summaries go to JSON.  The wall_time
column, measured for every trial, is the only nondeterministic field in the
outputs.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _checks
from .blocks import BlockSignal, BlockStructure, SensingMatrix, mixed_norm_2_1
from .ric import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    _check_order,
    _effective_order,
    check_condition,
    condition_threshold,
    error_bound_loose,
    error_bound_tight,
    exact_block_ric,
)
from .seeding import generator, stream_key
from .sensing import (_check_balance_blocks, _sharpness_arguments, apply, gaussian_matrix, sharpness_instance,
                      spread_kernel_matrix)
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


def _admissible_t(value) -> float:
    """float in (0, 4/3)"""
    return _checks.real("value", value, 0.0, 4.0 / 3.0, strict=True)


# the largest max_blocks whose identity trials stay within the enumeration cap: the disjoint
# pairs C(l, m) * C(l - m, n) of l blocks at their largest outgrow every other identity's count
_IDENTITY_BLOCKS = next(l - 1 for l in itertools.count(3) if DEFAULT_ENUMERATION_CAP < max(
    math.comb(l, m) * math.comb(l - m, n) for m in range(1, l) for n in range(1, l - m + 1)))


def _identity_blocks(value) -> int:
    return _checks.count("value", value, 2, _IDENTITY_BLOCKS)


_identity_blocks.__doc__ = f"int in [2, {_IDENTITY_BLOCKS}] (every enumeration within the cap)"


_COUNT = _at_least(int, 1)
_REQUIRED = object()  # grid-format default of a key the spec must give
# grid keys of the kinds that draw matrices: their block structure, t and ensemble
_MATRIX_KEYS = {
    "l": (_COUNT, _REQUIRED),
    "d": (_COUNT, 2),
    "t": (_at_least(float, 0.0), 1.0),
    "ensemble": (_one_of("gaussian", "spread_kernel", "identity"), "gaussian"),
}

# experiment kind -> grid key -> (conversion, default or _REQUIRED); a default
# goes through the conversion too
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
        "t": (_admissible_t, 1.0),
        "s": (_COUNT, 2),
        "d": (_COUNT, 2),
        "l": (_COUNT, 6),
    },
    "RIC_SWEEP": {
        **_MATRIX_KEYS,
        "m": (_COUNT, _REQUIRED),
        "orders": (_list_of(_COUNT), [1, 2]),
        "matrices": (_COUNT, 1),
    },
    "IDENTITY_SUITE": {
        "trials": (_COUNT, 200),
        "max_blocks": (_identity_blocks, 8),
    },
}
EXPERIMENT_KINDS = tuple(_GRID_FORMATS)

_RIC_AUTO_CAP = 10_000  # compute_ric computes exact constants only up to this many supports
_flag.__doc__ = f"bool (δ only where C(l, order) ≤ {_RIC_AUTO_CAP:,})"  # compute_ric's only conversion

# ensemble -> how its row count m must compare with its column count l*d
_ROWS = {"spread_kernel": (operator.lt, "<"), "identity": (operator.eq, "==")}


def _grid_values(kind: str, grid: dict) -> dict:
    """Every grid key of `kind`, converted, with defaults filled in; a
    ValueError names the first unknown, missing or malformed key."""
    formats = _GRID_FORMATS[kind]
    unknown = [key for key in grid if key not in formats]
    if unknown:
        raise ValueError(f"{kind} grid has no key {unknown[0]!r}; it reads {sorted(formats)}")
    values = {}
    for key, (convert, default) in formats.items():
        if key not in grid and default is _REQUIRED:
            raise ValueError(f"{kind} grid lacks the required key {key!r}")
        try:
            values[key] = convert(grid.get(key, default))
        except ValueError as exc:
            raise ValueError(f"{kind} grid key {key!r}: {exc}") from None
    for key in ("s", "s_values", "orders"):
        if key in values and max(np.atleast_1d(values[key])) > values["l"]:
            raise ValueError(f"{kind} grid key {key!r} asks for more than l = {values['l']} blocks")
    for order in values.get("orders", []):  # each order's exact RIC enumerates C(l, order) supports
        try:
            _check_order(values["l"], order)
        except EnumerationCapError as exc:
            raise ValueError(f"{kind} grid key 'orders': {exc}") from None
    try:  # the spread_kernel matrix balances its order-2 RIC: l must fit it and the enumeration cap
        if values.get("ensemble") == "spread_kernel":
            _check_balance_blocks(values["l"])
    except (ValueError, EnumerationCapError) as exc:
        raise ValueError(f"{kind} grid key 'l': the spread_kernel ensemble cannot be built: {exc}") from None
    if values.get("ensemble") in _ROWS:
        fits, op = _ROWS[values["ensemble"]]
        n = values["l"] * values["d"]
        for key in ("m", "m_values"):
            bad = [m for m in np.atleast_1d(values.get(key, [])) if not fits(m, n)]
            if bad:
                raise ValueError(f"{kind} grid key {key!r}: the {values['ensemble']} ensemble needs "
                                 f"m {op} l*d = {n}, got {bad[0]}")
    if kind == "COUNTEREXAMPLE":
        if values["l"] <= 2 * values["s"]:
            raise ValueError(f"{kind} grid key 'l': the threshold instance needs l > 2s = {2 * values['s']}, "
                             f"got {values['l']}")
        try:  # the instance's exact RIC enumerates C(l, order) supports
            _check_order(values["l"], max(1, _effective_order(values["t"], values["s"])))
        except EnumerationCapError as exc:
            raise ValueError(f"{kind} grid key 'l': {exc}") from None
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
    settings = [f.name for f in fields(SolverConfig)]
    unknown = [key for key in solver if key not in settings]
    if unknown:
        raise ValueError(f"experiment spec key 'solver' has no key {unknown[0]!r}; it reads {settings}")
    try:
        solver = SolverConfig(**solver)
    except ValueError as exc:
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
_OPTIONAL = {f.name for f in fields(TrialRecord) if f.default is None}  # the cells that may be empty


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


def _parse_cell(name: str, text: str):
    """The value of a `name` cell."""
    if text == "" and name in _OPTIONAL:
        return None
    if _CSV_TYPES[name].startswith("bool"):
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    return int(text) if _CSV_TYPES[name] == "int" else float(text)


def records_from_csv(path) -> list[TrialRecord]:
    """The records of a trial CSV; a ValueError names the path, and the line
    and column of a malformed row or cell."""
    records = []
    lines = Path(path).read_text().splitlines()
    body = [(number, ln) for number, ln in enumerate(lines, 1) if ln and not ln.startswith("#")]
    if not body or body[0][1] != ",".join(_CSV_COLUMNS):
        raise ValueError(f"{path} does not carry the blockcs trial schema")
    for number, line in body[1:]:
        cells = line.split(",")
        if len(cells) != len(_CSV_COLUMNS):
            raise ValueError(f"{path} line {number}: malformed trial row {line!r}")
        kwargs = {}
        for name, cell in zip(_CSV_COLUMNS, cells):
            try:
                kwargs[name] = _parse_cell(name, cell)
            except ValueError as exc:
                raise ValueError(f"{path} line {number} column {name!r}: {exc}") from None
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
    two equal-objective witnesses sharing one measurement.  The arguments and
    the C(l, order) supports of the constant are checked before anything is built."""
    t, s, d, l = _sharpness_arguments(t, s, d, l)
    order = max(1, _effective_order(t, s))
    _check_order(l, order)
    inst = sharpness_instance(t, s, d, l)
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
    return SensingMatrix(np.eye(m), structure)


def _random_block_sparse(rng, structure: BlockStructure, s: int) -> BlockSignal:
    support = sorted(rng.choice(structure.num_blocks, size=s, replace=False).tolist())
    coeffs = np.zeros(structure.total_dim)
    for i in support:
        sl = structure.block_slice(i)
        coeffs[sl] = rng.standard_normal(sl.stop - sl.start)
    return BlockSignal(coeffs, structure)


def _recovery_trial(spec: ExperimentSpec, g: dict, trial_id: int, m: int, s: int, rho: float, _repeat: int):
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
    return dict(seed_stream=stream_key(spec.seed, trial_id), m=m, n=structure.total_dim, d=d, l=l, s=s, t=t,
                rho=rho, delta=delta, condition_ok=condition_ok, recovery_error=err, bound_tight=bound_t,
                bound_loose=bound_l, success=bool(rel_err <= spec.success_tol)), None


def _success_cells(records, cell_key) -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for rec in records:
        cell = cells.setdefault(cell_key(rec), {"trials": 0, "successes": 0})
        cell["trials"] += 1
        cell["successes"] += int(bool(rec.success))
    for cell in cells.values():
        cell["success_rate"] = cell["successes"] / cell["trials"]
    return cells


def _recovery_summary(g: dict, records: list, _) -> dict:
    violations = [
        max(0.0, rec.recovery_error - rec.bound_tight)
        for rec in records
        if rec.condition_ok and rec.bound_tight is not None
    ]
    return {
        "trials": len(records),
        "success_rate": sum(int(bool(r.success)) for r in records) / len(records),
        "max_bound_violation": max(violations) if violations else 0.0,
        "condition_certified": sum(int(r.condition_ok) for r in records),
        "cells": _success_cells(records, lambda r: f"m={r.m},s={r.s},rho={format_float(r.rho)}"),
    }


def _phase_summary(g: dict, records: list, _) -> dict:
    return {
        "trials": len(records),
        "cells": _success_cells(records, lambda r: f"m={r.m},s={r.s}"),
        "m_values": g["m_values"],
        "s_values": g["s_values"],
    }


def _counterexample_trial(spec: ExperimentSpec, g: dict, trial_id: int):
    report = demo_counterexample(g["t"], g["s"], g["d"], g["l"], spec.solver)
    # condition_ok stays False: the instance sits exactly at the threshold
    n = report.l * report.d
    return dict(seed_stream=stream_key(spec.seed, trial_id), m=n, n=n, d=report.d, l=report.l, s=report.s,
                t=report.t, delta=report.delta), report


def _counterexample_summary(g: dict, records: list, reports: list) -> dict:
    (report,) = reports
    return {
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


def _ric_trial(spec: ExperimentSpec, g: dict, trial_id: int, matrix_index: int, order: int):
    structure = BlockStructure.uniform(g["d"], g["l"])
    phi = _make_matrix(g["ensemble"], g["m"], structure, stream_key(spec.seed, matrix_index, 0))
    delta = exact_block_ric(phi, order).delta
    return dict(seed_stream=stream_key(spec.seed, matrix_index), m=g["m"], n=structure.total_dim, d=g["d"],
                l=g["l"], s=order, t=g["t"], delta=delta,
                condition_ok=bool(check_condition(delta, g["t"], order).ok)), None


def _ric_summary(g: dict, records: list, _) -> dict:
    deltas = {f"order={order}": [rec.delta for rec in records if rec.s == order] for order in g["orders"]}
    per_order = {key: {"min": min(ds), "max": max(ds), "mean": sum(ds) / len(ds)}
                 for key, ds in deltas.items()}
    return {"matrices": g["matrices"], "orders": g["orders"], "per_order": per_order}


_IDENTITIES = ("subset_sum", "subset_inner_product", "subset_energy_difference", "disjoint_pair_energy")


def _identity_trial(spec: ExperimentSpec, g: dict, trial_id: int):
    rng = generator(spec.seed, trial_id)
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
    r4 = disjoint_pair_energy_residual(phi, x, *((mm, nn) if l >= mm + nn else (1, 1)))

    sp = int(rng.integers(1, l + 1))
    alpha = float(rng.uniform(0.5, 2.0))
    polytope_decompose(_random_polytope_member(rng, structure, sp, alpha), alpha, sp)
    worst = max(r1, r2, r3, r4)
    return dict(seed_stream=stream_key(spec.seed, trial_id), m=rows, n=structure.total_dim, d=d, l=l, s=s,
                t=1.0, recovery_error=worst, success=bool(worst <= 1e-10)), (r1, r2, r3, r4)


def _identity_summary(g: dict, records: list, residuals: list) -> dict:
    return {
        "trials": g["trials"],
        "max_residuals": {name: max(0.0, *res) for name, res in zip(_IDENTITIES, zip(*residuals))},
        "polytope_members_checked": len(records),  # one member decomposed per trial
        "all_below_1e-10": all(bool(r.success) for r in records),
    }


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


# kind -> (trial parameters, trial, summary), as the module docstring says; a trial
# also returns what the summary reads of it besides the records.  The trials look up
# gaussian_matrix, exact_block_ric and solve_noiseless here at call time, where the
# benchmark swaps them, so the table holds no such function itself.
_KINDS = {
    "RECOVERY_TRIALS": (lambda g: itertools.product([g["m"]], [g["s"]], g["rho"], range(g["trials"])),
                        _recovery_trial, _recovery_summary),
    "PHASE_TRANSITION": (lambda g: itertools.product(g["m_values"], g["s_values"], [0.0], range(g["trials"])),
                         _recovery_trial, _phase_summary),
    "COUNTEREXAMPLE": (lambda g: [()], _counterexample_trial, _counterexample_summary),
    "RIC_SWEEP": (lambda g: itertools.product(range(g["matrices"]), g["orders"]),
                  _ric_trial, _ric_summary),
    "IDENTITY_SUITE": (lambda g: [()] * g["trials"], _identity_trial, _identity_summary),
}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute the experiment grid deterministically and write its outputs.

    Writes `<output_path>.csv` (per-trial records) and `<output_path>.json`
    (summary).  Outputs for identical (spec, seed) are identical apart from
    the wall_time column.
    """
    spec = _checks.instance("spec", spec, ExperimentSpec)
    g = _grid_values(spec.kind, spec.grid)
    params, trial, summarize = _KINDS[spec.kind]
    records, extras = [], []
    for trial_id, args in enumerate(params(g)):
        start = time.perf_counter()
        values, extra = trial(spec, g, trial_id, *args)
        records.append(TrialRecord(trial_id=trial_id, **values, wall_time=time.perf_counter() - start))
        extras.append(extra)
    summary = summarize(g, records, extras)
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
