"""Command-line front end.

Subcommands: recover, ric, bound, oracle, counterexample, sweep,
verify-identities.  Exit codes: 0 success, 1 invalid input (including an
enumeration over the cap and observations no point can satisfy), 2 I/O
error, 3 non-convergence in a required solve.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

from .experiments import (
    ExperimentSpec,
    demo_counterexample,
    run_experiment,
    spec_from_json,
)
from .oracle import DEFAULT_RESIDUAL_TOL, NoSparseFitError, brute_force_l20
from .ric import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    error_bound_loose,
    error_bound_tight,
    exact_block_ric,
)
from .serialize import (
    load_json,
    load_matrix,
    load_matrix_csv,
    load_signal,
    save_json,
    signal_to_json,
)
from .solvers import InfeasibleProblemError, SolverConfig, solve_noisy

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # map argparse usage failures onto exit code 1 instead of its default 2
    def error(self, message):
        raise _UsageError(message)


def _load_matrix_arg(path: str, structure_path: str | None):
    if path.endswith(".csv"):
        if structure_path is None:
            raise _UsageError("CSV matrix import needs --structure SIDECAR.json")
        return load_matrix_csv(path, structure_path)
    return load_matrix(path)


def _load_vector(path: str):
    obj = load_json(path)
    return obj["values"] if isinstance(obj, dict) and "values" in obj else obj


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**{name: getattr(args, name) for name in ("max_iters", "tol")
                           if getattr(args, name) is not None})


def _emit(payload, out: str | None) -> None:
    if out:
        save_json(payload, out)
    else:
        print(json.dumps(payload, indent=2, allow_nan=False))


def _cmd_recover(args) -> int:
    phi = _load_matrix_arg(args.matrix, args.structure)
    b = _load_vector(args.obs)
    truth = load_signal(args.truth) if args.truth else None
    result = solve_noisy(phi, b, args.rho, _solver_config(args), truth=truth)
    payload = {
        **vars(result),
        "estimate": signal_to_json(result.estimate),
        "rho": args.rho,
    }
    _emit(payload, args.out)
    return 0 if result.converged else 3


def _cmd_ric(args) -> int:
    phi = _load_matrix_arg(args.matrix, args.structure)
    start = time.perf_counter()
    cert = exact_block_ric(phi, args.order, cap=args.cap)
    elapsed = time.perf_counter() - start
    payload = {
        **asdict(cert),
        "wall_time": elapsed,
    }
    _emit(payload, args.out)
    return 0


def _cmd_bound(args) -> int:
    reports = []
    if args.variant in ("tight", "both"):
        reports.append(error_bound_tight(args.t, args.s, args.delta, args.rho, args.tail))
    if args.variant in ("loose", "both"):
        reports.append(error_bound_loose(args.t, args.s, args.delta, args.rho, args.tail))
    payload = [asdict(rep) for rep in reports]
    _emit({"bounds": payload} if args.out else payload, args.out)
    return 0


def _cmd_oracle(args) -> int:
    phi = _load_matrix_arg(args.matrix, args.structure)
    b = _load_vector(args.obs)
    try:
        sol = brute_force_l20(phi, b, args.smax, residual_tol=args.residual_tol)
        payload = {
            "found": True,
            **vars(sol),
            "estimate": signal_to_json(sol.estimate),
        }
    except NoSparseFitError as exc:
        payload = {"found": False, "best_residual": exc.best_residual, "message": str(exc)}
    _emit(payload, args.out)
    return 0


def _cmd_counterexample(args) -> int:
    report = demo_counterexample(args.t, args.s, args.d, args.l)
    print(report.render())
    if args.out:
        save_json(asdict(report), args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = spec_from_json(load_json(args.config))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["output_path"] = args.out
    report = run_experiment(replace(spec, **overrides))
    print(f"wrote {report.csv_path} and {report.json_path}")
    return 0


def _cmd_verify_identities(args) -> int:
    spec = ExperimentSpec(
        kind="IDENTITY_SUITE",
        seed=args.seed,
        grid={"trials": args.trials, "max_blocks": args.max_blocks},
        output_path=args.out or "identities",
    )
    report = run_experiment(spec)
    print(json.dumps(report.summary, indent=2, sort_keys=True))
    return 0 if report.summary["all_below_1e-10"] else 1


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="output path")
    matrix = _Parser(add_help=False)
    matrix.add_argument("--matrix", required=True)
    matrix.add_argument("--structure", default=None, help="sidecar structure JSON for CSV matrices")

    parser = _Parser(prog="blockcs", description="Block-sparse compressed sensing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", parents=[common, matrix], help="solve the mixed-norm recovery program")
    p.add_argument("--obs", required=True)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--truth", default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("ric", parents=[common, matrix], help="exact block restricted-isometry constant")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.set_defaults(fn=_cmd_ric)

    p = sub.add_parser("bound", parents=[common], help="evaluate the recovery error bounds")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--tail", type=float, default=0.0)
    p.add_argument("--variant", choices=("tight", "loose", "both"), default="both")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("oracle", parents=[common, matrix], help="brute-force sparsest block fit")
    p.add_argument("--obs", required=True)
    p.add_argument("--smax", type=int, required=True)
    p.add_argument("--residual-tol", type=float, default=DEFAULT_RESIDUAL_TOL)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("counterexample", parents=[common], help="threshold-sharpness demonstration")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--l", type=int, default=6)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("sweep", parents=[common], help="run an experiment spec")
    p.add_argument("--config", required=True, help="JSON experiment spec")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify-identities", parents=[common], help="randomized identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-blocks", type=int, default=8)
    p.set_defaults(fn=_cmd_verify_identities)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, ValueError, EnumerationCapError, InfeasibleProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
