"""sha256 digests of the benchmark workloads' outputs, to show that a change keeps them bit for bit.

    python3 tools/output_digest.py --seed 20250810
    python3 tools/output_digest.py --seed 20250810 --tree ../parent-checkout

It imports `blockcs` from `<tree>/src` and builds the instances with
`<tree>/bench/workloads.py` (the tree is the repository this script sits in,
unless `--tree` names another), runs one pass of four workloads, then the
batch oracle, and prints one line per digest, `<name> <sha256> <records>`:

- `recover_exact`, at `--seed`: for each unit in pass order and each column,
  the solver result (estimate coefficients, objective, feasibility gap,
  primal residual, dual residual, error-vector norm, iterations, converged),
  then the oracle outcome of the same column (estimate coefficients,
  residual, support, sparsity, supports searched).
- `recover_noisy`, at `--seed`: for each unit in pass order and each column,
  the solver result, fields as above.
- `phase_sweep`, always at the workload's seed 42 (`--seed` does not move
  it): the CLI sweep of the workload's first unit, its CSV with the last
  field (`wall_time`) cut from the header and from every row, then its
  summary JSON as written.
- `ric_certify`, at `--seed`: for each unit in pass order, the matrix's
  entries, then its certificate (delta, worst support, smallest and largest
  eigenvalue, supports enumerated).
- `oracle_batch`, at `--seed`: for each `recover_exact` unit in pass order,
  one `brute_force_l20_batch` call on all its columns, which the benchmark
  never makes, and each column's outcome in order, fields as in
  `recover_exact` (a column that no support fits enters its best residual and
  message).

Coefficients enter as little-endian float64 bytes, every other field as its
`repr` and a newline, texts as UTF-8.  `--small` takes the workloads' small
families and grid, which `tests/test_output_digest.py` runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _feed(h, *values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(value.astype("<f8").tobytes())
        elif isinstance(value, str):
            h.update(value.encode())
        else:
            h.update(f"{value!r}\n".encode())


def _feed_result(h, res) -> None:
    _feed(h, res.estimate.coeffs, res.objective, res.feasibility_gap, res.primal_residual,
          res.dual_residual, res.error_vector_norm, res.iterations, res.converged)


def _feed_oracle(h, orc) -> None:
    if isinstance(orc, Exception):  # a NoSparseFitError the batch call returns
        _feed(h, orc.best_residual, str(orc))
    else:
        _feed(h, orc.estimate.coeffs, orc.residual, orc.support, orc.sparsity, orc.supports_searched)


def digests(tree: Path, seed: int, small: bool) -> dict[str, tuple[str, int]]:
    """{name: (sha256 hex, records hashed)} of the four workloads and the batch oracle in `tree`.

    It puts `<tree>/bench` and `<tree>/src` at the front of `sys.path` and imports
    `workloads` from there; both are as before when it returns or raises."""
    path, workloads = list(sys.path), sys.modules.pop("workloads", None)
    sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
    try:
        blockcs = importlib.import_module("blockcs")
        if (tree / "src").resolve() not in Path(blockcs.__file__).resolve().parents:
            raise ImportError(f"blockcs was imported from {blockcs.__file__}, not from {tree / 'src'}")
        cli = importlib.import_module("blockcs.cli")
        api = SimpleNamespace(**{name: getattr(blockcs, name) for name in blockcs.__all__}, main=cli.main)
        return _digests(api, importlib.import_module("workloads"), seed, small)
    finally:
        sys.path[:] = path
        sys.modules.pop("workloads", None)
        if workloads is not None:
            sys.modules["workloads"] = workloads


def _digests(api, workloads, seed: int, small: bool) -> dict[str, tuple[str, int]]:
    out = {}

    h, records = hashlib.sha256(), 0
    exact = wl = workloads.RecoverExact(seed, small)
    wl.setup(api)
    for unit in wl.units:
        results, oracles = wl.run(api, unit)
        for res, orc in zip(results, oracles, strict=True):
            _feed_result(h, res)
            _feed_oracle(h, orc)
            records += 2
    out["recover_exact"] = (h.hexdigest(), records)

    h, records = hashlib.sha256(), 0
    wl = workloads.RecoverNoisy(seed, small)
    wl.setup(api)
    for unit in wl.units:
        for res in wl.run(api, unit):
            _feed_result(h, res)
            records += 1
    out["recover_noisy"] = (h.hexdigest(), records)

    with tempfile.TemporaryDirectory(prefix="digest-") as workdir:
        wl = workloads.PhaseSweep(workloads.PhaseSweep.default_seed, small, Path(workdir))
        try:
            wl.setup(api)
            code, csv_text, json_text = wl.run(api, wl.units[0])
        finally:
            wl.close()
    if code != 0:
        raise RuntimeError(f"the sweep exited {code}")
    lines = csv_text.splitlines()
    h = hashlib.sha256()
    _feed(h, lines[0] + "\n", *(line.rsplit(",", 1)[0] + "\n" for line in lines[1:]), json_text)
    out["phase_sweep"] = (h.hexdigest(), len(lines) - 2)

    h = hashlib.sha256()
    wl = workloads.RicCertify(seed, small)
    wl.setup(api)
    for unit in wl.units:
        phi, cert = wl.run(api, unit)
        _feed(h, phi.entries, cert.delta, cert.worst_support, cert.min_eig, cert.max_eig,
              cert.supports_enumerated)
    out["ric_certify"] = (h.hexdigest(), len(wl.units))

    h, records = hashlib.sha256(), 0
    for unit in exact.units:
        inst, _, B = unit.data
        for orc in api.brute_force_l20_batch(inst.phi, B, s_max=workloads.S):
            _feed_oracle(h, orc)
            records += 1
    out["oracle_batch"] = (h.hexdigest(), records)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=20250810,
                   help="seed of recover_exact, recover_noisy and ric_certify (default: 20250810)")
    p.add_argument("--small", action="store_true", help="the workloads' small families and grid")
    p.add_argument("--tree", type=Path, default=ROOT,
                   help="repository to take src/ and bench/ from (default: this one)")
    args = p.parse_args(argv)
    for name, (digest, records) in digests(args.tree.resolve(), args.seed, args.small).items():
        print(f"{name} {digest} {records}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
