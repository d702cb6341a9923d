"""The four workloads of the blockcs benchmark.

A workload builds its inputs from the seed in `setup`, splits one pass of
work into units, runs a unit through the public functions it is handed
(`api`, plain or traced) and checks the unit's outputs.  `Unit.ops` is how
many user-level operations a unit completes: problems solved, sweep trials
run or matrices certified.  `check` returns how many of them failed; an op
that raised counts as failed in the loop that runs the units.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import blockcs
from blockcs import BlockSignal, BlockStructure, apply, generator, stream_key

T, S = 1.0, 2  # recovery regime of the acceptance workloads: order t*s = 2
RHOS = (1e-3, 1e-2, 1e-1)
SWEEP_SEEDS = 8
EXACT_TOL = 1e-5
FEAS_TOL = 1e-8

# acceptance families: (blocks l, block length d, rows m, instances to certify)
FAMILIES = ((12, 2, 21, 8), (12, 2, 20, 4), (8, 2, 14, 4), (6, 2, 11, 4))
SMALL_FAMILIES = ((6, 2, 11, 2), (5, 2, 9, 1))


@dataclass(frozen=True)
class Unit:
    ops: int
    data: object


@dataclass(frozen=True)
class Instance:
    phi: object
    delta: float
    index: int


def certify_instances(api, seed: int, families) -> list[Instance]:
    """Certified spread-kernel instances, searched as the acceptance suite does.

    `Instance.index` numbers them family by family, as the acceptance suite
    does, so at its seed the workloads draw the acceptance problems.  The
    returned order spreads each family evenly over the pass, so any prefix
    of a pass holds a similar mix of problem sizes.
    """
    per_family = []
    index = 0
    for l, d, m, count in families:
        structure = BlockStructure.uniform(d, l)
        found = []
        for offset in range(20 * count):
            phi = api.spread_kernel_matrix(m, structure, seed=seed + offset)
            delta = api.exact_block_ric(phi, int(round(T * S))).delta
            if blockcs.check_condition(delta, T, S).ok:
                found.append(Instance(phi, delta, index))
                index += 1
                if len(found) == count:
                    break
        if len(found) < count:
            raise RuntimeError(f"could not certify {count} instances of family {(l, d, m)}")
        per_family.append(found)
    slots = sorted(
        ((rank + 0.5) / len(found), fam, rank)
        for fam, found in enumerate(per_family)
        for rank in range(len(found))
    )
    return [per_family[fam][rank] for _, fam, rank in slots]


class Workload:
    """Common state: the seed, the units of one pass and a scratch directory.

    A pass splits into rounds of `round_units` consecutive units (None: the
    whole pass).  Rounds of one workload do the same kind and amount of work,
    so their throughputs are comparable and the run reports their median.
    """

    name = ""
    default_seed = 0
    round_units: int | None = None

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.units: list[Unit] = []

    def rounds(self) -> list[list[Unit]]:
        size = self.round_units or len(self.units)
        return [self.units[i:i + size] for i in range(0, len(self.units), size)]

    def close(self) -> None:
        """Remove whatever the workload wrote to its scratch directory."""


def _block_sparse(rng, structure, support) -> BlockSignal:
    coeffs = np.zeros(structure.total_dim)
    for i in support:
        sl = structure.block_slice(i)
        coeffs[sl] = rng.standard_normal(sl.stop - sl.start)
    return BlockSignal(coeffs, structure)


class RecoverExact(Workload):
    """Criterion-2 traffic: every block 2-support x 3 draws per certified
    instance, one noiseless batch solve per instance, each column matched
    against the brute-force oracle."""

    name = "recover_exact"
    default_seed = 20250810
    round_units = 5  # 2 + 1 + 1 + 1 instances of the four families

    def setup(self, api) -> None:
        units = []
        families = SMALL_FAMILIES if self.small else FAMILIES
        for inst in certify_instances(api, self.seed, families):
            structure = inst.phi.structure
            rng = generator(self.seed, 1, inst.index)
            truths = [
                _block_sparse(rng, structure, sup)
                for sup in itertools.combinations(range(structure.num_blocks), S)
                for _ in range(3)
            ]
            B = np.column_stack([apply(inst.phi, x) for x in truths])
            units.append(Unit(len(truths), (inst, truths, B)))
        self.units = units

    def warm_up(self, api) -> None:
        inst, truths, B = self.units[0].data
        api.solve_noiseless_batch(inst.phi, B[:, :2])
        api.brute_force_l20(inst.phi, B[:, 0], s_max=S)

    def run(self, api, unit: Unit):
        inst, truths, B = unit.data
        results = api.solve_noiseless_batch(inst.phi, B, truths=truths)
        oracles = [api.brute_force_l20(inst.phi, B[:, j], s_max=S) for j in range(B.shape[1])]
        return results, oracles

    def check(self, unit: Unit, outputs) -> int:
        _, truths, _ = unit.data
        results, oracles = outputs
        failed = 0
        for x, res, orc in zip(truths, results, oracles):
            scale = np.linalg.norm(x.coeffs)
            est = res.estimate.coeffs
            ok = (
                res.converged
                and np.linalg.norm(est - x.coeffs) <= EXACT_TOL * scale
                and np.linalg.norm(est - orc.estimate.coeffs) <= EXACT_TOL * max(1.0, scale)
            )
            failed += not ok
        return failed + abs(len(truths) - len(results)) + abs(len(truths) - len(oracles))


class RecoverNoisy(Workload):
    """Criterion-3 traffic: 12 noisy problems per certified instance, noise
    norms 1e-3, 1e-2 and 1e-1 mixed in one batch solve, each error held to
    the tight bound."""

    name = "recover_noisy"
    default_seed = 20250810
    round_units = 5
    draws = 4  # per noise norm and instance

    def setup(self, api) -> None:
        units = []
        families = SMALL_FAMILIES if self.small else FAMILIES
        for inst in certify_instances(api, self.seed, families):
            structure = inst.phi.structure
            rng = generator(self.seed, 2, inst.index)
            truths, obs, rhos, bounds = [], [], [], []
            for rho in RHOS:
                bound = blockcs.error_bound_tight(T, S, inst.delta, rho, 0.0).bound
                for _ in range(self.draws):
                    support = sorted(rng.choice(structure.num_blocks, size=S, replace=False).tolist())
                    x = _block_sparse(rng, structure, support)
                    xi = rng.standard_normal(inst.phi.num_rows)
                    truths.append(x)
                    obs.append(apply(inst.phi, x) + xi * (rho / np.linalg.norm(xi)))
                    rhos.append(rho)
                    bounds.append(bound)
            units.append(Unit(len(truths), (inst, truths, np.column_stack(obs), rhos, bounds)))
        self.units = units

    def warm_up(self, api) -> None:
        inst, truths, B, rhos, _ = self.units[0].data
        api.solve_noisy_batch(inst.phi, B[:, -2:], rhos[-2:])

    def run(self, api, unit: Unit):
        inst, truths, B, rhos, _ = unit.data
        return api.solve_noisy_batch(inst.phi, B, rhos, truths=truths)

    def check(self, unit: Unit, results) -> int:
        _, truths, _, _, bounds = unit.data
        failed = 0
        for x, res, bound in zip(truths, results, bounds):
            err = np.linalg.norm(res.estimate.coeffs - x.coeffs)
            failed += not (res.converged and err <= bound + 2 * FEAS_TOL)
        return failed + abs(len(truths) - len(results))


class PhaseSweep(Workload):
    """The 120-trial PHASE_TRANSITION grid run in-process through the CLI.

    A pass sweeps `SWEEP_SEEDS` seeds: the run's seed and seeds mixed from it
    by `stream_key`, so runs with nearby seeds share no sweep.  The work per
    sweep depends heavily on the seed (a few trials near the phase transition
    take thousands of iterations), so every round of a run sweeps another
    seed.  Every sweep must write the same CSV and JSON, apart from
    wall_time, as the first sweep of its seed; the sweep that repeats a seed
    is the untimed repeat after the timed loop.
    """

    name = "phase_sweep"
    default_seed = 42
    round_units = 1

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        super().__init__(seed, small, workdir)
        grid = {"l": 12, "d": 2, "m_values": [8, 12, 16, 20, 24], "s_values": [1, 2, 3, 4],
                "trials": 6}
        if small:
            grid = {"l": 8, "d": 2, "m_values": [8, 16], "s_values": [1, 2], "trials": 2}
        grid.update(ensemble="gaussian", compute_ric=True)
        self.grid = grid
        self.trials = len(grid["m_values"]) * len(grid["s_values"]) * grid["trials"]
        self.full_m = max(grid["m_values"])
        self.tmp = None
        self.spec = None
        self.reference: dict = {}
        self._count = 0

    def _write_spec(self, path: Path, grid: dict) -> None:
        spec = {"kind": "PHASE_TRANSITION", "seed": self.seed, "grid": grid}
        path.write_text(json.dumps(spec))

    def setup(self, api) -> None:
        if self.tmp is None:
            self.tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
        self.spec = self.tmp / "spec.json"
        self._write_spec(self.spec, self.grid)
        seeds = [self.seed, *(stream_key(self.seed, k) for k in range(1, SWEEP_SEEDS))]
        self.units = [Unit(self.trials, seed) for seed in seeds[: 2 if self.small else None]]
        self.reference = {}

    def warm_up(self, api) -> None:
        spec = self.tmp / "warm_up.json"
        self._write_spec(spec, dict(self.grid, m_values=[self.full_m], s_values=[1], trials=1))
        self._sweep(api, spec, self.seed)

    def _sweep(self, api, spec: Path, seed: int):
        self._count += 1
        prefix = self.tmp / f"sweep{self._count}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = api.main(["sweep", "--config", str(spec), "--seed", str(seed),
                             "--out", str(prefix)])
        csv_path, json_path = prefix.with_suffix(".csv"), prefix.with_suffix(".json")
        outputs = (code, csv_path.read_text(), json_path.read_text())
        csv_path.unlink()
        json_path.unlink()
        return outputs

    def run(self, api, unit: Unit):
        return self._sweep(api, self.spec, unit.data)

    def check(self, unit: Unit, outputs) -> int:
        code, csv_text, json_text = outputs
        # wall_time is the last CSV column and the only field allowed to differ
        rows = [line.rsplit(",", 1)[0] for line in csv_text.splitlines()[2:]]
        summary = json.loads(json_text)["summary"]
        full = summary["cells"].get(f"m={self.full_m},s=1", {}).get("success_rate")
        if code != 0 or len(rows) != unit.ops or summary["trials"] != unit.ops or full != 1.0:
            return unit.ops
        ref_rows, ref_json = self.reference.setdefault(unit.data, (rows, json_text))
        if json_text != ref_json:
            return unit.ops
        return sum(a != b for a, b in zip(rows, ref_rows))

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


# ric_certify groups: ("sharp", t, s, d, l, order) with known delta t/(4-t);
# ("spread", block lengths, rows, order) for random spread-kernel matrices
RIC_CONFIGS = (
    ("sharp", 1.0, 6, 1, 20, 6),
    ("spread", (2,) * 20, 30, 4),
    ("spread", (1, 2, 3) * 6, 27, 4),
    ("sharp", 2.0 / 3.0, 6, 2, 20, 4),
    ("spread", (2,) * 20, 30, 6),
    ("spread", (1, 2, 3) * 6, 27, 4),
)
SMALL_RIC_CONFIGS = (
    ("sharp", 1.0, 2, 1, 6, 2),
    ("spread", (2,) * 8, 12, 2),
    ("spread", (1, 2, 3) * 3, 13, 2),
)
RIC_SAMPLE = 32  # supports per matrix on which the certificate is spot-checked
RIC_TOL = 1e-12


class RicCertify(Workload):
    """Exact block RIC certificates: threshold instances with known delta,
    and spread-kernel matrices on uniform and on ragged block lengths."""

    name = "ric_certify"
    default_seed = 20250810

    def setup(self, api) -> None:
        configs = SMALL_RIC_CONFIGS if self.small else RIC_CONFIGS
        self.units = [Unit(1, (k, cfg)) for k, cfg in enumerate(configs)]

    def warm_up(self, api) -> None:
        phi = api.spread_kernel_matrix(6, BlockStructure.uniform(2, 4), seed=self.seed)
        api.exact_block_ric(phi, 2)

    def run(self, api, unit: Unit):
        k, cfg = unit.data
        if cfg[0] == "sharp":
            _, t, s, d, l, order = cfg
            phi = api.sharpness_instance(t, s, d, l).phi
        else:
            _, lengths, m, order = cfg
            phi = api.spread_kernel_matrix(m, BlockStructure(lengths), seed=self.seed + k)
        return phi, api.exact_block_ric(phi, order)

    def check(self, unit: Unit, outputs) -> int:
        k, cfg = unit.data
        phi, cert = outputs
        structure = phi.structure
        order = cfg[-1]
        if cert.supports_enumerated != math.comb(structure.num_blocks, order):
            return 1
        if cfg[0] == "sharp":
            t = cfg[1]
            return int(abs(cert.delta - t / (4.0 - t)) > 1e-10)

        def deviation(sup):
            sub = phi.entries[:, structure.block_indices(sup)]
            w = np.linalg.eigvalsh(sub.T @ sub)
            return w[0], w[-1], max(w[-1] - 1.0, 1.0 - w[0])

        ok = abs(deviation(cert.worst_support)[2] - cert.delta) <= RIC_TOL
        rng = generator(self.seed, 4, k)
        for _ in range(RIC_SAMPLE):
            sup = sorted(rng.choice(structure.num_blocks, size=order, replace=False).tolist())
            lo, hi, dev = deviation(sup)
            ok = ok and dev <= cert.delta + RIC_TOL
            ok = ok and cert.min_eig <= lo + RIC_TOL and hi <= cert.max_eig + RIC_TOL
        return int(not ok)


WORKLOADS = {cls.name: cls for cls in (RecoverExact, RecoverNoisy, PhaseSweep, RicCertify)}
