"""Benchmark of the blockcs package: one closed-loop workload per run.

    python3 bench/run.py --workload recover_noisy --seed 20250810 --seconds 20 --trace 0

Run it from the repository root; it imports `blockcs` from `src/` next to
this directory and nowhere else.  With `--trace 0` it times the workload for
`--seconds` seconds with no instrumentation and reports the end-to-end
metrics.  With `--trace 1` it runs whole passes of the workload, each unit
once untraced and once traced, and reports the per-layer metrics.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it give the run context and every metric with its unit.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
REF_ITERS = 12
REF_INTERVAL = 0.01  # seconds between reference samples while a unit runs
# ref_s of the 2-core x86_64 machine this benchmark was tuned on, in its
# fast state; it scales ops_per_s_norm and setup_s to that machine's speed
REF_S_NOMINAL = 0.000165

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "ops_per_s_norm": "ops/s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}
# End-to-end metrics in the result line.  fail_frac is carried there by
# `attempted` and `failed`; ops_per_s moves with the machine's speed state
# by more than any bound a later change could be held to, so both are shown
# on the lines above the result only.
RESULT_METRICS = ("setup_s", "ops_per_s_norm", "peak_rss_mb")


def load_package(root: Path) -> dict:
    """Import blockcs from `root/src`, refusing any other copy."""
    src = root / "src"
    if not (src / "blockcs" / "__init__.py").is_file():
        raise ImportError(f"no blockcs package under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(name)
               for name in ("blockcs", "blockcs.cli", "blockcs.experiments")}
    origin = Path(modules["blockcs"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"blockcs was imported from {origin}, not from {src}")
    return modules


class RefLoop:
    """Fixed reference work with no blockcs in it: small symmetric eigenvalue
    problems driven from an interpreter loop.

    While a unit runs, an interval timer takes a short sample of it every
    REF_INTERVAL seconds from a SIGALRM handler, between the workload's
    bytecodes.  The machine this was tuned on switches between a fast state
    and one about 1.5x slower within a second, so samples taken between long
    units would miss the state the units ran in; samples taken inside them
    see the same states in the same proportions.  Their mean is `ref_s`.
    Small eigenvalue problems were chosen because their slowdown in the slow
    state matched that of the oracle, RIC and solver loops; pure interpreter
    work and small dense solves slowed down more.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((12, 12))
        self.eigvalsh = np.linalg.eigvalsh
        self.sym = a @ a.T
        self.samples: list[float] = []
        self.spent = 0.0
        self.sink = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(REF_ITERS):
            acc += self.eigvalsh(self.sym)[-1]
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        self.sink += acc

    @contextmanager
    def interleaved(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """Run fn(*args) with samples interleaved; return its result and its
        wall time less the samples taken during it."""
        spent = self.spent
        start = time.perf_counter()
        with self.interleaved():
            result = fn(*args)
        return result, time.perf_counter() - start - (self.spent - spent)

    @property
    def ref_s(self) -> float:
        if not self.samples:  # no unit lasted a whole interval
            self.sample()
        return statistics.fmean(self.samples)


class Tally:
    """Ops attempted and failed, and the wall time spent inside units."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def run_unit(self, wl, api, unit, ref: RefLoop) -> float:
        """Run and check one unit; return its wall time less the reference
        samples taken during it.  An op that raises, or whose output fails
        the check, counts as failed."""
        def attempt():
            try:
                return wl.run(api, unit)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                return None

        outputs, elapsed = ref.timed(attempt)
        failed = unit.ops
        if outputs is not None:
            try:
                failed = min(unit.ops, wl.check(unit, outputs))
            except Exception:
                traceback.print_exc(file=sys.stderr)
        self.attempted += unit.ops
        self.failed += failed
        self.wall += elapsed
        return elapsed


def set_up(wl, api) -> None:
    wl.setup(api)
    wl.warm_up(api)


def timed_loop(wl, api, seconds: float, ref: RefLoop):
    """Closed loop over whole rounds of the workload until `seconds` of unit
    time have passed.

    Returns the tally and each round's ops per second, scaled by the mean
    reference sample taken during that round over REF_S_NOMINAL.
    """
    tally = Tally()
    rates = []
    for chunk in itertools.cycle(wl.rounds()):
        first, ops, wall = len(ref.samples), tally.attempted, tally.wall
        for unit in chunk:
            tally.run_unit(wl, api, unit, ref)
        speed = statistics.fmean(ref.samples[first:] or [ref.ref_s]) / REF_S_NOMINAL
        rates.append((tally.attempted - ops) / (tally.wall - wall) * speed)
        if tally.wall >= seconds:
            return tally, rates


def traced_passes(wl, api, recorder, modules, seconds: float, ref: RefLoop):
    """Whole passes, each unit run untraced and traced in alternating order.

    Returns the tally, the number of passes and the tracing overhead as a
    share of the untraced unit time.
    """
    tally = Tally()
    plain = traced = 0.0
    traced_api = recorder.api(modules)
    for repeat in itertools.count(1):
        for i, unit in enumerate(wl.units):
            recorder.op = f"{repeat}.{i}"
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    with recorder.patched(modules):
                        traced += tally.run_unit(wl, traced_api, unit, ref)
                else:
                    plain += tally.run_unit(wl, api, unit, ref)
        if tally.wall >= seconds:
            return tally, repeat, traced / plain - 1.0


def run_context(seed: int, ref: RefLoop) -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "ref_s": ref.ref_s,
        "ref_samples": len(ref.samples),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's acceptance seed)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    # pin BLAS before numpy loads: the workloads are single-threaded closed loops
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    ref = RefLoop()
    try:
        modules, _ = ref.timed(load_package, ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0 - ref.spent

    from spans import Recorder, layer_metrics, plain_api, unit_of
    from workloads import WORKLOADS

    args = parse_args(argv)
    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    wl = cls(seed, workdir=OUT_DIR)
    api = plain_api(modules)
    try:
        if args.trace:
            setup_rec, pass_rec = Recorder(), Recorder(paused=lambda: ref.spent)
            setup_rec.op = "setup"
            wl.setup(setup_rec.api(modules))
            wl.warm_up(api)
            tally, repeats, overhead = traced_passes(wl, api, pass_rec, modules, args.seconds, ref)
            metrics = layer_metrics(setup_rec, pass_rec, repeats, overhead)
            units = {name: unit_of(name) for name in metrics}
            result = list(metrics)
            with open(OUT_DIR / f"spans-{wl.name}-{seed}.jsonl", "w") as fh:
                pass_rec.write(fh, setup_rec.write(fh))
        else:
            setups = [ref.timed(set_up, wl, api)[1] for _ in range(SETUP_REPEATS)]
            setup_speed = ref.ref_s / REF_S_NOMINAL
            tally, rates = timed_loop(wl, api, args.seconds, ref)
            ops_per_s = tally.attempted / tally.wall
            # The first unit once more, untimed: a run shorter than a pass
            # still repeats an input, and the sweep's check compares the two.
            tally.run_unit(wl, api, wl.units[0], ref)
            metrics = {
                "setup_s": (import_s + statistics.median(setups)) / setup_speed,
                "ops_per_s": ops_per_s,
                "ops_per_s_norm": statistics.median(rates),
                "fail_frac": tally.failed / tally.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            result = RESULT_METRICS
    finally:
        wl.close()

    context = run_context(seed, ref)
    context.update(workload=wl.name, trace=args.trace, unit_seconds=tally.wall)
    print(json.dumps({"context": context}))
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in result},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
