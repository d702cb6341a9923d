"""Span recording around the package's public calls, and the per-layer
metrics derived from the spans.

Nothing here is imported by `blockcs`.  The benchmark wraps each layer's
public functions at the names its callers use: the workload code calls the
wrapped functions directly, and for the sweep the names imported into
`blockcs.experiments` and `blockcs.cli` are swapped for the duration of a
traced unit.  An untraced unit runs with no wrapper installed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

# public name -> (module the workloads take it from, layer)
DIRECT = {
    "spread_kernel_matrix": ("blockcs", "sensing"),
    "sharpness_instance": ("blockcs", "sensing"),
    "exact_block_ric": ("blockcs", "ric"),
    "solve_noiseless_batch": ("blockcs", "solvers"),
    "solve_noisy_batch": ("blockcs", "solvers"),
    "brute_force_l20": ("blockcs", "oracle"),
    "main": ("blockcs.cli", "cli"),
}

# names the experiment runner and the CLI resolve at call time: (module, name, layer)
PATCHED = (
    ("blockcs.experiments", "gaussian_matrix", "sensing"),
    ("blockcs.experiments", "exact_block_ric", "ric"),
    ("blockcs.experiments", "solve_noiseless", "solvers"),
    ("blockcs.cli", "run_experiment", "experiments"),
)

RHO_LABELS = {1e-3: "rho_1e-3", 1e-2: "rho_1e-2", 1e-1: "rho_1e-1"}


def plain_api(modules) -> SimpleNamespace:
    """The public functions the workloads call, unwrapped."""
    return SimpleNamespace(
        **{name: getattr(modules[mod], name) for name, (mod, _) in DIRECT.items()}
    )


def _count_solvers(counts, name, args, kwargs, result):
    results = result if isinstance(result, list) else [result]
    iters = [r.iterations for r in results]
    steps = max(iters)
    counts["solvers.calls"] += 1
    counts["solvers.columns"] += len(results)
    counts["solvers.iters"] += sum(iters)
    counts["solvers.steps"] += steps
    counts["solvers.column_steps"] += len(results) * steps
    counts["solvers.unconverged"] += sum(not r.converged for r in results)
    rhos = 0.0
    if name == "solve_noisy_batch":  # solve_noisy_batch(phi, bs, rhos, ...)
        rhos = kwargs["rhos"] if "rhos" in kwargs else args[2]
    for rho, it in zip(np.broadcast_to(rhos, len(results)), iters):
        label = RHO_LABELS.get(float(rho))
        if label is not None:
            counts[f"solvers.iters_sum.{label}"] += it
            counts[f"solvers.columns.{label}"] += 1


def _count_oracle(counts, name, args, kwargs, result):
    counts["oracle.calls"] += 1
    counts["oracle.supports"] += result.supports_searched


def _count_ric(counts, name, args, kwargs, result):
    counts["ric.calls"] += 1
    counts["ric.supports"] += result.supports_enumerated


def _count_sensing(counts, name, args, kwargs, result):
    counts["sensing.calls"] += 1


def _count_experiments(counts, name, args, kwargs, result):
    counts["experiments.trials"] += len(result.records)


def _count_cli(counts, name, args, kwargs, result):
    counts["cli.calls"] += 1


COUNTERS = {
    "solvers": _count_solvers,
    "oracle": _count_oracle,
    "ric": _count_ric,
    "sensing": _count_sensing,
    "experiments": _count_experiments,
    "cli": _count_cli,
}


class Recorder:
    """In-memory span list plus per-layer counters.

    A span is (layer, start, end, parent span index or -1, op id, paused):
    `paused` is the time inside the span that the benchmark spent on its own
    reference samples, read from the `paused` clock and left out of self
    times.  Spans are appended when they open, so a parent always precedes
    its children.
    """

    def __init__(self, paused=lambda: 0.0):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op = None
        self.paused = paused
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn):
        count = COUNTERS[layer]

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            paused = self.paused()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (layer, start, end, parent, self.op, self.paused() - paused)
            count(self.counts, name, args, kwargs, result)
            return result

        return traced

    def api(self, modules) -> SimpleNamespace:
        return SimpleNamespace(
            **{
                name: self.wrap(name, layer, getattr(modules[mod], name))
                for name, (mod, layer) in DIRECT.items()
            }
        )

    @contextmanager
    def patched(self, modules):
        """Swap the names in PATCHED for traced wrappers, restoring them on exit."""
        saved = [(modules[mod], name, getattr(modules[mod], name)) for mod, name, _ in PATCHED]
        try:
            for (mod, name, layer), (_, _, fn) in zip(PATCHED, saved):
                setattr(modules[mod], name, self.wrap(name, layer, fn))
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def self_times(self) -> dict:
        """Seconds per layer spent in its own spans and not in their children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, paused in self.spans:
            if parent >= 0:
                child[parent] += end - start - paused
        totals = defaultdict(float)
        for (layer, start, end, _, _, paused), inner in zip(self.spans, child):
            totals[layer] += end - start - paused - inner
        return totals

    def write(self, fh, first_id: int = 0) -> int:
        """Write the spans as JSON lines numbered from `first_id`, so several
        recorders can share one file; return the next free id."""
        for idx, (layer, start, end, parent, op, paused) in enumerate(self.spans):
            fh.write(json.dumps({
                "id": first_id + idx, "name": layer, "start": start, "end": end,
                "parent": first_id + parent if parent >= 0 else -1, "op": op, "paused": paused,
            }) + "\n")
        return first_id + len(self.spans)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last == "self_s":
        return "s"
    if last.startswith("us_per_"):
        return "us"
    if last.startswith("ms_per_"):
        return "ms"
    if last.endswith("_frac"):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup: Recorder, passes: Recorder, repeats: int, overhead_frac: float) -> dict:
    """Per-layer metrics of one set-up plus one pass of the workload.

    `passes` holds `repeats` identical traced passes; its totals are divided
    by `repeats`, so the deterministic counters are those of a single pass
    and repeat exactly from run to run.
    """
    counts = defaultdict(float)
    for key, value in setup.counts.items():
        counts[key] += value
    for key, value in passes.counts.items():
        counts[key] += value / repeats
    self_s = defaultdict(float)
    for layer, value in setup.self_times().items():
        self_s[layer] += value
    for layer, value in passes.self_times().items():
        self_s[layer] += value / repeats

    m = {
        "solvers.calls": counts["solvers.calls"],
        "solvers.columns": counts["solvers.columns"],
        "solvers.self_s": self_s["solvers"],
        "solvers.iters": counts["solvers.iters"],
        "solvers.steps": counts["solvers.steps"],
        "solvers.useful_frac": _ratio(counts["solvers.iters"], counts["solvers.column_steps"]),
        "solvers.us_per_step": 1e6 * _ratio(self_s["solvers"], counts["solvers.steps"]),
    }
    for label in RHO_LABELS.values():
        m[f"solvers.iters_mean.{label}"] = _ratio(
            counts[f"solvers.iters_sum.{label}"], counts[f"solvers.columns.{label}"]
        )
    m.update({
        "solvers.unconverged": counts["solvers.unconverged"],
        "oracle.calls": counts["oracle.calls"],
        "oracle.supports": counts["oracle.supports"],
        "oracle.self_s": self_s["oracle"],
        "oracle.us_per_support": 1e6 * _ratio(self_s["oracle"], counts["oracle.supports"]),
        "oracle.hit_frac": _ratio(counts["oracle.calls"], counts["oracle.supports"]),
        "ric.calls": counts["ric.calls"],
        "ric.supports": counts["ric.supports"],
        "ric.self_s": self_s["ric"],
        "ric.us_per_support": 1e6 * _ratio(self_s["ric"], counts["ric.supports"]),
        "sensing.calls": counts["sensing.calls"],
        "sensing.self_s": self_s["sensing"],
        "sensing.ms_per_build": 1e3 * _ratio(self_s["sensing"], counts["sensing.calls"]),
        "experiments.trials": counts["experiments.trials"],
        "experiments.self_s": self_s["experiments"],
        "cli.self_s": self_s["cli"],
        "trace.overhead_frac": overhead_frac,
    })
    return m
