"""Alternating parent/change runs of the benchmark, summarized into BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent-checkout --label pr17 --pairs 10

Each pair runs `bench/run.py --trace 0` once in the parent tree and once in the
change tree (the repository this script sits in, unless `--change` names
another), one after the other, never at once; even pairs run the parent first
and odd pairs the change.  Every run is a fresh process of the same command
and settings, for `BENCHMARK.json`'s `run_seconds`, so both sides time the
same benchmark code only when the parent's `bench/` equals the change's.

For each workload and each metric of the result line, plus `fail_frac`
(failed over attempted ops), the JSON file holds each side's runs, median and
quartiles, the change's pair wins (ties count for neither side) and the ratio
of the medians.  For an end-to-end metric of `BENCHMARK.json` it also holds the
bound and whether the change's median is within it, and `gain_shown`: the
change won at least nine pairs in ten and its median beats the parent's by more
than the parent's interquartile range.  Every run of one call uses one seed,
`--seed` or each workload's default; call it again to show a claim at another.

After a workload's pairs, one `bench/run.py --trace 1` pass per side records
the deterministic counters (`COUNTERS`: solver iterations and loop steps,
unconverged columns, mean iterations per noise radius, RIC supports enumerated,
oracle calls and supports enumerated, sensing-matrix builds, experiment trials)
under "counters", with
the names of those that differ.

The exit code is 0 when every end-to-end median is within its bound, no
workload fails a larger share of ops, over all its runs, than at the parent,
and every counter equals the parent's, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-pass counts of a traced run: equal on both sides when the work is the same
COUNTERS = ("solvers.iters", "solvers.steps", "solvers.unconverged",
            "solvers.iters_mean.rho_1e-3", "solvers.iters_mean.rho_1e-2",
            "solvers.iters_mean.rho_1e-1", "ric.supports", "oracle.calls", "oracle.supports",
            "sensing.calls", "experiments.trials")


def parse_run(stdout: str) -> dict:
    """{"context": ..., "result": ...} of one `bench/run.py` output: the result is
    its last line, the JSON object with "metrics"; the context is the line before
    the metric lines, {"context": {...}}."""
    context, result = None, None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "context" in obj:
            context = obj["context"]
        elif "metrics" in obj:
            result = obj
    if result is None:
        raise ValueError("no result line in the benchmark output")
    return {"context": context, "result": result}


def run_values(run: dict) -> dict[str, float]:
    """Every metric of one parsed run by name, with fail_frac from its op counts."""
    result = run["result"]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["fail_frac"] = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    return values


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(run["result"]["attempted"] for run in runs)
    return sum(run["result"]["failed"] for run in runs) / attempted if attempted else 1.0


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """The summary of one workload's runs: `parent[i]` and `change[i]` are the
    parsed runs of pair i, and `spec` is BENCHMARK.json."""
    if not parent or len(parent) != len(change):
        raise ValueError("need the same number of parent and change runs, at least one")
    declared = {m["name"]: m for m in spec["end_to_end"]}
    sides = [[run_values(run) for run in runs] for runs in (parent, change)]
    names = [name for name in sides[0][0] if all(name in v for side in sides for v in side)]
    metrics, ok = {}, True
    for name in names:
        before = [v[name] for v in sides[0]]
        after = [v[name] for v in sides[1]]
        lower_better = name == "fail_frac" or declared.get(name, {}).get("better") == "lower"
        sign = -1.0 if lower_better else 1.0
        entry = {
            "better": "lower" if lower_better else "higher",
            "parent": _spread(before),
            "change": _spread(after),
            "wins": sum(sign * (b - a) > 0 for a, b in zip(before, after)),
            "pairs": len(before),
        }
        p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
        entry["ratio"] = c_med / p_med if p_med else None
        if name in declared:
            bound = declared[name]["bound"]
            worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
            entry["bound"] = bound
            entry["within_bound"] = worse <= bound
            iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
            entry["gain_shown"] = (10 * entry["wins"] >= 9 * entry["pairs"]
                                   and sign * (c_med - p_med) > iqr)
            ok &= entry["within_bound"]
        elif name == "fail_frac":  # over all runs of a side: no larger share of ops may fail
            entry["within_bound"] = _failed_share(change) <= _failed_share(parent)
            ok &= entry["within_bound"]
        metrics[name] = entry
    return {"metrics": metrics, "ok": ok}


def compare_counters(parent: dict, change: dict) -> dict:
    """`COUNTERS` of one parsed traced run per side, and the names of those that
    differ (a counter missing from a run reads None)."""
    sides = {side: {name: run["result"]["metrics"].get(name, {}).get("value") for name in COUNTERS}
             for side, run in (("parent", parent), ("change", change))}
    differ = [name for name in COUNTERS if sides["parent"][name] != sides["change"][name]]
    return {**sides, "differ": differ, "equal": not differ}


def _run(tree: Path, workload: str, seconds: float, seed: int | None, trace: int = 0) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
            "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, default=ROOT, help="the changed tree (default: this one)")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names,
                   help="repeat to pick several (default: every workload)")
    p.add_argument("--seed", type=int, default=None, help="default: each workload's own")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    summary = {"label": args.label, "pairs": args.pairs, "seconds": spec["run_seconds"],
               "seed": args.seed, "workloads": {}}
    ok = True
    for workload in args.workload or names:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(_run(trees[side], workload, spec["run_seconds"], args.seed))
        result = compare(runs["parent"], runs["change"], spec)
        result["context"] = runs["change"][0]["context"]
        # one traced pass per side: --seconds 0 stops after the first whole pass
        traced = {side: _run(trees[side], workload, 0, args.seed, trace=1) for side in trees}
        counters = result["counters"] = compare_counters(traced["parent"], traced["change"])
        result["ok"] &= counters["equal"]
        summary["workloads"][workload] = result
        ok &= result["ok"]
        for name, m in result["metrics"].items():
            print(f"{workload:14s} {name:16s} parent {m['parent']['median']:12.6g} "
                  f"change {m['change']['median']:12.6g} wins {m['wins']}/{m['pairs']}"
                  f"{'' if m.get('within_bound', True) else '  WORSE THAN BOUND'}", flush=True)
        for name in COUNTERS:
            print(f"{workload:14s} {name:28s} parent {counters['parent'][name]} "
                  f"change {counters['change'][name]}"
                  f"{'  DIFFERS' if name in counters['differ'] else ''}", flush=True)
    summary["ok"] = ok
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
