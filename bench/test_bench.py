"""Tests of the benchmark itself, run at reduced workload sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

MODULES = run.load_package(run.ROOT)

from blockcs import BlockSignal  # noqa: E402
from spans import PATCHED, Recorder, layer_metrics, plain_api, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)

# counters that must repeat exactly between runs of the same seed
DETERMINISTIC = (
    "solvers.calls", "solvers.columns", "solvers.iters", "solvers.steps",
    "solvers.useful_frac", "solvers.iters_mean.rho_1e-3", "solvers.iters_mean.rho_1e-2",
    "solvers.iters_mean.rho_1e-1", "solvers.unconverged", "oracle.calls", "oracle.supports",
    "oracle.hit_frac", "ric.calls", "ric.supports", "sensing.calls", "experiments.trials",
)
# a counter per layer that must be positive on the workloads that use the layer
USES = {
    "recover_exact": ("solvers.iters", "oracle.supports", "ric.supports", "sensing.calls"),
    "recover_noisy": ("solvers.iters", "solvers.iters_mean.rho_1e-3", "ric.supports",
                      "sensing.calls"),
    "phase_sweep": ("solvers.iters", "ric.supports", "sensing.calls", "experiments.trials"),
    "ric_certify": ("ric.supports", "sensing.calls"),
}


@pytest.fixture
def make(tmp_path):
    made = []

    def build(name):
        wl = WORKLOADS[name](WORKLOADS[name].default_seed, small=True, workdir=tmp_path)
        made.append(wl)
        return wl

    yield build
    for wl in made:
        wl.close()


def _perturb_estimate(results, index, delta):
    res = results[index]
    coeffs = res.estimate.coeffs.copy()
    coeffs[0] += delta
    results = list(results)
    results[index] = dataclasses.replace(
        res, estimate=BlockSignal(coeffs, res.estimate.structure)
    )
    return results


def _corrupt_exact(outputs):
    results, oracles = outputs
    return _perturb_estimate(results, 0, 1e-3), oracles


def _corrupt_noisy(results):
    return _perturb_estimate(results, 0, 10.0)  # far outside any error bound


def _corrupt_sweep(outputs):
    code, csv_text, json_text = outputs
    lines = csv_text.splitlines()
    cells = lines[2].split(",")  # first trial row, after the comment and the header
    cells[11] = repr(float(cells[11]) * 1.5 + 1e-3)  # recovery_error
    lines[2] = ",".join(cells)
    return code, "\n".join(lines) + "\n", json_text


def _corrupt_ric(outputs):
    phi, cert = outputs
    return phi, dataclasses.replace(cert, delta=cert.delta + 1e-6)


CORRUPT = {
    "recover_exact": _corrupt_exact,
    "recover_noisy": _corrupt_noisy,
    "phase_sweep": _corrupt_sweep,
    "ric_certify": _corrupt_ric,
}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_counts_as_failed(name, make):
    wl = make(name)
    api = plain_api(MODULES)
    wl.setup(api)
    ref = run.RefLoop()
    honest = run.Tally()
    for unit in wl.units:
        honest.run_unit(wl, api, unit, ref)
    assert honest.failed == 0 and honest.attempted > 0

    run_honestly = wl.run
    wl.run = lambda api, unit: CORRUPT[name](run_honestly(api, unit))
    tally = run.Tally()
    for unit in wl.units:
        tally.run_unit(wl, api, unit, ref)
    assert 0 < tally.failed <= tally.attempted
    assert tally.failed / tally.attempted > 0


def test_raising_op_counts_as_failed(make):
    wl = make("ric_certify")
    wl.setup(plain_api(MODULES))

    def broken(api, unit):
        raise ValueError("injected")

    wl.run = broken
    tally = run.Tally()
    tally.run_unit(wl, None, wl.units[0], run.RefLoop())
    assert (tally.attempted, tally.failed) == (1, 1)


def _traced_run(wl):
    ref = run.RefLoop()
    setup_rec, pass_rec = Recorder(), Recorder(paused=lambda: ref.spent)
    api = plain_api(MODULES)
    wl.setup(setup_rec.api(MODULES))
    wl.warm_up(api)
    tally, repeats, overhead = run.traced_passes(wl, api, pass_rec, MODULES, 0.0, ref)
    assert tally.failed == 0
    return layer_metrics(setup_rec, pass_rec, repeats, overhead)


@pytest.mark.parametrize("name", NAMES)
def test_deterministic_counters_repeat(name, make):
    first, second = _traced_run(make(name)), _traced_run(make(name))
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
    for key in USES[name]:
        assert first[key] > 0, key
    assert set(first) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_spans_nest_and_self_times_leave_out_children_and_samples():
    rec = Recorder()
    build = rec.wrap("gaussian_matrix", "sensing", lambda: None)
    rec.wrap("main", "cli", lambda: build())()
    assert [(span[0], span[3]) for span in rec.spans] == [("cli", -1), ("sensing", 0)]

    rec.spans = [  # (layer, start, end, parent, op, paused)
        ("cli", 0.0, 10.0, -1, "1.0", 1.0),
        ("experiments", 1.0, 9.0, 0, "1.0", 1.0),
        ("solvers", 2.0, 6.0, 1, "1.0", 0.5),
    ]
    assert rec.self_times() == {"cli": 2.0, "experiments": 3.5, "solvers": 3.5}


def test_traced_names_are_restored():
    saved = {(mod, name): getattr(MODULES[mod], name) for mod, name, _ in PATCHED}
    with Recorder().patched(MODULES):
        pass
    assert all(getattr(MODULES[mod], name) is fn for (mod, name), fn in saved.items())


def test_sweep_outputs_repeat_apart_from_wall_time(make):
    outputs = []
    for _ in range(2):
        wl = make("phase_sweep")
        api = plain_api(MODULES)
        wl.setup(api)
        outputs.append(wl.run(api, wl.units[0]))
    (code_a, csv_a, json_a), (code_b, csv_b, json_b) = outputs
    assert code_a == code_b == 0
    assert json_a == json_b

    def strip_wall_time(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert csv_a.splitlines()[1].endswith(",wall_time")
    assert strip_wall_time(csv_a) == strip_wall_time(csv_b)


def test_per_layer_units_match_benchmark_json():
    for metric in BENCHMARK["per_layer"]:
        assert unit_of(metric["name"]) == metric["unit"], metric["name"]


def _result(args, cwd):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, key):
    proc, lines = _result(
        ["--workload", "ric_certify", "--seed", "7", "--seconds", "1", "--trace", trace], run.ROOT
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _result(["--workload", "ric_certify", "--seconds", "1", "--trace", "0"],
                          tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)
    assert not (tmp_path / ".bench_out").exists()
