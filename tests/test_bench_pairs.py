"""The parse and compare half of tools/bench_pairs.py, on canned benchmark output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# the end-to-end part of a BENCHMARK.json
SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s_norm", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def _output(ops_per_s_norm, setup_s=0.2, peak_rss_mb=60.0, failed=0, attempted=100):
    """What bench/run.py --trace 0 prints: the context line, the metric lines, the result line."""
    metrics = {"setup_s": (setup_s, "s"), "ops_per_s_norm": (ops_per_s_norm, "ops/s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    lines = [json.dumps({"context": {"seed": 1, "workload": "recover_exact"}})]
    lines += [f"{name:32s} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return "\n".join(lines) + "\n"


def _runs(values, **fixed):
    return [bench_pairs.parse_run(_output(v, **fixed)) for v in values]


def test_parse_run_reads_the_context_and_the_last_result_line():
    run = bench_pairs.parse_run(_output(2000.0, failed=3))
    assert run["context"] == {"seed": 1, "workload": "recover_exact"}
    values = bench_pairs.run_values(run)
    assert values == {"setup_s": 0.2, "ops_per_s_norm": 2000.0, "peak_rss_mb": 60.0,
                      "fail_frac": 0.03}
    with pytest.raises(ValueError, match="no result line"):
        bench_pairs.parse_run("setup_s 0.2 s\n")


def test_compare_counts_wins_medians_and_a_shown_gain():
    parent = _runs([2000, 2010, 1990, 2005, 1995, 2002, 1998, 2001, 1999, 2003])
    change = _runs([2300, 2310, 2290, 2305, 2295, 2302, 1990, 2301, 2299, 2303])
    summary = bench_pairs.compare(parent, change, SPEC)
    ops = summary["metrics"]["ops_per_s_norm"]
    assert ops["wins"] == 9 and ops["pairs"] == 10
    assert ops["parent"]["median"] == 2000.5 and ops["change"]["median"] == 2300.5
    assert ops["parent"]["q1"] < ops["parent"]["median"] < ops["parent"]["q3"]
    assert ops["gain_shown"] and ops["within_bound"] and summary["ok"]
    # equal setup times and memory: ties count for neither side, and no gain is shown
    assert summary["metrics"]["setup_s"]["wins"] == 0
    assert not summary["metrics"]["peak_rss_mb"]["gain_shown"]


def test_compare_fails_a_median_beyond_its_bound_or_a_larger_failed_share():
    parent = _runs([2000] * 5)
    assert bench_pairs.compare(parent, _runs([1510] * 5), SPEC)["ok"]  # -24.5%: within 25%
    slow = bench_pairs.compare(parent, _runs([1490] * 5), SPEC)
    assert not slow["ok"] and not slow["metrics"]["ops_per_s_norm"]["within_bound"]
    # lower is better for memory: 10% more is within its bound, 11% more is not
    assert bench_pairs.compare(parent, _runs([2000] * 5, peak_rss_mb=66.0), SPEC)["ok"]
    assert not bench_pairs.compare(parent, _runs([2000] * 5, peak_rss_mb=66.6), SPEC)["ok"]
    failing = bench_pairs.compare(parent, _runs([2000] * 5, failed=1), SPEC)
    assert not failing["ok"] and not failing["metrics"]["fail_frac"]["within_bound"]
    with pytest.raises(ValueError, match="same number"):
        bench_pairs.compare(parent, parent[:4], SPEC)


COUNTS = {"solvers.iters": 442957, "solvers.steps": 93820, "solvers.unconverged": 0,
          "solvers.iters_mean.rho_1e-3": 3904.25, "solvers.iters_mean.rho_1e-2": 1192.5,
          "solvers.iters_mean.rho_1e-1": 441.0625, "ric.supports": 1162, "oracle.calls": 2892,
          "oracle.supports": 0, "sensing.calls": 23, "experiments.trials": 0}


def _traced_output(**changed):
    """What bench/run.py --trace 1 prints: the context line, the per-layer lines, the result line."""
    metrics = {**COUNTS, "solvers.self_s": 5.4, **changed}
    lines = [json.dumps({"context": {"seed": 20250810, "workload": "recover_noisy", "trace": 1}})]
    lines += [f"{name:32s} {value:>16.6g} count" for name, value in metrics.items()]
    lines.append(json.dumps({
        "correct": True, "attempted": 240, "failed": 0,
        "metrics": {name: {"value": float(value), "unit": "count"} for name, value in metrics.items()},
    }))
    return "\n".join(lines) + "\n"


def test_compare_counters_names_each_counter_that_differs():
    parent = bench_pairs.parse_run(_traced_output())
    same = bench_pairs.compare_counters(parent, bench_pairs.parse_run(_traced_output()))
    assert same["equal"] and same["differ"] == []
    assert same["parent"] == same["change"] == {name: float(v) for name, v in COUNTS.items()}
    # the per-layer times differ between any two runs and are not counters
    slower = bench_pairs.parse_run(_traced_output(**{"solvers.self_s": 7.0}))
    assert bench_pairs.compare_counters(parent, slower)["equal"]
    more = bench_pairs.parse_run(_traced_output(**{"solvers.iters": 442958, "ric.supports": 1}))
    differs = bench_pairs.compare_counters(parent, more)
    assert not differs["equal"] and differs["differ"] == ["solvers.iters", "ric.supports"]
    assert differs["change"]["solvers.iters"] == 442958.0


@pytest.mark.parametrize("name, value", [
    ("solvers.unconverged", 1), ("solvers.iters_mean.rho_1e-3", 3904.5),
    ("solvers.iters_mean.rho_1e-2", 1192.25), ("solvers.iters_mean.rho_1e-1", 441.0),
])
def test_compare_counters_gates_unconverged_columns_and_iterations_per_radius(name, value):
    # a column that no longer converges, or iterations moved between radii at the same total
    parent = bench_pairs.parse_run(_traced_output())
    differs = bench_pairs.compare_counters(parent, bench_pairs.parse_run(_traced_output(**{name: value})))
    assert not differs["equal"] and differs["differ"] == [name]
    assert (differs["parent"][name], differs["change"][name]) == (float(COUNTS[name]), value)


def _main_with_change_counter(tmp_path, monkeypatch, name, value):
    """main's exit code and summary when canned runs stand in for bench/run.py: equal
    timings and counters, but the change's traced `name` reads `value`."""
    def fake_run(tree, workload, seconds, seed, trace=0):
        if not trace:
            return bench_pairs.parse_run(_output(2000.0))
        return bench_pairs.parse_run(_traced_output(**{name: value if tree == tmp_path / "change"
                                                       else COUNTS[name]}))

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--label", "t", "--pairs", "2", "--workload", "recover_noisy", "--out-dir", str(tmp_path)]
    code = bench_pairs.main(argv)
    return code, json.loads((tmp_path / "BENCH_t.json").read_text())


@pytest.mark.parametrize("change_iters, code", [(442957, 0), (442958, 1)])
def test_main_exits_one_when_a_traced_counter_differs(tmp_path, monkeypatch, change_iters, code):
    got, summary = _main_with_change_counter(tmp_path, monkeypatch, "solvers.iters", change_iters)
    assert got == code
    counters = summary["workloads"]["recover_noisy"]["counters"]
    assert counters["differ"] == ([] if code == 0 else ["solvers.iters"])
    assert summary["ok"] is (code == 0)


@pytest.mark.parametrize("change_builds, code", [(23, 0), (24, 1)])
def test_main_exits_one_when_only_the_matrix_build_count_differs(tmp_path, monkeypatch,
                                                                 change_builds, code):
    # one more matrix build, with every other counter and every timing equal
    got, summary = _main_with_change_counter(tmp_path, monkeypatch, "sensing.calls", change_builds)
    assert got == code
    counters = summary["workloads"]["recover_noisy"]["counters"]
    assert counters["differ"] == ([] if code == 0 else ["sensing.calls"])
    assert (counters["parent"]["sensing.calls"], counters["change"]["sensing.calls"]) == (23.0, change_builds)


@pytest.mark.parametrize("change_calls, code", [(2892, 0), (2893, 1)])
def test_main_exits_one_when_only_the_oracle_call_count_differs(tmp_path, monkeypatch,
                                                                change_calls, code):
    # one more oracle call, with every other counter and every timing equal
    got, summary = _main_with_change_counter(tmp_path, monkeypatch, "oracle.calls", change_calls)
    assert got == code
    counters = summary["workloads"]["recover_noisy"]["counters"]
    assert counters["differ"] == ([] if code == 0 else ["oracle.calls"])
    assert (counters["parent"]["oracle.calls"], counters["change"]["oracle.calls"]) == (2892.0, change_calls)
