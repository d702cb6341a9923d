"""The names the benchmark wraps stay bound in the package.

`bench/spans.py` wraps public functions by name: the workloads call the
`DIRECT` ones, and a traced sweep swaps the `PATCHED` ones in their modules.
A change to `src/` that renames or stops calling one of them would leave the
benchmark without its spans, which only the benchmark's own tests would show.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import blockcs.experiments
from blockcs import ExperimentSpec, run_experiment

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable(spans):
    names = [(module, name) for name, (module, _) in spans.DIRECT.items()]
    names += [(module, name) for module, name, _ in spans.PATCHED]
    for module, name in names:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_phase_transition_calls_the_patched_solver_once_per_trial(tmp_path, monkeypatch):
    solve = blockcs.experiments.solve_noiseless
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(blockcs.experiments, "solve_noiseless", counting)
    spec = ExperimentSpec(
        kind="PHASE_TRANSITION",
        seed=42,
        grid={"l": 6, "d": 2, "s_values": [1, 2], "m_values": [8], "trials": 2},
        output_path=str(tmp_path / "phase"),
    )
    report = run_experiment(spec)
    assert len(report.records) == 4
    assert len(calls) == len(report.records)
