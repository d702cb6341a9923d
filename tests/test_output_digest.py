"""tools/output_digest.py on the workloads' small families: deterministic across processes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest_lines():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), "--small",
                           "--seed", "20250810"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_output_digest_is_the_same_in_two_processes():
    first = _digest_lines()
    assert [line.split()[0] for line in first] == ["recover_exact", "recover_noisy", "phase_sweep",
                                                    "ric_certify", "oracle_batch"]
    for line in first:
        assert re.fullmatch(r"\w+ [0-9a-f]{64} [1-9]\d*", line), line
    # one solver result and one oracle outcome per column; 12 noisy columns per instance;
    # one matrix and its certificate per small RIC config; one batch outcome per column
    assert [int(line.split()[2]) for line in first] == [240, 36, 8, 3, 120]
    assert _digest_lines() == first
