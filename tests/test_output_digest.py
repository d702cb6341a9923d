"""tools/output_digest.py on the workloads' small families: deterministic across processes,
and equal to the digests pinned below."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# `output_digest.py --small --seed <seed>`: a change to any workload's output bits moves one
# (phase_sweep always runs at the workload's seed 42)
SMALL_DIGESTS = {
    20250810: [
        "recover_exact bbc387cd11e2f78825570b98851895dc8b6589d0fe28ec6d37295ec09cf4bd83 240",
        "recover_noisy 504b81e01471e5b6edb7713596ff917ba5ea2ee1e8fae56cc510d48929f6a804 36",
        "phase_sweep 3e10eed4eba5e54bdce9ea9136e1823fd4d7ee43fb767770f0df3c936a77efe8 8",
        "ric_certify 6d51a04f3bc83cc12d2485eba819b3882d9a7978b215bb08e3f5a4962da74903 3",
        "oracle_batch 38ba4945bbbcf3e82b6efade1b55e1b938cecb4e405174fdd3d7c4fbc3173544 120",
    ],
    31337: [
        "recover_exact 25056c1ea07de30ffb04dbdcc46807ff76448ec00dbb580e3fe213f31b30bc85 240",
        "recover_noisy 51a549ae077032f0aebfec7154294cd5c9b532f954e143198d52387dc6e32c3b 36",
        "phase_sweep 3e10eed4eba5e54bdce9ea9136e1823fd4d7ee43fb767770f0df3c936a77efe8 8",
        "ric_certify 8b5fe564eb088cb486a3ca0fb3772888a32041c3cb991bd49f82b1c06ff965c9 3",
        "oracle_batch 90c575d7e9ccaac3a2875bed65dbaa30f4e195c639aeb30d168ca29151dfc235 120",
    ],
}


def _digest_lines(seed=20250810):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), "--small",
                           "--seed", str(seed)], capture_output=True, text=True, timeout=300)
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


@pytest.mark.parametrize("seed", SMALL_DIGESTS)
def test_output_digest_gives_the_pinned_small_digests(seed):
    assert _digest_lines(seed) == SMALL_DIGESTS[seed]
