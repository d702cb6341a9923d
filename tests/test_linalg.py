"""The package's LAPACK entry points, `blockcs._linalg`: the import-time probe and its
fallbacks, the wrappers' errstate contract, and the rule that no other module knows
the routines."""

import ast
import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blockcs import (
    BlockStructure,
    SensingMatrix,
    _linalg,
    brute_force_l20,
    brute_force_l20_batch,
    exact_block_ric,
    gaussian_matrix,
    solve_noiseless,
    spread_kernel_matrix,
)
from test_golden import ORACLE_CASES, _oracle_case
from test_oracle import _outcome_key as _oracle_key, _reference_l20

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blockcs"
# each of _linalg's numpy slots and the gufuncs it holds
GUFUNCS = {"_qr": ("qr_r_raw", "qr_reduced"), "_eigvalsh": ("eigvalsh_lo",), "_lstsq": ("lstsq",)}
PHI = gaussian_matrix(6, BlockStructure((1, 3, 2, 2)), seed=5)
B = PHI.entries[:, :4] @ np.array([1.0, -1.0, 2.0, 0.5])


def _key(result):
    """Every field of a solver or oracle result, the estimate as bytes."""
    return tuple(value.coeffs.tobytes() if name == "estimate" else value
                 for name, value in vars(result).items())


def _outcome_key(outcome):
    return (outcome.best_residual, str(outcome)) if isinstance(outcome, Exception) else _key(outcome)


# one call of each layer on an entry point: spread-kernel builds (orthonormal), an RIC
# certificate (eigvalsh), an oracle call and a batch with a column that fits nothing and a
# noiseless solve, whose feasibility check is a lstsq (lstsq)
CALLS = {
    "spread_kernel_matrix": lambda: [
        spread_kernel_matrix(m, structure, seed).entries.tobytes()
        for m, structure, seed in [(21, BlockStructure.uniform(2, 12), 5),
                                   (5, BlockStructure((1, 3, 2, 1)), 9),
                                   (1, BlockStructure.uniform(1, 3), 0)]],
    "exact_block_ric": lambda: exact_block_ric(PHI, 2),
    "brute_force_l20": lambda: _key(brute_force_l20(PHI, B, 2)),
    "brute_force_l20_batch": lambda: [_outcome_key(outcome) for outcome in brute_force_l20_batch(
        PHI, np.column_stack([B, -2.0 * B, B + 1e-3 * np.random.default_rng(1).standard_normal(6)]), 2)],
    "solve_noiseless": lambda: _key(solve_noiseless(PHI, B)),
}


def _outputs() -> dict:
    """Each layer's output bytes, once each entry point is checked to give its public
    wrapper's bytes."""
    rng = np.random.default_rng(3)
    V, A, b = rng.standard_normal((9, 4)), rng.standard_normal((5, 7, 4)), rng.standard_normal((7, 2))
    G = np.swapaxes(A, 1, 2) @ A
    assert _linalg.orthonormal(V.copy()).tobytes() == np.linalg.qr(V)[0].tobytes()
    with _linalg.errstate(_linalg.EIGVALSH_FAILED):
        assert _linalg.eigvalsh(G).tobytes() == np.linalg.eigvalsh(G).tobytes()
    with _linalg.errstate(_linalg.LSTSQ_FAILED):  # at np.linalg.lstsq's default cutoff
        rcond = np.finfo(np.float64).eps * 7
        assert _linalg.lstsq(A[0], b, rcond).tobytes() == np.linalg.lstsq(A[0], b)[0].tobytes()
    return {name: call() for name, call in CALLS.items()}


@pytest.fixture
def probe():
    """probe(*hidden): run `_linalg`'s import-time probe again while numpy lacks the
    `hidden` names, which are back once it returns; the real probe runs after the test."""
    def again(*hidden):
        with pytest.MonkeyPatch.context() as hiding:
            for name in hidden:
                hiding.delattr(np.linalg._umath_linalg, name)
            importlib.reload(_linalg)

    yield again
    importlib.reload(_linalg)


def test_the_probe_takes_each_gufunc_numpy_has():
    for slot, names in GUFUNCS.items():
        found = tuple(getattr(np.linalg._umath_linalg, name, None) for name in names)
        if None not in found:
            assert getattr(_linalg, slot) == found


@pytest.mark.parametrize("hidden", [name for names in GUFUNCS.values() for name in names])
def test_a_missing_gufunc_falls_back_to_the_public_wrapper_bit_for_bit(probe, hidden):
    # a numpy without `eigvalsh_lo` imports blockcs and certifies as before
    reference = _outputs()
    probe(hidden)
    (slot,) = [slot for slot, names in GUFUNCS.items() if hidden in names]
    assert getattr(_linalg, slot) is None
    assert _outputs() == reference
    if hidden == "lstsq":
        _every_oracle_case_matches_np_linalg_lstsq()


def _near_rank_deficient():
    """rank_deficient_s1 with its dependent column moved off by 1e-12 of another: block 2
    then has a singular value 5e-13 of its largest, which the oracle's cutoff 1e-10 drops
    and numpy's default cutoff keeps."""
    phi, b, s_max = _oracle_case("rank_deficient_s1")
    entries = phi.entries.copy()
    entries[:, phi.structure.block_slice(2).start + 1] += 1e-12 * entries[:, 0]
    return SensingMatrix(entries, phi.structure), b, s_max


def _every_oracle_case_matches_np_linalg_lstsq():
    # the rank-deficient, tied, zero-block and no-fit cases too, and one where only the
    # cutoff decides: each oracle column against the per-support np.linalg.lstsq loop, and
    # the solvers' feasibility solve, at numpy's default cutoff, against np.linalg.lstsq
    cases = {name: _oracle_case(name) for name in sorted(ORACLE_CASES)}
    cases["near_rank_deficient"] = _near_rank_deficient()
    for name, (phi, b, s_max) in cases.items():
        B = np.column_stack([b, -2.0 * b, b + 1e-3 * np.random.default_rng(1).standard_normal(len(b))])
        for j, outcome in enumerate(brute_force_l20_batch(phi, B, s_max)):
            assert _oracle_key(outcome) == _oracle_key(_reference_l20(phi, B[:, j].copy(), s_max)), name
        with _linalg.errstate(_linalg.LSTSQ_FAILED):
            rcond = np.finfo(np.float64).eps * max(phi.entries.shape)
            assert (_linalg.lstsq(phi.entries, B, rcond).tobytes()
                    == np.linalg.lstsq(phi.entries, B, rcond=None)[0].tobytes()), name


def _flagging(*_, signature):
    """A gufunc whose LAPACK call failed: it raises the floating-point invalid flag."""
    return np.float64(np.inf) - np.inf


@pytest.mark.parametrize("slot, call, message", [
    ("_eigvalsh", "exact_block_ric", "Eigenvalues did not converge"),
    ("_lstsq", "brute_force_l20", "SVD did not converge in Linear Least Squares"),
    ("_lstsq", "solve_noiseless", "SVD did not converge in Linear Least Squares"),
], ids=["exact_block_ric", "brute_force_l20", "solve_noiseless"])
def test_a_flagged_failure_raises_the_wrappers_error(monkeypatch, slot, call, message):
    monkeypatch.setattr(_linalg, slot, (_flagging,))
    with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
        CALLS[call]()


def _noisy(gufunc):
    """`gufunc`, after an overflow, a division by zero and an underflow, as LAPACK's
    scaling may raise them."""
    def flagging(*args, signature):
        np.float64(1e308) * 10.0, np.float64(1.0) / 0.0, np.float64(1e-308) * 1e-308
        return gufunc(*args, signature=signature)
    return flagging


@pytest.mark.parametrize("slot, call", [("_eigvalsh", "exact_block_ric"), ("_lstsq", "brute_force_l20"),
                                        ("_lstsq", "solve_noiseless")],
                         ids=["exact_block_ric", "brute_force_l20", "solve_noiseless"])
def test_overflow_division_and_underflow_inside_a_routine_warn_nothing(monkeypatch, slot, call):
    # the public wrappers ignore those flags, and so does each caller's errstate
    real = getattr(_linalg, slot)
    if real is None:
        pytest.skip(f"numpy has no gufunc for {slot}")
    expected = CALLS[call]()
    monkeypatch.setattr(_linalg, slot, tuple(map(_noisy, real)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert CALLS[call]() == expected


@pytest.fixture
def output_digest():
    """tools/output_digest.py as a module, whose digests() leaves `sys.path` and the
    `workloads` entry of `sys.modules` as it found them."""
    spec = importlib.util.spec_from_file_location("output_digest_under_test",
                                                  ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path, workloads = list(sys.path), sys.modules.get("workloads")
    yield module
    assert sys.path == path
    assert sys.modules.get("workloads") is workloads


def test_every_layer_gives_the_same_digests_through_every_numpy_fallback(monkeypatch, output_digest):
    # the paths only a numpy without these gufuncs takes, end to end
    gufuncs = output_digest.digests(ROOT, 20250810, small=True)
    for slot in GUFUNCS:
        monkeypatch.setattr(_linalg, slot, None)
    assert output_digest.digests(ROOT, 20250810, small=True) == gufuncs


def test_only_linalg_names_numpys_gufuncs_and_scipys_lapack_wrapper():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "_linalg.py":
            text = path.read_text()
            assert "_umath_linalg" not in text and "_flapack" not in text, path.name


def test_no_module_imports_a_private_name_of_linalg_or_the_oracle():
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("_linalg", "oracle"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (name, node.module, private)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "_linalg" and node.attr.startswith("_")), (name, node.attr)
