"""The package's LAPACK entry points: the one module that knows which routine
each calls, its fallback and its errstate contract.

| entry point | calls | fallback | caller's errstate |
|---|---|---|---|
| `orthonormal(V)` | `qr_r_raw`, `qr_reduced` | `np.linalg.qr(V)[0]` | none |
| `eigvalsh(G)` | `eigvalsh_lo` | `np.linalg.eigvalsh(G)` | `errstate(EIGVALSH_FAILED)` |
| `lstsq(a, b, rcond)` | `lstsq` | `np.linalg.lstsq(a, b, rcond)[0]` | `errstate(LSTSQ_FAILED)` |
| `flapack()` | the module `scipy.linalg._flapack` | none: scipy >= 1.10 has it | none |

The numpy names are the gufuncs of `numpy.linalg._umath_linalg` that the
fallback calls, with the signature it passes for float64: the same bits,
without the wrapper's checks, copies and errstate on every call.  They are
probed once, at import; where numpy lacks one (numpy 1.x names or splits them
otherwise), the entry point calls the fallback.  Each caller of `eigvalsh`
and `lstsq` enters the wrapper's errstate once instead, with its contract: a
LAPACK failure, which the gufunc flags as invalid, raises
`numpy.linalg.LinAlgError` with the wrapper's message, and overflow, division
and underflow are ignored.  `orthonormal` needs no errstate: Householder QR
cannot raise the flag for a finite (n, k) input with k < n, and `SensingMatrix`
refuses a non-finite result.  `flapack()` loads its module without importing
`scipy.linalg`, whose `cho_factor` and `get_lapack_funcs` hand out the same
`dpotrf` and `dpotrs`.  Only numpy 2.4.6 and scipy 1.17.1 have been checked.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

EIGVALSH_FAILED = "Eigenvalues did not converge"
LSTSQ_FAILED = "SVD did not converge in Linear Least Squares"
_FLAPACK = "scipy.linalg._flapack"


def _probe(*names):
    """The tuple of numpy's gufuncs under `names`, or None where the installed numpy
    lacks any of them."""
    found = tuple(getattr(np.linalg._umath_linalg, name, None) for name in names)
    return None if None in found else found


_qr = _probe("qr_r_raw", "qr_reduced")
_eigvalsh = _probe("eigvalsh_lo")
_lstsq = _probe("lstsq")


def errstate(message: str) -> np.errstate:
    """The errstate of the numpy wrapper whose failure message is `message`: the
    invalid flag raises LinAlgError(message); overflow, division and underflow are
    ignored."""
    def failed(*_):
        raise np.linalg.LinAlgError(message)

    return np.errstate(call=failed, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def orthonormal(V: np.ndarray) -> np.ndarray:
    """np.linalg.qr(V)[0] of a fresh float64 (n, k) array, k < n; V is overwritten."""
    if _qr is None:
        return np.linalg.qr(V)[0]
    r_raw, reduced = _qr
    tau = r_raw(V, signature="d->d")  # writes the Householder reflectors into V
    return reduced(V, tau, signature="dd->d")


def eigvalsh(G: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(G) of a float64 (..., k, k) stack, under `errstate(EIGVALSH_FAILED)`."""
    if _eigvalsh is None:
        return np.linalg.eigvalsh(G)
    return _eigvalsh[0](G, signature="d->d")


def lstsq(a: np.ndarray, b: np.ndarray, rcond: float) -> np.ndarray:
    """np.linalg.lstsq(a, b, rcond)[0] of the float64 (m, n) `a` and (m, k) `b`, m and k
    at least 1, under `errstate(LSTSQ_FAILED)`."""
    if _lstsq is None:
        return np.linalg.lstsq(a, b, rcond=rcond)[0]
    return _lstsq[0](a, b, rcond, signature="ddd->ddid")[0]


def flapack():
    """The module `scipy.linalg._flapack`, loaded on the first call under its full name
    and kept in `sys.modules`, so a later `import scipy.linalg` uses this very module."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy

        # PathFinder searches the one directory given; importlib.util.find_spec
        # would import the parent package scipy.linalg first
        found = importlib.machinery.PathFinder.find_spec(
            "_flapack", [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
        if found is None:
            raise ImportError(f"scipy {scipy.__version__} has no LAPACK wrapper {_FLAPACK}")
        spec = importlib.util.spec_from_file_location(_FLAPACK, found.origin)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module
