"""File formats for structures, signals, matrices, and solver/analysis reports.

JSON schemas:
    structure  {"blocks": [d_1, ..., d_l]}
    signal     {"structure": {...}, "coeffs": [...]}
    matrix     {"m": M, "n": N, "structure": {"blocks": [...]}, "data": [row-major]}

Matrices can also be imported from CSV (one row of comma-separated floats per
matrix row) with a sidecar JSON structure file.  Floats written to CSV use 17
significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from . import _checks
from .blocks import BlockSignal, BlockStructure, _check_signal
from .sensing import SensingMatrix

__all__ = [
    "structure_to_json",
    "structure_from_json",
    "signal_to_json",
    "signal_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "save_json",
    "load_json",
    "load_structure",
    "load_signal",
    "load_matrix",
    "load_matrix_csv",
    "format_float",
]

FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def structure_to_json(structure: BlockStructure) -> dict:
    return {"blocks": list(structure.block_lengths)}


def structure_from_json(obj: dict) -> BlockStructure:
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list):
        raise ValueError('structure JSON must be an object with a "blocks" array')
    return BlockStructure(tuple(obj["blocks"]))


def signal_to_json(signal: BlockSignal) -> dict:
    signal = _check_signal("signal", signal)
    return {
        "structure": structure_to_json(signal.structure),
        "coeffs": [float(c) for c in signal.coeffs],
    }


def signal_from_json(obj: dict) -> BlockSignal:
    if not isinstance(obj, dict) or "structure" not in obj or "coeffs" not in obj:
        raise ValueError('signal JSON must carry "structure" and "coeffs"')
    structure = structure_from_json(obj["structure"])
    return BlockSignal(obj["coeffs"], structure)


def matrix_to_json(phi: SensingMatrix) -> dict:
    return {
        "m": phi.num_rows,
        "n": phi.num_cols,
        "structure": structure_to_json(phi.structure),
        "data": [float(v) for v in phi.entries.ravel(order="C")],
    }


def matrix_from_json(obj: dict) -> SensingMatrix:
    for key in ("m", "n", "structure", "data"):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f'matrix JSON must carry "{key}"')
    m, n = _checks.count("m", obj["m"], 1), _checks.count("n", obj["n"], 1)
    data = _checks.array("data", obj["data"], (m * n,))
    structure = structure_from_json(obj["structure"])
    return SensingMatrix(data.reshape(m, n), structure)


def save_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def load_structure(path) -> BlockStructure:
    return structure_from_json(load_json(path))


def load_signal(path) -> BlockSignal:
    return signal_from_json(load_json(path))


def load_matrix(path) -> SensingMatrix:
    return matrix_from_json(load_json(path))


def load_matrix_csv(path, structure_path) -> SensingMatrix:
    """Import a matrix from CSV rows of floats, with a sidecar structure file."""
    structure = load_structure(structure_path)
    rows = []
    with open(path, newline="") as fh:
        for number, row in enumerate(csv.reader(fh), start=1):
            try:
                rows += [[float(v) for v in row]] if row else []
            except ValueError:
                raise ValueError(f"{path}, row {number}: a cell is not a number") from None
    if not rows:
        raise ValueError(f"no rows found in {path}")
    return SensingMatrix(rows, structure)
