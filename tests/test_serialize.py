import numpy as np
import pytest

from blockcs import BlockSignal, BlockStructure, SensingMatrix, gaussian_matrix
from conftest import BAD_COUNTS, bad_arguments, bad_arrays, rejects_argument, rejects_array
from blockcs.serialize import (
    format_float,
    load_matrix,
    load_matrix_csv,
    load_signal,
    load_structure,
    matrix_from_json,
    matrix_to_json,
    save_json,
    signal_from_json,
    signal_to_json,
    structure_from_json,
    structure_to_json,
)


def test_structure_round_trip():
    st_ = BlockStructure((2, 1, 3))
    obj = structure_to_json(st_)
    assert obj == {"blocks": [2, 1, 3]}
    assert structure_from_json(obj) == st_


def test_structure_bad_json():
    with pytest.raises(ValueError):
        structure_from_json({"lengths": [1]})


def test_signal_round_trip(rng):
    st_ = BlockStructure((2, 2))
    x = BlockSignal(rng.standard_normal(4), st_)
    back = signal_from_json(signal_to_json(x))
    np.testing.assert_array_equal(back.coeffs, x.coeffs)
    assert back.structure == st_


def test_matrix_round_trip():
    st_ = BlockStructure.uniform(2, 3)
    phi = gaussian_matrix(4, st_, seed=2)
    back = matrix_from_json(matrix_to_json(phi))
    np.testing.assert_array_equal(back.entries, phi.entries)
    assert back.structure == st_


def test_matrix_json_shape_mismatch():
    obj = {"m": 2, "n": 3, "structure": {"blocks": [3]}, "data": [1.0, 2.0]}
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_file_round_trips(tmp_path, rng):
    st_ = BlockStructure((1, 3))
    x = BlockSignal(rng.standard_normal(4), st_)
    phi = gaussian_matrix(3, st_, seed=7)
    save_json(structure_to_json(st_), tmp_path / "st.json")
    save_json(signal_to_json(x), tmp_path / "x.json")
    save_json(matrix_to_json(phi), tmp_path / "phi.json")
    assert load_structure(tmp_path / "st.json") == st_
    np.testing.assert_array_equal(load_signal(tmp_path / "x.json").coeffs, x.coeffs)
    np.testing.assert_array_equal(load_matrix(tmp_path / "phi.json").entries, phi.entries)


def test_csv_matrix_import(tmp_path):
    st_ = BlockStructure((2, 2))
    entries = np.array([[1.0, 2.5, -3.0, 4.0], [0.125, 0.25, 0.5, 1.0]])
    rows = "\n".join(",".join(format_float(v) for v in row) for row in entries)
    (tmp_path / "phi.csv").write_text(rows + "\n")
    save_json(structure_to_json(st_), tmp_path / "st.json")
    phi = load_matrix_csv(tmp_path / "phi.csv", tmp_path / "st.json")
    np.testing.assert_array_equal(phi.entries, entries)
    assert isinstance(phi, SensingMatrix)


def test_format_float_round_trips_doubles(rng):
    for _ in range(200):
        v = float(rng.standard_normal() * 10 ** int(rng.integers(-8, 9)))
        assert float(format_float(v)) == v


def test_save_json_rejects_non_finite_values(tmp_path):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            save_json({"bound": value}, tmp_path / "out.json")
    assert not (tmp_path / "out.json").exists()


_MATRIX_JSON = {"m": 1, "n": 2, "structure": {"blocks": [1, 1]}, "data": [1.0, 2.0]}


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("structure_from_json", "block_lengths[0]",
     lambda v: structure_from_json({"blocks": [v, 2]}), BAD_COUNTS),
    ("matrix_from_json", "m", lambda v: matrix_from_json(dict(_MATRIX_JSON, m=v)), BAD_COUNTS),
    ("matrix_from_json", "n", lambda v: matrix_from_json(dict(_MATRIX_JSON, n=v)), BAD_COUNTS),
))
def test_rejects_bad_count(name, call, value):
    with rejects_argument(name, value):
        call(value)


@pytest.mark.parametrize("blocks", [2, None, {"d": 2}])
def test_structure_json_needs_a_blocks_array(blocks):
    with pytest.raises(ValueError, match='"blocks" array'):
        structure_from_json({"blocks": blocks})


@pytest.mark.parametrize("name, call, value", bad_arrays(
    ("matrix_from_json", "data", lambda v: matrix_from_json(dict(_MATRIX_JSON, data=v)),
     _MATRIX_JSON["data"]),
    ("signal_from_json", "coeffs",
     lambda v: signal_from_json({"structure": {"blocks": [1, 1]}, "coeffs": v}), [1.0, 2.0]),
))
def test_rejects_bad_array(name, call, value):
    with rejects_array(name):
        call(value)


def test_csv_matrix_names_the_file_and_row_of_a_cell_that_is_no_number(tmp_path):
    save_json(structure_to_json(BlockStructure.uniform(1, 2)), tmp_path / "st.json")
    (tmp_path / "phi.csv").write_text("1.0,2.0\n\n3.0,abc\n")
    with pytest.raises(ValueError, match=r"phi\.csv, row 3: a cell is not a number$"):
        load_matrix_csv(tmp_path / "phi.csv", tmp_path / "st.json")


def test_csv_matrix_with_ragged_rows_is_refused_by_the_matrix_check(tmp_path):
    save_json(structure_to_json(BlockStructure.uniform(1, 2)), tmp_path / "st.json")
    (tmp_path / "phi.csv").write_text("1.0,2.0\n3.0\n")
    with rejects_array("entries"):
        load_matrix_csv(tmp_path / "phi.csv", tmp_path / "st.json")
