import os
import re

import numpy as np
import pytest

from dirtda import (
    DirectedNetwork,
    DistanceMatrix,
    FrequencyBand,
    MultivariateSeries,
    PersistenceLandscape,
    VarModel,
)
from dirtda.jsonio import open_atomic, read_json, write_json


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"a": 1}, str(path))
    before = path.read_bytes()
    # the encoder rejects the value, so the file keeps its previous content
    with pytest.raises(TypeError):
        write_json({"a": 2, "b": object()}, str(path))
    assert path.read_bytes() == before
    assert read_json(str(path)) == {"a": 1}
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_block_removes_partial_temp_file(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with open_atomic(str(path)) as handle:
            handle.write("partly written")
            handle.flush()
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["doc.txt"]


def test_write_replaces_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"a": 1}, str(path))
    write_json({"b": [1, 2]}, str(path))
    assert path.read_text(encoding="utf-8") == '{"b": [1, 2]}\n'
    assert os.listdir(tmp_path) == ["doc.json"]


@pytest.mark.parametrize(
    "text", ['{"a": 1, "a": 2}', '{"pairs": [{"dim": 0, "dim": 1}]}'], ids=["top", "nested"]
)
def test_repeated_key_refused(tmp_path, text):
    # json.load keeps the last value of a repeated key
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="appears more than once in one JSON object"):
        read_json(str(path))


# every array a type holds: (build from keyword arrays, valid arrays, the
# array under test, its name in messages, how an entry at flat index 2 is named)
_LEVELS = {"grid": np.linspace(0.0, 1.0, 4), "levels": np.zeros((2, 4))}
_MODEL = {"coeffs": np.zeros((1, 2, 2)), "innovation_cov": np.eye(2)}
HELD = {
    "samples": (lambda samples: MultivariateSeries(samples, 1.0), {"samples": np.zeros((4, 2))},
                "series samples", "row 2, column 1"),
    "coeffs": (VarModel, _MODEL, "model coeffs", "index (0, 1, 0)"),
    "innovation_cov": (VarModel, _MODEL, "model sigma", "row 2, column 1"),
    "weights": (lambda weights: DirectedNetwork(weights, FrequencyBand("b", 1, 2), None),
                {"weights": np.zeros((2, 2))}, "network w", "row 2, column 1"),
    "dist": (lambda dist: DistanceMatrix(dist, None), {"dist": np.zeros((2, 2))},
             "distance matrix", "row 2, column 1"),
    "grid": (lambda grid, levels: PersistenceLandscape(1, grid, levels), _LEVELS,
             "landscape grid", "index (2,)"),
    "levels": (lambda grid, levels: PersistenceLandscape(1, grid, levels), _LEVELS,
               "landscape levels", "row 1, column 3"),
}
held = pytest.mark.parametrize("field", HELD)
as_list = pytest.mark.parametrize("as_list", [False, True], ids=["ndarray", "list"])


def build_with(field, value):
    build, arrays, _, _ = HELD[field]
    return build(**{**arrays, field: value})


@held
@pytest.mark.parametrize("leaf", [True, np.True_, "0.5", None], ids=["bool", "numpy-bool",
                                                                     "string", "null"])
def test_held_array_refuses_a_leaf_that_is_not_a_number(field, leaf):
    value = np.array(HELD[field][1][field], dtype=object)
    value.flat[0] = leaf
    with pytest.raises(ValueError, match=f"^{HELD[field][2]} must be an array of numbers$"):
        build_with(field, value.tolist())


@held
@as_list
def test_held_array_names_its_first_non_finite_entry(field, as_list):
    value = np.array(HELD[field][1][field], dtype=float)
    value.flat[2], value.flat[3] = np.nan, np.inf
    _, _, what, where = HELD[field]
    with pytest.raises(ValueError, match=re.escape(f"{what} must be finite, got nan at {where}")):
        build_with(field, value.tolist() if as_list else value)


@held
@as_list
def test_held_array_is_a_read_only_float_copy(field, as_list):
    given = HELD[field][1][field].copy()
    kept = getattr(build_with(field, given.tolist() if as_list else given), field)
    assert kept.dtype == np.float64 and not kept.flags.writeable
    assert not np.shares_memory(kept, given) and np.array_equal(kept, given)
    # the caller's array is not frozen in passing
    assert given.flags.writeable
