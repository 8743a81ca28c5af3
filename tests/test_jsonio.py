import os

import pytest

from dirtda.jsonio import read_json, write_json


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"a": 1}, str(path))
    before = path.read_bytes()
    # json.dump writes "a" before it reaches the value it cannot encode
    with pytest.raises(TypeError):
        write_json({"a": 2, "b": object()}, str(path))
    assert path.read_bytes() == before
    assert read_json(str(path)) == {"a": 1}
    assert os.listdir(tmp_path) == ["doc.json"]


def test_write_replaces_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"a": 1}, str(path))
    write_json({"b": [1, 2]}, str(path))
    assert path.read_text(encoding="utf-8") == '{\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert os.listdir(tmp_path) == ["doc.json"]
