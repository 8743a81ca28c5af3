import os

import pytest

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
