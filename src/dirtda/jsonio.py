"""Artifact files: the one JSON format of every artifact (compact, sorted
keys, floats as repr, one trailing newline), the atomic write that every
artifact goes through, the reader, which refuses a repeated key, the
tests of a read value's JSON type, and the conversions of a read field to
floats, which name a field of the wrong type."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Iterator, TextIO

import numpy as np

__all__ = ["open_atomic", "write_json", "read_json", "is_int", "is_number", "float_field",
           "float_array_field"]


@contextmanager
def open_atomic(path: str) -> Iterator[TextIO]:
    """Text handle whose content replaces path only when the block completes.

    Writes go to a temporary file in path's directory, which is renamed over
    path with os.replace on success and removed on any exception, so path
    always holds either its previous content or the complete new one.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(doc: dict[str, Any], path: str) -> None:
    # json.dumps, unlike json.dump, encodes with CPython's C encoder
    text = json.dumps(doc, sort_keys=True)
    with open_atomic(path) as handle:
        handle.write(text + "\n")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc: dict[str, Any] = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} appears more than once in one JSON object")
        doc[key] = value
    return doc


def read_json(path: str) -> dict[str, Any]:
    """The JSON object in path; any other top level is an error, as is an
    object that repeats a key, where json.load would keep its last value."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle, object_pairs_hook=_unique_keys)
    if not isinstance(doc, dict):
        kind = "null" if doc is None else type(doc).__name__
        raise ValueError(f"{path}: expected a JSON object at the top level, got {kind}")
    return doc


def is_int(value: Any) -> bool:
    """Whether value is a JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """Whether value is a JSON number: an int (not a bool) or a float."""
    return is_int(value) or isinstance(value, float)


def float_field(value: Any, what: str) -> float:
    """float(value); a value float() refuses for its type, such as null or
    a list, raises ValueError naming the field what."""
    try:
        return float(value)
    except TypeError:
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def float_array_field(value: Any, what: str) -> np.ndarray:
    """value as a float array; a value numpy refuses for its type, such as
    an object anywhere in it, raises ValueError naming the field what."""
    try:
        return np.array(value, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{what} must be an array of numbers: {exc}") from None
