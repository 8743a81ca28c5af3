"""Artifact files: the one JSON format of every artifact (compact, sorted
keys, floats as repr, one trailing newline), the atomic write of every
file, the reader, which refuses a repeated key and names the file in every
refusal, the JSON number tests each type checks its scalars with, and the
one maker of every array a type holds: a new, finite, read-only float64
array, or a ValueError naming the field."""

from __future__ import annotations

import json
import numbers
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TextIO

import numpy as np

__all__ = ["open_atomic", "write_json", "read_json", "read_artifact", "is_int", "is_number",
           "float_array_field"]


@contextmanager
def open_atomic(path: str) -> Iterator[TextIO]:
    """Text handle whose content replaces path only when the block completes.

    Writes go to a temporary file in path's directory, which is renamed over
    path with os.replace on success and removed on any exception, so path
    always holds either its previous content or the complete new one. No
    newline is translated, so csv's CRLF rows survive on any platform.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
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
        raise ValueError(f"expected a JSON object at the top level, got {kind}")
    return doc


def read_artifact(path: str, from_dict: Callable[[dict[str, Any]], Any]) -> Any:
    """from_dict of the JSON object in path. Any ValueError (JSON syntax, a
    repeated key, the wrong top level, a refusal by from_dict) is raised again
    starting with path, and a KeyError as "path: missing key 'k'"."""
    try:
        return from_dict(read_json(path))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def is_int(value: Any) -> bool:
    """Whether value is a JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """Whether value is a JSON number: an int (not a bool) or a float."""
    return is_int(value) or isinstance(value, float)


def float_array_field(value: Any, what: str) -> np.ndarray:
    """value as a new, finite, read-only float64 array, or a ValueError
    naming the field what. An ndarray of a float or integer dtype is copied
    as it is; any other value is walked once and must hold numbers only: no
    bool, string, null, object or ragged row. The first non-finite entry is
    named by its 1-based row and column in a 2-d array, else by its index."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        arr = value.astype(float)
    else:
        try:
            leaves = np.array(value, dtype=object)
            if not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                       for x in leaves.flat):
                raise TypeError
            arr = leaves.astype(float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{what} must be an array of numbers") from None
    if not np.isfinite(arr).all():
        at = tuple(np.argwhere(~np.isfinite(arr))[0].tolist())
        where = f"row {at[0] + 1}, column {at[1] + 1}" if arr.ndim == 2 else f"index {at}"
        raise ValueError(f"{what} must be finite, got {arr[at]} at {where}")
    arr.setflags(write=False)
    return arr
