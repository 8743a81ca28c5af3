"""The one JSON file format of every artifact: indent 2, sorted keys, newline."""

from __future__ import annotations

import json
from typing import Any

__all__ = ["write_json", "read_json"]


def write_json(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
