"""Outputs of one ``run_pipeline`` call, and their check against a reference.

The checked outputs are each cell's persistence diagram, read back from
the ``diagram_<window>_<band>.json`` artifact, and the cross-window
distances from the returned report. A cell fails when it is listed in
``report.failures``, when it is missing, when its diagram has a different
pair count in some dimension or a value more than ``TOL`` away from the
reference, or when a distance between it and another window of its band
differs by more than ``TOL``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

TOL = 1e-9
DISTANCE_KEYS = ("bottleneck", "wasserstein", "landscape_l2")


def _value(x: Any) -> float:
    return math.inf if x == "inf" else float(x)


def collect(report, out_dir: str) -> dict[str, Any]:
    """Per-cell diagrams (by dim) and per-band window-pair distances."""
    cells: dict[str, dict[str, list[list[float]]]] = {}
    for window, bands in report.cells.items():
        for band in bands:
            path = os.path.join(out_dir, f"diagram_{window}_{band}.json")
            with open(path, encoding="utf-8") as handle:
                pairs = json.load(handle)["pairs"]
            by_dim: dict[str, list[list[float]]] = {}
            for p in pairs:
                by_dim.setdefault(str(p["dim"]), []).append([p["birth"], p["death"]])
            cells[f"{window}|{band}"] = by_dim
    failures = sorted(f"{f['window']}|{f['band']}" for f in report.failures)
    return {"cells": cells, "distances": report.distances, "failures": failures}


def _close(x: Any, y: Any) -> bool:
    x, y = _value(x), _value(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= TOL


def _diagram_matches(got: dict[str, list], want: dict[str, list]) -> bool:
    if sorted(got) != sorted(want):
        return False
    for dim, pts in want.items():
        other = got[dim]
        if len(other) != len(pts):
            return False
        for (b1, d1), (b2, d2) in zip(other, pts):
            if not (_close(b1, b2) and _close(d1, d2)):
                return False
    return True


def _distance_matches(got: Any, want: Any, keys: tuple[str, ...]) -> bool:
    if not isinstance(got, dict) or sorted(got) != sorted(want):
        return False
    return all(_close(got[dim][key], entry[key]) for dim, entry in want.items() for key in keys)


def failed_cells(
    got: dict[str, Any],
    want: dict[str, Any],
    cells: list[str],
    distance_keys: tuple[str, ...] = DISTANCE_KEYS,
) -> set[str]:
    """Cells (``window|band``) among ``cells`` whose outputs differ from want.

    Distances are checked for every window pair of a band whose two cells
    are both in ``cells``; a mismatch fails both cells.
    """
    failed = {c for c in got["failures"] if c in cells}
    for cell in cells:
        if cell not in got["cells"] or cell not in want["cells"]:
            failed.add(cell)
        elif not _diagram_matches(got["cells"][cell], want["cells"][cell]):
            failed.add(cell)
    scope = set(cells)
    for band, pairs in want["distances"].items():
        for pair, entry in pairs.items():
            wa, wb = pair.split("|")
            ca, cb = f"{wa}|{band}", f"{wb}|{band}"
            if ca not in scope or cb not in scope:
                continue
            other = got["distances"].get(band, {}).get(pair)
            if not _distance_matches(other, entry, distance_keys):
                failed.update((ca, cb))
    return failed


def load_reference(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save_reference(doc: dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
