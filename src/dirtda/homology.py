"""Vietoris-Rips filtrations and persistent homology over GF(2).

A simplex enters the filtration at the largest pairwise distance among its
vertices (vertices enter at 0). Persistence pairs are computed by boundary
matrix column reduction with the clearing optimization: dimensions are
processed top-down so columns already identified as creators are skipped.
Zero-persistence pairs are dropped from diagrams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any

import numpy as np

from .decomp import DistanceMatrix
from .jsonio import read_json, write_json

__all__ = [
    "Simplex",
    "Filtration",
    "PersistenceDiagram",
    "rips_filtration",
    "persistence",
    "betti_at",
    "total_persistence",
    "diagram_to_dict",
    "diagram_from_dict",
]


@dataclass(frozen=True)
class Simplex:
    """Vertex tuple (ascending) plus the filtration value it enters at."""

    vertices: tuple[int, ...]
    value: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class Filtration:
    """Simplices sorted by (value, dimension, lexicographic vertices)."""

    simplices: tuple[Simplex, ...]
    n_nodes: int
    max_dim: int


@dataclass(frozen=True)
class PersistenceDiagram:
    """Persistence pairs (dim, birth, death); death may be math.inf.

    Pairs are sorted by (dim, birth, death) and contain no zero-persistence
    entries.
    """

    pairs: tuple[tuple[int, float, float], ...]

    def in_dim(self, dim: int) -> tuple[tuple[float, float], ...]:
        return tuple((b, d) for k, b, d in self.pairs if k == dim)


def rips_filtration(dm: DistanceMatrix, max_dim: int = 2) -> Filtration:
    """All simplices on the metric's nodes up to dimension max_dim + 1.

    max_dim is the largest homology dimension to be reported later and must
    be 1 or 2; simplices one dimension higher are needed as potential
    destroyers.
    """
    if max_dim not in (1, 2):
        raise ValueError(f"max_dim must be 1 or 2, got {max_dim}")
    dist = dm.dist
    n = dm.n_nodes
    simplices: list[Simplex] = [Simplex((v,), 0.0) for v in range(n)]
    for size in range(2, max_dim + 3):
        for verts in combinations(range(n), size):
            value = max(dist[i][j] for i, j in combinations(verts, 2))
            simplices.append(Simplex(verts, float(value)))
    simplices.sort(key=lambda s: (s.value, s.dim, s.vertices))
    return Filtration(tuple(simplices), n, max_dim)


def persistence(filtration: Filtration) -> PersistenceDiagram:
    """Reduce the boundary matrix and read off persistence pairs.

    Columns are GF(2) bit masks over the global filtration order. For each
    dimension, processed from (max_dim + 1) down to 1, a column is XOR-reduced
    against earlier columns sharing its lowest one; a surviving column pairs
    its low index (birth) with its own index (death), and the paired birth
    column is cleared without reduction.
    """
    simps = filtration.simplices
    order = {s.vertices: i for i, s in enumerate(simps)}
    n_simp = len(simps)
    top = filtration.max_dim + 1

    by_dim: dict[int, list[int]] = {q: [] for q in range(top + 1)}
    for i, s in enumerate(simps):
        by_dim[s.dim].append(i)

    reduced: dict[int, int] = {}
    pivot_col: dict[int, int] = {}
    cleared = bytearray(n_simp)
    zero_col = bytearray(n_simp)
    pairs: list[tuple[int, int]] = []

    for q in range(top, 0, -1):
        for j in by_dim[q]:
            if cleared[j]:
                continue
            verts = simps[j].vertices
            col = 0
            for face in combinations(verts, q):
                col ^= 1 << order[face]
            while col:
                low = col.bit_length() - 1
                other = pivot_col.get(low)
                if other is None:
                    break
                col ^= reduced[other]
            if col:
                low = col.bit_length() - 1
                reduced[j] = col
                pivot_col[low] = j
                pairs.append((low, j))
                cleared[low] = 1
            else:
                zero_col[j] = 1

    out: list[tuple[int, float, float]] = []
    for i, j in pairs:
        dim = simps[i].dim
        if dim > filtration.max_dim:
            continue
        birth, death = simps[i].value, simps[j].value
        if death > birth:
            out.append((dim, birth, death))
    # unpaired creators are essential classes; vertices are never reduced
    # explicitly, so any vertex not cleared is an essential 0-class
    for i, s in enumerate(simps):
        if s.dim > filtration.max_dim:
            continue
        unpaired = (zero_col[i] or s.dim == 0) and not cleared[i]
        if unpaired:
            out.append((s.dim, s.value, math.inf))
    out.sort(key=lambda p: (p[0], p[1], p[2]))
    return PersistenceDiagram(tuple(out))


def betti_at(diagram: PersistenceDiagram, epsilon: float, dim: int) -> int:
    """Number of dim-classes alive at scale epsilon (born <= epsilon < death)."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return sum(1 for k, b, d in diagram.pairs if k == dim and b <= epsilon < d)


def total_persistence(diagram: PersistenceDiagram, dim: int) -> float:
    """Sum of finite lifetimes death - birth in one dimension."""
    return float(
        sum(d - b for k, b, d in diagram.pairs if k == dim and math.isfinite(d))
    )


def diagram_to_dict(diagram: PersistenceDiagram) -> dict[str, Any]:
    """JSON form: {"pairs": [{"dim": k, "birth": b, "death": d | "inf"}]}."""
    return {
        "pairs": [
            {"dim": k, "birth": b, "death": ("inf" if math.isinf(d) else d)}
            for k, b, d in diagram.pairs
        ]
    }


def diagram_from_dict(doc: dict[str, Any]) -> PersistenceDiagram:
    pairs = []
    for item in doc["pairs"]:
        death = item["death"]
        death = math.inf if death == "inf" else float(death)
        pairs.append((int(item["dim"]), float(item["birth"]), death))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    return PersistenceDiagram(tuple(pairs))


def save_diagram(diagram: PersistenceDiagram, path: str) -> None:
    write_json(diagram_to_dict(diagram), path)


def load_diagram(path: str) -> PersistenceDiagram:
    return diagram_from_dict(read_json(path))
