"""Vietoris-Rips filtrations and persistent homology over GF(2).

A simplex enters the filtration at the largest pairwise distance among its
vertices (vertices enter at 0). Simplices up to dimension max_dim + 1 are
built as integer vertex arrays, one per dimension, and ranked within their
dimension by (value, lexicographic vertices).

Only simplices entering by the enclosing radius r = min_i max_j dist[i, j]
are kept. At r some vertex is joined to every other, so the complex is a
cone: every class of dimension 1..max_dim and all but one 0-class have
died by then, and a simplex entering later can only open and close a
class at one value. The pairs dropped with those simplices all have zero
persistence.

Pairs are computed by persistent cohomology, which yields the same pairs
as boundary reduction (de Silva, Morozov & Vejdemo-Johansson, "Dualities
in persistent (co)homology", 2011), with the shortcuts of Ripser (Bauer,
J. Appl. Comput. Topol. 2021):

- in every dimension k, from 0 to max_dim, the coboundary column of a
  k-simplex holds its (k+1)-cofacets and its pivot is the earliest of
  them. Columns are reduced in reverse filtration order;
- a k-simplex whose earliest cofacet has it as latest facet forms an
  apparent pair, which is read off without reduction;
- a column is cleared when its simplex is the pivot of a column one
  dimension lower, so the dimension-1 columns of the edges that joined two
  components in dimension 0 are never reduced.

The one essential 0-class is the vertex column that reduces to zero: the
kept complex is a cone, hence connected.

Zero-persistence pairs are dropped from diagrams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .decomp import DistanceMatrix
from .jsonio import is_int, is_number, read_artifact, write_json

__all__ = [
    "Filtration",
    "PersistenceDiagram",
    "rips_filtration",
    "persistence",
    "total_persistence",
    "diagram_to_dict",
    "diagram_from_dict",
    "save_diagram",
    "load_diagram",
]


@dataclass(frozen=True, eq=False)
class Filtration:
    """Rips simplices up to dimension max_dim + 1 entering by the radius.

    vertices[k] is an (m_k, k + 1) array of ascending vertex indices and
    values[k] the matching entry values, both ordered by (value,
    lexicographic vertices). radius is the enclosing radius; no simplex
    entering later is kept.
    """

    n_nodes: int
    max_dim: int
    radius: float
    vertices: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PersistenceDiagram:
    """Persistence pairs (dim, birth, death); death may be math.inf.

    Each pair is checked when the diagram is built: its dim is a
    non-negative int and its birth and death are numbers (no bools or
    strings), its birth is finite, its death is not NaN and lies at or above
    its birth; ValueError names the first pair that fails by its index. The
    pairs are stored as (int, float, float) sorted by (dim, birth, death).
    persistence() yields no zero-persistence pairs, but a diagram may hold them.
    """

    pairs: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        for i, (dim, birth, death) in enumerate(self.pairs):
            if not (is_int(dim) and dim >= 0):
                raise ValueError(
                    f"diagram pair {i}: dim must be a non-negative integer, got {dim!r}"
                )
            if not is_number(birth):
                raise ValueError(f"diagram pair {i}: birth must be a number, got {birth!r}")
            if not is_number(death):
                raise ValueError(f"diagram pair {i}: death must be a number, got {death!r}")
            if not math.isfinite(birth):
                raise ValueError(f"diagram pair {i}: birth must be finite, got {birth}")
            if math.isnan(death):
                raise ValueError(f"diagram pair {i}: death must not be NaN")
            if death < birth:
                raise ValueError(f"diagram pair {i}: death {death} is below birth {birth}")
        pairs = sorted((k, float(b), float(d)) for k, b, d in self.pairs)
        object.__setattr__(self, "pairs", tuple(pairs))

    def in_dim(self, dim: int) -> tuple[tuple[float, float], ...]:
        """(birth, death) of the pairs in dimension dim, a non-negative int;
        a dimension above every pair's is empty."""
        if not (is_int(dim) and dim >= 0):
            raise ValueError(f"dim must be a non-negative integer, got {dim!r}")
        return tuple((b, d) for k, b, d in self.pairs if k == dim)


def rips_filtration(dm: DistanceMatrix, max_dim: int = 2) -> Filtration:
    """Simplices on the metric's nodes up to dimension max_dim + 1 that
    enter by the enclosing radius.

    max_dim is the largest homology dimension to be reported later and must
    be 1 or 2; simplices one dimension higher are needed as potential
    destroyers.
    """
    if max_dim not in (1, 2):
        raise ValueError(f"max_dim must be 1 or 2, got {max_dim}")
    dist = dm.dist
    n = dm.n_nodes
    radius = float(dist.max(axis=1).min())
    # lexicographic enumeration: extend each kept simplex by every larger
    # vertex; a simplex beyond the radius has no cofacet within it
    lex_verts = np.arange(n).reshape(n, 1)
    lex_values = np.zeros(n)
    vertices, values = [lex_verts], [lex_values]
    for _ in range(max_dim + 1):
        last = lex_verts[:, -1]
        counts = n - 1 - last
        parent = np.repeat(np.arange(len(last)), counts)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        new = last[parent] + 1 + offset
        value = np.maximum(
            lex_values[parent], dist[lex_verts[parent], new[:, None]].max(axis=1)
        )
        keep = value <= radius
        lex_verts = np.column_stack((lex_verts[parent[keep]], new[keep]))
        lex_values = value[keep]
        order = np.argsort(lex_values, kind="stable")
        vertices.append(lex_verts[order])
        values.append(lex_values[order])
    return Filtration(n, max_dim, radius, tuple(vertices), tuple(values))


def _facet_ranks(lower: np.ndarray, upper: np.ndarray, n: int) -> np.ndarray:
    """Rank within lower of each facet of each simplex in upper.

    Simplices are keyed by their combinatorial number sum_i C(v_i, i + 1)
    over ascending vertices v_0 < v_1 < ..., which is dense below
    C(n, size) and distinct per vertex set.
    """
    size = lower.shape[1]
    binom = np.array(
        [[math.comb(v, i + 1) for i in range(size)] for v in range(n)], dtype=np.int64
    )

    def key(rows: np.ndarray) -> np.ndarray:
        return binom[rows, np.arange(size)].sum(axis=1)

    rank = np.full(math.comb(n, size), -1, dtype=np.int64)
    rank[key(lower)] = np.arange(len(lower))
    ranks = np.empty((len(upper), size + 1), dtype=np.int64)
    for drop in range(size + 1):
        ranks[:, drop] = rank[key(np.delete(upper, drop, axis=1))]
    return ranks


def _coboundaries(facets: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cofacet ranks of m k-simplices, given the facets of each (k+1)-simplex.

    The coboundary of k-simplex s is cobound[start[s]:start[s + 1]], in
    ascending rank order.
    """
    flat = facets.ravel()
    # the narrowest unsigned type holding every rank gives the same stable
    # permutation; at 16 bits or fewer numpy's stable sort is a radix sort
    narrow = flat.astype(np.min_scalar_type(max(m - 1, 0)))
    cobound = np.argsort(narrow, kind="stable") // facets.shape[1]
    start = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=m), out=start[1:])
    return cobound, start


def _apparent_pairs(
    facets: np.ndarray, cobound: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(k-simplex, earliest cofacet) pairs where the cofacet's latest facet
    is that k-simplex; these pivots need no reduction."""
    has_cofacet = np.flatnonzero(start[1:] > start[:-1])
    earliest = cobound[start[has_cofacet]]
    apparent = facets.max(axis=1)[earliest] == has_cofacet
    return has_cofacet[apparent], earliest[apparent]


def _cohomology_pairs(
    cleared: np.ndarray, facets: np.ndarray
) -> tuple[list[int], list[int], list[int]]:
    """Reduce the coboundary columns of one dimension.

    cleared marks the k-simplices already paired one dimension lower;
    facets[t] holds the k-simplex ranks of the facets of (k+1)-simplex t.
    Returns (births, deaths, essential): paired k- and (k+1)-simplex ranks
    and the ranks of k-simplices whose column reduced to zero. A cleared
    column would reduce to zero too, so cleared must hold every death of
    dimension k - 1, or those simplices come out as essential classes.
    """
    cobound, start = _coboundaries(facets, len(cleared))
    apparent_births, apparent_deaths = _apparent_pairs(facets, cobound, start)
    births, deaths = apparent_births.tolist(), apparent_deaths.tolist()
    skip = cleared.copy()
    skip[apparent_births] = True

    # columns are ascending rank arrays, so a column's pivot is its first
    # entry; owner[pivot] is the column whose reduced coboundary has that
    # pivot. Only reduced columns are stored: an apparent column is its
    # unreduced coboundary.
    owner = dict(zip(deaths, births))
    columns: dict[int, np.ndarray] = {}
    essential = []

    def column(s: int) -> np.ndarray:
        return cobound[start[s] : start[s + 1]]

    for s in np.flatnonzero(~skip)[::-1].tolist():
        col = column(s)
        while len(col):
            pivot = int(col[0])
            other = owner.get(pivot)
            if other is None:
                owner[pivot] = s
                columns[s] = col
                births.append(s)
                deaths.append(pivot)
                break
            reduced = columns[other] if other in columns else column(other)
            col = np.setxor1d(col, reduced, assume_unique=True)
        else:
            essential.append(s)
    return births, deaths, essential


def persistence(filtration: Filtration) -> PersistenceDiagram:
    """Persistence pairs of the filtration in dimensions 0..max_dim."""
    vertices, values = filtration.vertices, filtration.values
    out: list[tuple[int, float, float]] = []
    cleared = np.zeros(filtration.n_nodes, dtype=bool)
    for k in range(filtration.max_dim + 1):
        facets = _facet_ranks(vertices[k], vertices[k + 1], filtration.n_nodes)
        births, deaths, essential = _cohomology_pairs(cleared, facets)
        for birth, death in zip(values[k][births].tolist(), values[k + 1][deaths].tolist()):
            if death > birth:
                out.append((k, birth, death))
        out += [(k, birth, math.inf) for birth in values[k][essential].tolist()]
        cleared = np.zeros(len(values[k + 1]), dtype=bool)
        cleared[deaths] = True
    return PersistenceDiagram(tuple(out))


def total_persistence(diagram: PersistenceDiagram, dim: int) -> float:
    """Sum of finite lifetimes death - birth in dim, as in_dim takes it."""
    return float(sum(d - b for b, d in diagram.in_dim(dim) if math.isfinite(d)))


def diagram_to_dict(diagram: PersistenceDiagram) -> dict[str, Any]:
    """JSON form: {"pairs": [{"dim": k, "birth": b, "death": d | "inf"}]}."""
    return {
        "pairs": [
            {"dim": k, "birth": b, "death": ("inf" if math.isinf(d) else d)}
            for k, b, d in diagram.pairs
        ]
    }


def diagram_from_dict(doc: dict[str, Any]) -> PersistenceDiagram:
    """Inverse of diagram_to_dict: pairs must be a list of objects, a death
    of "inf" is math.inf, and PersistenceDiagram refuses any other string."""
    pairs = doc["pairs"]
    if not isinstance(pairs, list):
        raise ValueError(f"diagram pairs must be a list, got {type(pairs).__name__}")
    out = []
    for i, p in enumerate(pairs):
        if not isinstance(p, dict):
            raise ValueError(f"diagram pair {i}: must be an object, got {p!r}")
        death = math.inf if p["death"] == "inf" else p["death"]
        out.append((p["dim"], p["birth"], death))
    return PersistenceDiagram(tuple(out))


def save_diagram(diagram: PersistenceDiagram, path: str) -> None:
    write_json(diagram_to_dict(diagram), path)


def load_diagram(path: str) -> PersistenceDiagram:
    return read_artifact(path, diagram_from_dict)
