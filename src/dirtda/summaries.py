"""Persistence landscapes and distances between persistence diagrams.

Landscapes sample the k largest tent functions of a diagram on a uniform
grid. Bottleneck distance is exact: a Hopcroft-Karp perfect-matching check
at the lower bound every row and column of the augmented graph imposes
settles most pairs, and otherwise a binary search over the candidate radii
above it runs up to the diagonal bound. Wasserstein distance is solved as
an assignment problem on the diagonally augmented point sets with
infinity-norm ground metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .homology import PersistenceDiagram

__all__ = [
    "PersistenceLandscape",
    "landscape",
    "landscape_mean",
    "landscape_distance",
    "bottleneck",
    "wasserstein",
    "shared_t_max",
    "landscape_to_dict",
    "landscape_from_dict",
]

DEFAULT_K_MAX = 5
DEFAULT_N_GRID = 512
T_MAX_HEADROOM = 1.05


@dataclass(frozen=True)
class PersistenceLandscape:
    """Level functions lambda_1 >= lambda_2 >= ... sampled on a shared grid.

    levels has shape (k_max, n_grid); grid is the n_grid sample abscissae.
    """

    dim: int
    grid: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        grid = np.array(self.grid, dtype=float)
        levels = np.array(self.levels, dtype=float)
        if grid.ndim != 1 or levels.ndim != 2 or levels.shape[1] != grid.size:
            raise ValueError(
                f"levels {levels.shape} do not match grid of length {grid.size}"
            )
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(levels))):
            raise ValueError("landscape values must be finite")
        grid.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "levels", levels)

    @property
    def k_max(self) -> int:
        return self.levels.shape[0]


def shared_t_max(*diagrams: PersistenceDiagram) -> float:
    """Common truncation scale: 1.05 x the largest finite death anywhere.

    Falls back to 1.0 when no finite death is positive (none at all, or
    every one 0), so degenerate diagrams still produce a usable grid.
    """
    largest = max(
        (d for diagram in diagrams for _, _, d in diagram.pairs if math.isfinite(d)),
        default=0.0,
    )
    return T_MAX_HEADROOM * largest if largest > 0 else 1.0


def landscape(
    diagram: PersistenceDiagram,
    dim: int,
    k_max: int = DEFAULT_K_MAX,
    n_grid: int = DEFAULT_N_GRID,
    t_max: float | None = None,
) -> PersistenceLandscape:
    """Sample the first k_max landscape levels of one homology dimension.

    The grid is n_grid uniformly spaced points on [0, t_max]. Deaths beyond
    t_max, infinite ones included, are truncated to t_max before the tents
    min(t - birth, death - t)+ are evaluated. Level k at a grid point is the
    k-th largest tent value there, zero when fewer than k tents are active.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid}")
    if t_max is None:
        t_max = shared_t_max(diagram)
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")

    grid = np.linspace(0.0, t_max, n_grid)
    pairs = diagram.in_dim(dim)
    levels = np.zeros((k_max, n_grid))
    if pairs:
        births = np.array([b for b, _ in pairs])
        deaths = np.array([min(d, t_max) for _, d in pairs])
        tents = np.minimum(grid[None, :] - births[:, None], deaths[:, None] - grid[None, :])
        np.clip(tents, 0.0, None, out=tents)
        tents[::-1].sort(axis=0)  # descending per grid point
        take = min(k_max, tents.shape[0])
        levels[:take] = tents[:take]
    return PersistenceLandscape(dim, grid, levels)


def landscape_mean(landscapes: list[PersistenceLandscape]) -> PersistenceLandscape:
    """Pointwise mean of landscapes sharing dimension, grid, and k_max."""
    if not landscapes:
        raise ValueError("landscape_mean needs at least one landscape")
    first = landscapes[0]
    for other in landscapes[1:]:
        if other.dim != first.dim:
            raise ValueError("landscapes mix homology dimensions")
        if other.levels.shape != first.levels.shape or not np.array_equal(
            other.grid, first.grid
        ):
            raise ValueError("landscapes must share the same grid")
    stacked = np.mean([ls.levels for ls in landscapes], axis=0)
    return PersistenceLandscape(first.dim, first.grid, stacked)


def landscape_distance(
    a: PersistenceLandscape, b: PersistenceLandscape, p: float = 2
) -> float:
    """L2 (trapezoidal, levels stacked) or sup-norm distance between landscapes."""
    if a.levels.shape != b.levels.shape or not np.array_equal(a.grid, b.grid):
        raise ValueError("landscapes must share the same grid to be compared")
    diff = a.levels - b.levels
    if p == 2:
        return float(math.sqrt(np.trapezoid(diff**2, a.grid, axis=1).sum()))
    if math.isinf(p):
        return float(np.abs(diff).max()) if diff.size else 0.0
    raise ValueError(f"p must be 2 or inf, got {p}")


def _split_points(
    diagram: PersistenceDiagram, dim: int
) -> tuple[list[tuple[float, float]], list[float]]:
    finite = [(b, d) for k, b, d in diagram.pairs if k == dim and math.isfinite(d)]
    infinite = [b for k, b, d in diagram.pairs if k == dim and math.isinf(d)]
    return finite, infinite


def _diag_gap(p: tuple[float, float]) -> float:
    return (p[1] - p[0]) / 2.0


def _edge_radii(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> np.ndarray:
    """Smallest radius at which each edge of the augmented bipartite graph exists.

    Rows are a-points plus one diagonal proxy per b-point, columns are
    b-points plus one proxy per a-point. A point may pair with any point of
    the other diagram (infinity-norm distance) or with its own proxy (half
    its lifetime); proxies pair with each other for free. Missing edges are
    inf.
    """
    m, n = len(a), len(b)
    pa = np.array(a, dtype=float).reshape(m, 2)
    pb = np.array(b, dtype=float).reshape(n, 2)
    radii = np.full((m + n, m + n), np.inf)
    radii[:m, :n] = np.maximum(
        np.abs(pa[:, None, 0] - pb[None, :, 0]), np.abs(pa[:, None, 1] - pb[None, :, 1])
    )
    radii[np.arange(m), n + np.arange(m)] = (pa[:, 1] - pa[:, 0]) / 2.0
    radii[m + np.arange(n), np.arange(n)] = (pb[:, 1] - pb[:, 0]) / 2.0
    radii[m:, n:] = 0.0
    return radii


def _matchable_within(radii: np.ndarray, radius: float) -> bool:
    """Perfect-matching feasibility of the edges no longer than radius."""
    graph = csr_matrix(radii <= radius)
    return bool((maximum_bipartite_matching(graph, perm_type="column") >= 0).all())


def _infinite_part_max(a_births: list[float], b_births: list[float]) -> float:
    paired = zip(sorted(a_births), sorted(b_births))
    return max((abs(x - y) for x, y in paired), default=0.0)


def bottleneck(a: PersistenceDiagram, b: PersistenceDiagram, dim: int) -> float:
    """Exact bottleneck distance between the dim-slices of two diagrams.

    Finite points may be matched to each other or to their diagonal
    projections; points with infinite death must be matched to each other
    (sorted by birth), and a mismatch in their counts gives +inf.

    The finite part is the smallest edge radius at which the augmented
    graph has a perfect matching. No radius below the largest of the row
    and column minima can work, so that lower bound is checked first; when
    it fails, a binary search over the edge radii above it runs up to the
    largest half-lifetime, where matching every point to the diagonal is
    always perfect.
    """
    fin_a, inf_a = _split_points(a, dim)
    fin_b, inf_b = _split_points(b, dim)
    if len(inf_a) != len(inf_b):
        return math.inf
    inf_part = _infinite_part_max(inf_a, inf_b)

    radii = _edge_radii(fin_a, fin_b)
    # every row and every column needs an edge, so no smaller radius is feasible
    lb = max(radii.min(axis=1).max(), radii.min(axis=0).max()) if len(radii) else 0.0
    if _matchable_within(radii, lb):
        return max(float(lb), inf_part)
    ub = max(_diag_gap(p) for p in fin_a + fin_b)
    if not _matchable_within(radii, ub):
        raise AssertionError("the diagonal bound must be feasible")
    ordered = np.union1d([0.0], radii[np.isfinite(radii)])
    # smallest feasible radius in (lb, ub]; feasibility is monotone in the radius
    lo = int(np.searchsorted(ordered, lb, side="right"))
    hi = int(np.searchsorted(ordered, ub))
    while lo < hi:
        mid = (lo + hi) // 2
        if _matchable_within(radii, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(float(ordered[lo]), inf_part)


def wasserstein(
    a: PersistenceDiagram, b: PersistenceDiagram, dim: int, q: float = 1.0
) -> float:
    """q-Wasserstein distance with infinity-norm ground metric.

    Point sets are augmented with diagonal projections and matched by an
    exact assignment solver; the cost of a matching is the sum of
    displacement^q, and the returned distance is its q-th root. Infinite
    points follow the same convention as the bottleneck distance.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    fin_a, inf_a = _split_points(a, dim)
    fin_b, inf_b = _split_points(b, dim)
    if len(inf_a) != len(inf_b):
        return math.inf
    inf_cost = sum(
        abs(x - y) ** q for x, y in zip(sorted(inf_a), sorted(inf_b))
    )

    m, n = len(fin_a), len(fin_b)
    if m + n == 0:
        return float(inf_cost ** (1.0 / q))
    cost = np.zeros((m + n, m + n))
    block = _edge_radii(fin_a, fin_b)[:m, :n]
    if q != 1:
        # Python's float power, not numpy's, which can differ in the last bit
        block = np.array([r ** q for r in block.ravel().tolist()]).reshape(m, n)
    cost[:m, :n] = block
    diag_a = [_diag_gap(p) ** q for p in fin_a]
    diag_b = [_diag_gap(p) ** q for p in fin_b]
    big = (cost.sum() + sum(diag_a) + sum(diag_b) + 1.0) * 2
    cost[:m, n:] = big
    cost[m:, :n] = big
    for i in range(m):
        cost[i, n + i] = diag_a[i]
    for j in range(n):
        cost[m + j, j] = diag_b[j]
    # lower-right block: diagonal to diagonal is free
    rows, cols = linear_sum_assignment(cost)
    total = float(cost[rows, cols].sum()) + float(inf_cost)
    return float(total ** (1.0 / q))


def landscape_to_dict(ls: PersistenceLandscape) -> dict[str, Any]:
    """JSON form: {"dim": k, "grid": [...], "levels": [[...]]}."""
    return {"dim": ls.dim, "grid": ls.grid.tolist(), "levels": ls.levels.tolist()}


def landscape_from_dict(doc: dict[str, Any]) -> PersistenceLandscape:
    return PersistenceLandscape(
        int(doc["dim"]),
        np.array(doc["grid"], dtype=float),
        np.array(doc["levels"], dtype=float),
    )
