"""Persistence landscapes and distances between persistence diagrams.

Landscapes sample the k largest tent functions of a diagram on a uniform
grid. Both diagram distances read one matrix: the radius at which each edge
of the diagonally augmented bipartite graph between the two point sets
exists, with infinity-norm ground metric and inf for edges no matching may
use. Bottleneck distance is exact: a perfect-matching check at the lower
bound every row and column of that graph imposes settles most pairs, and
otherwise a binary search over the edge radii above it runs up to the
diagonal bound. Wasserstein distance at q = 1 is the cheapest assignment
of the same matrix; at any other q it is one assignment of the edges no
longer than n^(1/q) times the bottleneck radius, divided by that radius
before the power. The last pair's matrix and radius are cached, so both
distances of one pair build the one and search the other once. Both use
scipy's dense assignment solver. The first distance computed loads only
the compiled module that defines it, not the scipy.optimize package, so
importing this module loads no scipy and a distance loads one scipy module.
"""

from __future__ import annotations

import bisect
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .homology import PersistenceDiagram
from .jsonio import float_array_field, is_int

__all__ = [
    "PersistenceLandscape",
    "landscape",
    "landscape_distance",
    "bottleneck",
    "wasserstein",
    "shared_t_max",
    "landscape_to_dict",
]

DEFAULT_K_MAX = 5
DEFAULT_N_GRID = 512
T_MAX_HEADROOM = 1.05


@dataclass(frozen=True)
class PersistenceLandscape:
    """Level functions lambda_1 >= lambda_2 >= ... sampled on a shared grid.

    levels has shape (k_max, n_grid); grid is the n_grid sample abscissae.
    dim is a non-negative int, not a bool.
    """

    dim: int
    grid: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        if not (is_int(self.dim) and self.dim >= 0):
            raise ValueError(f"landscape dim must be a non-negative integer, got {self.dim!r}")
        grid = float_array_field(self.grid, "landscape grid")
        levels = float_array_field(self.levels, "landscape levels")
        if grid.ndim != 1 or levels.ndim != 2 or levels.shape[1] != grid.size:
            raise ValueError(f"levels {levels.shape} do not match grid of length {grid.size}")
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


def _finite_points(diagram: PersistenceDiagram, dim: int) -> list[tuple[float, float]]:
    return [(b, d) for b, d in diagram.in_dim(dim) if math.isfinite(d)]


def _essential_gaps(
    a: PersistenceDiagram, b: PersistenceDiagram, dim: int
) -> tuple[float, ...] | None:
    """Birth gaps of the infinite-death points of a and b, paired in birth
    order, or None when the two diagrams hold different numbers of them."""
    births_a = sorted(x for x, d in a.in_dim(dim) if math.isinf(d))
    births_b = sorted(y for y, d in b.in_dim(dim) if math.isinf(d))
    if len(births_a) != len(births_b):
        return None
    return tuple(float(abs(x - y)) for x, y in zip(births_a, births_b))


def _edge_radii(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> np.ndarray:
    """Smallest radius at which each edge of the augmented bipartite graph exists.

    Rows are a-points plus one diagonal proxy per b-point, columns are
    b-points plus one proxy per a-point. A point may pair with any point of
    the other diagram (infinity-norm distance) or with its own proxy (half
    its lifetime); proxies pair with each other for free. Missing edges are
    inf, and each point to its own proxy is a finite assignment, so the
    solver never finds one infeasible. The bottleneck distance searches
    these radii; the q-Wasserstein cost matrix is these radii raised to q.
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


def _lsap_file() -> str | None:
    """Path of scipy's compiled assignment-solver module, None if not found.

    find_spec of a top-level package locates it without importing it.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.submodule_search_locations is None:
        return None
    roots = [os.path.join(root, "optimize") for root in spec.submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec("_lsap", roots)
    return None if found is None else found.origin


@functools.cache
def _solver() -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """scipy's linear_sum_assignment, loaded once, on the first distance.

    scipy.optimize.linear_sum_assignment is the function of the compiled
    module scipy.optimize._lsap, input checks included. Importing the
    package for it would load ~320 scipy modules, scipy.linalg and
    scipy.sparse among them, and scipy's own BLAS: ~48 MB and ~0.4 s. So
    the module is loaded on its own, under its own name, and a later
    import of scipy.optimize reuses it. A package already imported is used
    as it is; a scipy whose module cannot be found or loaded this way is
    imported whole.
    """
    if "scipy.optimize" in sys.modules:
        return sys.modules["scipy.optimize"].linear_sum_assignment
    path = _lsap_file()
    if path is not None:
        name = "scipy.optimize._lsap"
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader)
            )
            loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules[name] = module
            return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def _matchable_within(radii: np.ndarray, radius: float) -> bool:
    """Perfect-matching feasibility of the edges no longer than radius.

    Every edge costs 1 when longer than radius and 0 otherwise. A square
    matrix always has a full assignment, and the cheapest one uses as few
    over-long edges as any perfect matching can, so its cost is 0 exactly
    when the edges within radius hold a perfect matching.
    """
    over = radii > radius
    rows, cols = _solver()(over)
    return not over[rows, cols].any()


@functools.lru_cache(maxsize=1, typed=True)
def _matching(
    a: PersistenceDiagram, b: PersistenceDiagram, dim: int
) -> tuple[np.ndarray, float, tuple[float, ...]] | None:
    """What both distances read from the dim-slices of a and b.

    The augmented edge radii of their finite points (read-only), their
    _bottleneck_radius up to the diagonal bound (the largest half-lifetime
    of any finite point, 0.0 with none) and the birth gaps of their
    essential points; None when a and b hold different numbers of
    essential points.

    The last result is cached, keyed by the diagrams' values and by dim and
    its type, so the second distance of one pair reads the first one's
    matrix and radius. The cache keeps that matrix and the two diagrams
    alive after the call; at d = 32 the matrix is 31 kB in dim 0 and
    45-77 kB in dim 1.
    """
    gaps = _essential_gaps(a, b, dim)
    if gaps is None:
        return None
    fin_a, fin_b = _finite_points(a, dim), _finite_points(b, dim)
    ub = max(((death - birth) / 2.0 for birth, death in fin_a + fin_b), default=0.0)
    radii = _edge_radii(fin_a, fin_b)
    radii.setflags(write=False)
    return radii, _bottleneck_radius(radii, ub), gaps


def _bottleneck_radius(radii: np.ndarray, ub: float) -> float:
    """Smallest edge radius at which the augmented graph has a perfect matching.

    No radius below the largest of the row and column minima can work, so
    that lower bound is checked first; when it fails, a binary search over
    the edge radii above it runs up to ub, the largest half-lifetime, where
    matching every point to the diagonal is always perfect.
    """
    # every row and every column needs an edge, so no smaller radius is feasible
    lb = max(radii.min(axis=1).max(), radii.min(axis=0).max()) if len(radii) else 0.0
    if _matchable_within(radii, lb):
        return float(lb)
    if not _matchable_within(radii, ub):
        raise AssertionError("the diagonal bound must be feasible")
    # smallest feasible radius in (lb, ub]; feasibility is monotone in the
    # radius, and ub is an edge radius, so the last candidate is feasible
    # and goes unprobed
    ordered = np.unique(radii[(radii > lb) & (radii <= ub)])
    first = bisect.bisect_left(
        ordered, True, 0, len(ordered) - 1, key=lambda r: _matchable_within(radii, r)
    )
    return float(ordered[first])


def bottleneck(a: PersistenceDiagram, b: PersistenceDiagram, dim: int) -> float:
    """Exact bottleneck distance between the dim-slices of two diagrams.

    Finite points may be matched to each other or to their diagonal
    projections; points with infinite death must be matched to each other
    (sorted by birth), and a mismatch in their counts gives +inf. The
    finite part is _bottleneck_radius of the augmented edge radii.
    """
    matching = _matching(a, b, dim)
    if matching is None:
        return math.inf
    _, radius, gaps = matching
    return max(radius, max(gaps, default=0.0))


def _powered(radii: np.ndarray, scale: float, q: float) -> np.ndarray:
    """radii divided by scale and raised to q.

    A new array, as the cached radii are read-only. Python's float power,
    not numpy's, which can differ in the last bit; 0 and inf are their own
    powers.
    """
    cost = radii / scale
    powered = (cost > 0) & np.isfinite(cost)
    cost[powered] = [r ** q for r in cost[powered].tolist()]
    return cost


def wasserstein(
    a: PersistenceDiagram, b: PersistenceDiagram, dim: int, q: float = 1.0
) -> float:
    """q-Wasserstein distance with infinity-norm ground metric.

    The cost matrix is the bottleneck's augmented edge radii raised to q,
    inf marking the edges no matching may use, and an exact assignment
    solver finds the cheapest matching. Infinite points follow the same
    convention as the bottleneck distance. q must be finite and at least 1.

    At q = 1 the distance is that matching's cost. At any other q the solve
    is anchored at the finite bottleneck radius B. Every matching has an
    edge of at least B, and the bottleneck matching of n rows costs at most
    n B^q, so an optimal matching uses no edge longer than n^(1/q) B. The
    solver runs once on those edges alone, divided by B before the power,
    so every matching costs at least 1 and no usable edge more than n. The
    distance is then the q-norm of the matched radii and the gaps, computed
    as their largest times the norm of them divided by it, never below the
    bottleneck distance. With B = 0 the finite part is 0. B is cached with
    the matrix, so a distance asked alone, at q = 1 too, pays its search.
    """
    if not (math.isfinite(q) and q >= 1):
        raise ValueError(f"q must be finite and >= 1, got {q}")
    matching = _matching(a, b, dim)
    if matching is None:
        return math.inf
    radii, radius, gaps = matching
    if q == 1:
        rows, cols = _solver()(radii)
        return float(radii[rows, cols].sum()) + sum(gaps)
    matched: list[float] = []
    if radius > 0:
        usable = np.where(radii <= len(radii) ** (1.0 / q) * radius, radii, np.inf)
        rows, cols = _solver()(_powered(usable, radius, q))
        matched = radii[rows, cols].tolist()
    terms = [*matched, *gaps]
    top = max(terms, default=0.0)
    return top * sum((t / top) ** q for t in terms) ** (1.0 / q) if top > 0 else 0.0


def landscape_to_dict(ls: PersistenceLandscape) -> dict[str, Any]:
    """JSON form: {"dim": k, "grid": [...], "levels": [[...]]}."""
    return {"dim": ls.dim, "grid": ls.grid.tolist(), "levels": ls.levels.tolist()}
