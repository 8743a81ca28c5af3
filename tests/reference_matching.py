"""The bottleneck feasibility check that dirtda used before its dense
assignment check, kept unchanged as a test oracle.

The edges no longer than the radius form a sparse bipartite graph, and
scipy's Hopcroft-Karp matcher decides whether it has a perfect matching.
``dirtda.summaries._matchable_within`` must give the same answer.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


def matchable_within(radii: np.ndarray, radius: float) -> bool:
    """Perfect-matching feasibility of the edges no longer than radius."""
    graph = csr_matrix(radii <= radius)
    return bool((maximum_bipartite_matching(graph, perm_type="column") >= 0).all())
