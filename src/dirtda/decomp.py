"""Symmetric / anti-symmetric splitting of a directed network.

W_s = (W + W^T) / 2 and W_a = (W - W^T) / 2 are the Frobenius-orthogonal
projections of W onto symmetric and anti-symmetric matrices; W_s is the
nearest symmetric matrix to W in Frobenius norm. The entrywise magnitude
of W_a, |W_a|[p][q] = |W[p][q] - W[q][p]| / 2, measures departure from
symmetry and is used as a distance between channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .ingest import channel_labels
from .jsonio import float_array_field
from .pdc import DirectedNetwork, network_from_dict, network_to_dict

__all__ = [
    "NetworkDecomposition",
    "DistanceMatrix",
    "decompose",
    "asym_distance",
    "decomposition_to_dict",
    "decomposition_from_dict",
]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric, non-negative, zero-diagonal matrix with channel labels."""

    dist: np.ndarray
    labels: tuple[str, ...] | None

    def __post_init__(self) -> None:
        d = float_array_field(self.dist, "distance matrix")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"dist must be square, got shape {d.shape}")
        if d.min() < 0:
            raise ValueError("distances must be non-negative")
        if np.any(d != d.T):
            raise ValueError("dist must be exactly symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("diagonal must be exactly zero")
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "labels", channel_labels(self.labels, d.shape[0]))

    @property
    def n_nodes(self) -> int:
        return self.dist.shape[0]


@dataclass(frozen=True)
class NetworkDecomposition:
    source: DirectedNetwork
    w_s: np.ndarray
    w_a: np.ndarray


def decompose(net: DirectedNetwork) -> NetworkDecomposition:
    """Split W into its symmetric and anti-symmetric parts.

    Each mirrored entry pair is assigned from a single computation, so
    w_s is exactly symmetric and w_a exactly anti-symmetric, with an
    exactly zero w_a diagonal.
    """
    w = net.weights
    # (x + y) / 2 and (x - y) / 2 are symmetric/antisymmetric in exact
    # floating point: addition commutes and y - x == -(x - y)
    w_s = (w + w.T) / 2.0
    w_a = (w - w.T) / 2.0
    w_s.setflags(write=False)
    w_a.setflags(write=False)
    return NetworkDecomposition(net, w_s, w_a)


def asym_distance(dec: NetworkDecomposition) -> DistanceMatrix:
    """Departure-from-symmetry distance |W_a| with a forced-zero diagonal.

    Entries are |W[p][q] - W[q][p]| / 2, kept on their raw scale.
    """
    # |w_a| is exactly symmetric already: w_a[q][p] == -w_a[p][q] bit for bit
    d = np.abs(dec.w_a)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d, dec.source.labels)


def decomposition_to_dict(dec: NetworkDecomposition) -> dict[str, Any]:
    """JSON form carrying w_s, w_a, the distance matrix, and the source network."""
    return {
        "source": network_to_dict(dec.source),
        "w_s": dec.w_s.tolist(),
        "w_a": dec.w_a.tolist(),
        "dist": asym_distance(dec).dist.tolist(),
    }


def decomposition_from_dict(doc: dict[str, Any]) -> NetworkDecomposition:
    dec = decompose(network_from_dict(doc["source"]))
    for key, have in (("w_s", dec.w_s), ("w_a", dec.w_a)):
        stored = float_array_field(doc[key], f"decomposition {key}")
        if stored.shape != have.shape or not np.allclose(stored, have, atol=1e-12):
            raise ValueError(f"stored {key} disagrees with the source network")
    return dec
