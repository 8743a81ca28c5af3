"""Partial directed coherence from a fitted VAR.

The spectral transform Abar(omega) = I - sum_k Phi_k exp(-i 2 pi k omega)
is evaluated on normalized frequencies omega in [0, 0.5] cycles/sample.
PDC from channel q to channel p is |Abar[p,q]| divided by the Euclidean
norm of column q, so the squares in each column sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .ingest import default_labels
from .var import VarModel

__all__ = [
    "FrequencyBand",
    "SpectralTransform",
    "DirectedNetwork",
    "spectral_transform",
    "pdc_at",
    "pdc_band",
    "network_to_dict",
    "network_from_dict",
    "DEFAULT_BANDS",
]


@dataclass(frozen=True)
class FrequencyBand:
    """A named frequency interval in Hz, 0 <= low_hz < high_hz."""

    name: str
    low_hz: float
    high_hz: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("band name must be non-empty")
        if not (0 <= self.low_hz < self.high_hz):
            raise ValueError(
                f"band {self.name!r} needs 0 <= low < high, got [{self.low_hz}, {self.high_hz}]"
            )


# conventional EEG band boundaries in Hz
DEFAULT_BANDS: tuple[FrequencyBand, ...] = (
    FrequencyBand("delta", 0.0, 4.0),
    FrequencyBand("alpha", 8.0, 12.0),
    FrequencyBand("beta", 12.0, 30.0),
    FrequencyBand("gamma", 30.0, 50.0),
)


@dataclass(frozen=True)
class SpectralTransform:
    """Abar(omega) for a single normalized frequency."""

    omega: float
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class DirectedNetwork:
    """Band-averaged PDC weights.

    weights[p][q] is the flow intensity from channel q to channel p,
    each entry in [0, 1].
    """

    weights: np.ndarray
    band: FrequencyBand
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if w.min() < 0.0 or w.max() > 1.0 + 1e-12:
            raise ValueError("weights must lie in [0, 1]")
        labels = tuple(self.labels)
        if len(labels) != w.shape[0]:
            raise ValueError(f"{len(labels)} labels for {w.shape[0]} channels")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", labels)

    @property
    def n_channels(self) -> int:
        return self.weights.shape[0]


def spectral_transform(model: VarModel, omega: float) -> SpectralTransform:
    """Abar(omega) = I - sum_k Phi_k exp(-i 2 pi k omega).

    omega is in cycles per sample and must lie in [0, 0.5].
    """
    if not 0.0 <= omega <= 0.5:
        raise ValueError(f"omega must be in [0, 0.5] cycles/sample, got {omega}")
    d = model.n_channels
    mat = np.eye(d, dtype=complex)
    for k in range(1, model.order_k + 1):
        mat -= model.coeffs[k - 1] * np.exp(-2j * np.pi * k * omega)
    return SpectralTransform(float(omega), mat)


def pdc_at(model: VarModel, omega: float) -> np.ndarray:
    """PDC matrix at one normalized frequency.

    Magnitude convention (not squared): entry (p, q) is
    |Abar[p,q]| / sqrt(Abar[:,q]^H Abar[:,q]). Columns therefore satisfy
    sum_p PDC[p,q]^2 = 1.
    """
    mat = spectral_transform(model, omega).matrix
    mags = np.abs(mat)
    norms = np.sqrt((mags**2).sum(axis=0))
    degenerate = np.flatnonzero(norms == 0.0)
    if degenerate.size:
        raise ValueError(
            f"degenerate spectral transform at omega={omega}: column "
            f"{degenerate[0] + 1} is zero"
        )
    return mags / norms


def pdc_band(
    model: VarModel,
    band: FrequencyBand,
    fs_hz: float,
    n_grid: int = 32,
    labels: tuple[str, ...] | None = None,
) -> DirectedNetwork:
    """Arithmetic mean of PDC over n_grid frequencies spanning the band.

    Band edges are converted to normalized frequencies through fs_hz and
    included in the grid; n_grid = 1 evaluates the band midpoint. The band
    must not extend past the Nyquist frequency fs_hz / 2.
    """
    if fs_hz <= 0:
        raise ValueError(f"fs_hz must be > 0, got {fs_hz}")
    if n_grid < 1:
        raise ValueError(f"n_grid must be >= 1, got {n_grid}")
    if band.high_hz > fs_hz / 2 + 1e-12:
        raise ValueError(
            f"band {band.name!r} ends at {band.high_hz} Hz, beyond Nyquist {fs_hz / 2} Hz"
        )
    lo, hi = band.low_hz / fs_hz, band.high_hz / fs_hz
    if n_grid == 1:
        omegas = np.array([0.5 * (lo + hi)])
    else:
        omegas = np.linspace(lo, hi, n_grid)
    acc = np.zeros((model.n_channels, model.n_channels))
    for omega in omegas:
        acc += pdc_at(model, float(omega))
    weights = acc / len(omegas)
    if labels is None:
        labels = default_labels(model.n_channels)
    # averaging magnitudes in [0, 1] can graze 1.0 from above only by rounding
    return DirectedNetwork(np.clip(weights, 0.0, 1.0), band, labels)


def network_to_dict(net: DirectedNetwork) -> dict[str, Any]:
    """JSON form: {"band": {...}, "labels": [...], "w": [[...]]}, row-major."""
    return {
        "band": {
            "name": net.band.name,
            "low_hz": net.band.low_hz,
            "high_hz": net.band.high_hz,
        },
        "labels": list(net.labels),
        "w": net.weights.tolist(),
    }


def network_from_dict(doc: dict[str, Any]) -> DirectedNetwork:
    band = FrequencyBand(
        doc["band"]["name"], float(doc["band"]["low_hz"]), float(doc["band"]["high_hz"])
    )
    return DirectedNetwork(np.array(doc["w"], dtype=float), band, tuple(doc["labels"]))
