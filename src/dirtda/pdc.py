"""Partial directed coherence from a fitted VAR.

The spectral transform Abar(omega) = I - sum_k Phi_k exp(-i 2 pi k omega)
is evaluated on normalized frequencies omega in [0, 0.5] cycles/sample.
PDC from channel q to channel p is |Abar[p,q]| divided by the Euclidean
norm of column q, so the squares in each column sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .ingest import channel_labels
from .jsonio import float_array_field, is_number
from .var import VarModel

__all__ = [
    "FrequencyBand",
    "DirectedNetwork",
    "pdc_band",
    "network_to_dict",
    "network_from_dict",
    "DEFAULT_BANDS",
]


@dataclass(frozen=True)
class FrequencyBand:
    """A frequency interval in Hz named by a non-empty string, 0 <= low_hz <
    high_hz < inf, both numbers (not bools or strings), stored as floats."""

    name: str
    low_hz: float
    high_hz: float

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"band name must be a non-empty string, got {self.name!r}")
        numbers = is_number(self.low_hz) and is_number(self.high_hz)
        if not (numbers and 0 <= self.low_hz < self.high_hz < math.inf):
            raise ValueError(
                f"band {self.name!r} needs 0 <= low < high < inf, "
                f"got [{self.low_hz}, {self.high_hz}]"
            )
        object.__setattr__(self, "low_hz", float(self.low_hz))
        object.__setattr__(self, "high_hz", float(self.high_hz))


# conventional EEG band boundaries in Hz
DEFAULT_BANDS: tuple[FrequencyBand, ...] = (
    FrequencyBand("delta", 0.0, 4.0),
    FrequencyBand("alpha", 8.0, 12.0),
    FrequencyBand("beta", 12.0, 30.0),
    FrequencyBand("gamma", 30.0, 50.0),
)


@dataclass(frozen=True)
class DirectedNetwork:
    """Band-averaged PDC weights.

    weights[p][q] is the flow intensity from channel q to channel p,
    each entry in [0, 1]; labels as channel_labels gives them.
    """

    weights: np.ndarray
    band: FrequencyBand
    labels: tuple[str, ...] | None

    def __post_init__(self) -> None:
        w = float_array_field(self.weights, "network w")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if w.min() < 0.0 or w.max() > 1.0 + 1e-12:
            raise ValueError("weights must lie in [0, 1]")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", channel_labels(self.labels, w.shape[0]))

    @property
    def n_channels(self) -> int:
        return self.weights.shape[0]


def _transforms(model: VarModel, omegas: list[float]) -> np.ndarray:
    """Abar at every omega of the grid, shape (len(omegas), d, d).

    pdc_band's band and Nyquist checks keep every omega in [0, 0.5]. Each
    phase exp(-i 2 pi k omega) is a scalar per frequency, so every matrix
    equals the one a single-frequency evaluation gives, bit for bit.
    """
    d = model.n_channels
    mats = np.empty((len(omegas), d, d), dtype=complex)
    mats[:] = np.eye(d)
    for k in range(1, model.order_k + 1):
        phases = np.array([np.exp(-2j * np.pi * k * omega) for omega in omegas])
        mats -= model.coeffs[k - 1] * phases[:, None, None]
    return mats


def _pdc(model: VarModel, omegas: list[float]) -> np.ndarray:
    """PDC matrices at every omega of the grid, shape (len(omegas), d, d)."""
    mags = np.abs(_transforms(model, omegas))
    norms = np.sqrt((mags**2).sum(axis=1, keepdims=True))
    degenerate = np.argwhere(norms[:, 0] == 0.0)
    if degenerate.size:
        at, column = degenerate[0]
        raise ValueError(
            f"degenerate spectral transform at omega={omegas[at]}: column "
            f"{column + 1} is zero"
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
    if not (math.isfinite(fs_hz) and fs_hz > 0):
        raise ValueError(f"fs_hz must be finite and > 0, got {fs_hz}")
    if n_grid < 1:
        raise ValueError(f"n_grid must be >= 1, got {n_grid}")
    if band.high_hz > fs_hz / 2:
        raise ValueError(
            f"band {band.name!r} ends at {band.high_hz} Hz, beyond Nyquist {fs_hz / 2} Hz"
        )
    lo, hi = band.low_hz / fs_hz, band.high_hz / fs_hz
    if n_grid == 1:
        omegas = [0.5 * (lo + hi)]
    else:
        omegas = np.linspace(lo, hi, n_grid).tolist()
    # summed in grid order, one matrix at a time: a pairwise .mean(axis=0)
    # gives different bits
    weights = sum(_pdc(model, omegas)) / len(omegas)
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


def network_from_dict(doc: Any) -> DirectedNetwork:
    """Inverse of network_to_dict. The document and its band must be
    objects and labels a list, or ValueError names the field; FrequencyBand
    checks the name and edges, DirectedNetwork the weights and labels."""
    if not isinstance(doc, dict):
        raise ValueError(f"network must be an object, got {type(doc).__name__}")
    band, labels = doc["band"], doc["labels"]
    if not isinstance(band, dict):
        raise ValueError(f"network band must be an object, got {type(band).__name__}")
    if not isinstance(labels, list):
        raise ValueError(f"network labels must be a list, got {type(labels).__name__}")
    band = FrequencyBand(band["name"], band["low_hz"], band["high_hz"])
    return DirectedNetwork(doc["w"], band, labels)
