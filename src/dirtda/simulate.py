"""Synthetic five-node benchmark systems with known directed structure.

Each system is a lag-1 linear mixing network driven by independent
per-node AR(2) innovation processes: Z_j(t) follows an AR(2), and
Y_j(t) = sum over incoming edges of gain * Y_src(t-1) + Z_j(t). Such a
system composes exactly into a VAR(3): with G the gain matrix and
D1, D2 the diagonal AR coefficient matrices,

    Phi_1 = G + D1,  Phi_2 = D2 - D1 G,  Phi_3 = -D2 G,

so its spectrum, PDC, and stability are available in closed form, and
the companion eigenvalues are those of G together with the AR roots.

The first benchmark contains two reciprocal pairs (2<->4 and 3<->4), so
its strongly asymmetric part is an open chain; the second directs every
link one way only, and its asymmetric part carries a five-cycle plus a
three-cycle. Per-node AR(2) resonances are deliberately distinct: if all
nodes shared one AR(2) polynomial, that polynomial would factor out of
every column of the spectral transform and PDC would be constant in
frequency, erasing the band structure the benchmarks are meant to probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ingest import MultivariateSeries
from .pdc import FrequencyBand
from .var import VarModel, companion_matrix, is_stable

__all__ = [
    "Edge",
    "LaggedSystem",
    "system_one",
    "system_two",
    "compose_var",
    "realize",
    "analysis_band",
    "DEFAULT_GAIN",
]

DEFAULT_GAIN = 0.4

# Per-node AR(2) resonances for the two benchmarks, as (root angle in
# cycles/sample, root modulus); a1 = 2 rho cos(2 pi f), a2 = -rho^2.
# Node 5, the node that closes the long feedback loop in both systems,
# resonates at 0.23 cycles/sample, which centers the default analysis band.
_BENCH_ROOT_FREQS = (0.46, 0.25, 0.13, 0.37, 0.23)
_BENCH_ROOT_MODULI = (0.95, 0.40, 0.60, 0.75, 0.95)

_ANALYSIS_BAND = FrequencyBand("peak", 0.18, 0.28)


@dataclass(frozen=True)
class Edge:
    """Directed lag-1 influence from node source to node target (0-based)."""

    source: int
    target: int
    gain: float


@dataclass(frozen=True)
class LaggedSystem:
    """A lag-1 mixing network with per-node AR(2) innovations.

    ar_coeffs[j] is the pair (a1, a2) of node j's innovation process and
    noise_var[j] its innovation variance. The composed linear system must
    be stable; construction fails otherwise.
    """

    n_nodes: int
    edges: tuple[Edge, ...]
    ar_coeffs: tuple[tuple[float, float], ...]
    noise_var: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        for e in self.edges:
            if not (0 <= e.source < self.n_nodes and 0 <= e.target < self.n_nodes):
                raise ValueError(f"edge {e} references a node outside 0..{self.n_nodes - 1}")
            if e.source == e.target:
                raise ValueError(f"self-loop on node {e.source}")
        if len(self.ar_coeffs) != self.n_nodes:
            raise ValueError("need one AR(2) coefficient pair per node")
        noise = self.noise_var or tuple(1.0 for _ in range(self.n_nodes))
        if len(noise) != self.n_nodes:
            raise ValueError("need one noise variance per node")
        if any(v <= 0 for v in noise):
            raise ValueError("noise variances must be > 0")
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "ar_coeffs", tuple(tuple(c) for c in self.ar_coeffs))
        object.__setattr__(self, "noise_var", tuple(float(v) for v in noise))
        model = compose_var(self)
        if not is_stable(model):
            radius = np.max(np.abs(np.linalg.eigvals(companion_matrix(model))))
            raise ValueError(f"composed system is unstable (spectral radius {radius:.6f})")

    def gain_matrix(self) -> np.ndarray:
        g = np.zeros((self.n_nodes, self.n_nodes))
        for e in self.edges:
            g[e.target, e.source] = e.gain
        return g


def _bench_ar_coeffs() -> tuple[tuple[float, float], ...]:
    out = []
    for f, rho in zip(_BENCH_ROOT_FREQS, _BENCH_ROOT_MODULI):
        out.append((2.0 * rho * math.cos(2.0 * math.pi * f), -(rho**2)))
    return tuple(out)


def _edges(printed: list[tuple[int, int]], gain: float) -> tuple[Edge, ...]:
    # printed edges use 1-based node ids
    return tuple(Edge(s - 1, t - 1, gain) for s, t in printed)


def system_one(gain: float = DEFAULT_GAIN) -> LaggedSystem:
    """Five-node benchmark with reciprocal links 2<->4 and 3<->4.

    Unit printed gains are scaled by a single global factor. The strongly
    asymmetric links form the open chain 4 -> 5 -> 1 -> 2 -> 3.
    """
    printed = [(5, 1), (1, 2), (4, 2), (2, 3), (4, 3), (2, 4), (3, 4), (4, 5)]
    return LaggedSystem(5, _edges(printed, gain), _bench_ar_coeffs())


def system_two(gain: float = DEFAULT_GAIN) -> LaggedSystem:
    """Five-node benchmark whose links are all one-directional.

    Its asymmetric part carries the cycle 1 -> 2 -> 3 -> 4 -> 5 -> 1 and
    the shorter cycle 2 -> 3 -> 4 -> 2.
    """
    printed = [(5, 1), (1, 2), (4, 2), (2, 3), (3, 4), (4, 5)]
    return LaggedSystem(5, _edges(printed, gain), _bench_ar_coeffs())


def compose_var(system: LaggedSystem) -> VarModel:
    """Exact VAR(3) form of the composed mixing + AR(2) system."""
    g = system.gain_matrix()
    a1 = np.diag([c[0] for c in system.ar_coeffs])
    a2 = np.diag([c[1] for c in system.ar_coeffs])
    coeffs = np.stack([g + a1, a2 - a1 @ g, -a2 @ g])
    return VarModel(coeffs, np.diag(system.noise_var))


def realize(system: LaggedSystem, t: int, seed: int, burn_in: int = 500) -> MultivariateSeries:
    """Simulate t samples of the system at a nominal 1 Hz sampling rate.

    Each node's Z process is simulated as an independent AR(2) from a zero
    initial state, then the lag-1 mixing is applied; the first burn_in
    samples of both stages are discarded together. Deterministic in
    (system, t, seed, burn_in).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    n = system.n_nodes
    total = t + burn_in
    rng = np.random.default_rng(seed)
    scale = np.sqrt(np.array(system.noise_var))
    eps = rng.standard_normal((total, n)) * scale

    a1 = np.array([c[0] for c in system.ar_coeffs])
    a2 = np.array([c[1] for c in system.ar_coeffs])
    g = system.gain_matrix()
    z = np.zeros((total, n))
    y = np.zeros((total, n))
    for step in range(total):
        zm1 = z[step - 1] if step >= 1 else 0.0
        zm2 = z[step - 2] if step >= 2 else 0.0
        z[step] = a1 * zm1 + a2 * zm2 + eps[step]
        prev = y[step - 1] if step >= 1 else np.zeros(n)
        y[step] = g @ prev + z[step]
    labels = tuple(f"node{i + 1}" for i in range(n))
    return MultivariateSeries(y[burn_in:], 1.0, labels)


def analysis_band() -> FrequencyBand:
    """Default band for comparing the benchmarks, centered on the 0.23
    cycles/sample resonance of the shared driver node (fs = 1 Hz)."""
    return _ANALYSIS_BAND
