"""Benchmark workloads: seeded input generation and pipeline configs.

Every input is a lag-1 mixing network driven by per-node AR(2)
innovations (the model class of ``dirtda.simulate``), generated here with
the benchmark's own numpy generator and written to CSV with ``repr``
floats. The program under test only ever reads the CSV, so changes to
``dirtda.simulate`` cannot change the inputs.

Generation imports numpy only, never dirtda.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 0
# seed of the random d-node network; --seed never changes the network
SYSTEM_SEED = 20230612

# The paper's second five-node system: every link one-directional, with the
# cycles 1 -> 2 -> 3 -> 4 -> 5 -> 1 and 2 -> 3 -> 4 -> 2 (1-based node ids).
PAPER_EDGES = ((5, 1), (1, 2), (4, 2), (2, 3), (3, 4), (4, 5))
PAPER_GAIN = 0.4
PAPER_ROOT_FREQS = (0.46, 0.25, 0.13, 0.37, 0.23)
PAPER_ROOT_MODULI = (0.95, 0.40, 0.60, 0.75, 0.95)

_BURN_IN = 500


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``source`` names the generated input: workloads with the same source
    and seed share one CSV. ``config`` builds the plain-dict pipeline
    config, without ``out_dir``, for a given input path; it never sets
    ``threads`` or ``seed``, as a user would leave them out.
    """

    name: str
    source: str
    d: int
    t: int
    config: Callable[[str], dict[str, Any]]


def _ar_coeffs(freqs: np.ndarray, moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return 2.0 * moduli * np.cos(2.0 * np.pi * freqs), -(moduli**2)


def _random_system(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse one-directional gain matrix plus distinct AR(2) resonances.

    Each ordered pair (source, target) carries an edge with probability
    3/d, never in both directions, so the asymmetric part is rich in
    directed cycles. The gain matrix is scaled to spectral radius 0.6,
    which keeps the composed VAR(3) stable: its companion eigenvalues are
    those of the gain matrix together with the AR roots (moduli <= 0.95).
    """
    gain = np.zeros((d, d))
    p = min(1.0, 3.0 / d)
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < p:
                w = rng.uniform(0.2, 0.5)
                if rng.random() < 0.5:
                    gain[j, i] = w
                else:
                    gain[i, j] = w
    radius = float(np.max(np.abs(np.linalg.eigvals(gain)))) if gain.any() else 0.0
    if radius > 0:
        gain *= 0.6 / radius
    freqs = rng.uniform(0.01, 0.45, size=d)
    moduli = rng.uniform(0.4, 0.95, size=d)
    a1, a2 = _ar_coeffs(freqs, moduli)
    return gain, a1, a2


def _paper_system() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gain = np.zeros((5, 5))
    for source, target in PAPER_EDGES:
        gain[target - 1, source - 1] = PAPER_GAIN
    a1, a2 = _ar_coeffs(np.array(PAPER_ROOT_FREQS), np.array(PAPER_ROOT_MODULI))
    return gain, a1, a2


def _simulate(
    gain: np.ndarray, a1: np.ndarray, a2: np.ndarray, t: int, rng: np.random.Generator
) -> np.ndarray:
    """Z_j follows an AR(2); Y(t) = gain @ Y(t-1) + Z(t). Burn-in dropped."""
    d = gain.shape[0]
    total = t + _BURN_IN
    eps = rng.standard_normal((total, d))
    z = np.zeros((total, d))
    y = np.zeros((total, d))
    for step in range(2, total):
        z[step] = a1 * z[step - 1] + a2 * z[step - 2] + eps[step]
        y[step] = gain @ y[step - 1] + z[step]
    return y[_BURN_IN:]


def generate(source: str, d: int, t: int, seed: int) -> np.ndarray:
    """Samples (t, d) for a named source, deterministic in its arguments.

    The network is fixed per source and size; the seed draws only the
    innovations, so runs with different seeds analyse different
    recordings of one system and do comparable amounts of work.
    """
    if source == "paper":
        gain, a1, a2 = _paper_system()
    else:
        gain, a1, a2 = _random_system(d, np.random.default_rng([SYSTEM_SEED, d]))
    return _simulate(gain, a1, a2, t, np.random.default_rng([seed % 2**63, d, t]))


def write_csv(samples: np.ndarray, path: str) -> None:
    """Header of channel labels, then one row per sample with repr floats.

    Written to a temporary name and renamed, so an interrupted write never
    leaves a truncated file under the cached name.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"n{i + 1}" for i in range(samples.shape[1])])
        for row in samples.tolist():
            writer.writerow([repr(x) for x in row])
    os.replace(tmp, path)


def input_csv(workload: Workload, seed: int, directory: str) -> str:
    """Path of the workload's CSV for this seed in directory, generated once."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{workload.source}_d{workload.d}_t{workload.t}_s{seed}.csv"
    )
    if not os.path.exists(path):
        write_csv(generate(workload.source, workload.d, workload.t, seed), path)
    return path


def _even_windows(n: int, duration_s: float) -> dict[str, list[float]]:
    step = duration_s / n
    return {f"w{i:02d}": [i * step, (i + 1) * step] for i in range(n)}


def _sliding_windows(n: int, length_s: float, stride_s: float) -> dict[str, list[float]]:
    return {f"w{i:02d}": [i * stride_s, i * stride_s + length_s] for i in range(n)}


def _grid(d: int, t: int, fs: float) -> Callable[[str], dict[str, Any]]:
    # Two windows, not five: a 5 x 4 grid at d = 32 takes ~20 s per call,
    # which leaves one call per run in the benchmark's time budget, and
    # single-call run_s spread more across seeds than the largest bound.
    def config(path: str) -> dict[str, Any]:
        # bands omitted: the four default EEG bands
        return {
            "input": path,
            "fs_hz": fs,
            "windows": _even_windows(2, t / fs),
            "order": 3,
            "max_dim": 2,
        }

    return config


def _compare(d: int, t: int, fs: float) -> Callable[[str], dict[str, Any]]:
    duration = t / fs
    length, n = 0.2 * duration, 17
    stride = (duration - length) / (n - 1)

    def config(path: str) -> dict[str, Any]:
        return {
            "input": path,
            "fs_hz": fs,
            "windows": _sliding_windows(n, length, stride),
            "bands": {"beta": [12.0 * fs / 100.0, 30.0 * fs / 100.0]},
            "order": 3,
            "max_dim": 1,
        }

    return config


def _paper(d: int, t: int, fs: float) -> Callable[[str], dict[str, Any]]:
    def config(path: str) -> dict[str, Any]:
        return {
            "input": path,
            "fs_hz": fs,
            "windows": _even_windows(10, t / fs),
            "bands": {
                "low": [0.02, 0.12],
                "peak": [0.18, 0.28],
                "high": [0.32, 0.45],
            },
            "select_k_max": 12,
            "criterion": "bic",
            "n_grid": 128,
            "max_dim": 2,
        }

    return config


def _make(name: str, source: str, d: int, t: int, fs: float, factory) -> Workload:
    return Workload(name, source, d, t, factory(d, t, fs))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _make("grid-d32", "mix", 32, 20_000, 100.0, _grid),
        _make("compare-d32", "mix", 32, 20_000, 100.0, _compare),
        _make("paper-d5-long", "paper", 5, 200_000, 1.0, _paper),
    )
}

# Smoke sizes: every workload shrunk to d = 5 and a short series, same
# structure (windows, bands, orders, max_dim), for the benchmark's own test.
SMOKE_WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _make("grid-d32", "mix", 5, 2_000, 100.0, _grid),
        _make("compare-d32", "mix", 5, 2_000, 100.0, _compare),
        _make("paper-d5-long", "paper", 5, 4_000, 1.0, _paper),
    )
}
