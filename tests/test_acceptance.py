"""Acceptance gate: every shipping criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
test enforces its stated tolerance and runtime budget. Criteria 3 through 6
feed every diagram they produce into a shared pool that criterion 7 then
audits for landscape and metric properties.
"""

import functools
import hashlib
import math
import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from naive_homology import naive_persistence

from dirtda import (
    DirectedNetwork,
    DistanceMatrix,
    FrequencyBand,
    OrderCriterion,
    PersistenceDiagram,
    PipelineConfig,
    VarModel,
    analysis_band,
    asym_distance,
    bottleneck,
    decompose,
    fit_var,
    is_stable,
    landscape,
    pdc_at,
    pdc_band,
    persistence,
    realize,
    rips_filtration,
    run_pipeline,
    save_series,
    select_order,
    shared_t_max,
    simulate_var,
    standardize,
    system_one,
    system_two,
    total_persistence,
    wasserstein,
)

# diagrams accumulated by criteria 3-6, audited by criterion 7
DIAGRAMS: list[PersistenceDiagram] = []


def criterion(n, name, limit_s):
    """Wrap a test body with timing, a budget check, and a status line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < limit_s, (
                    f"runtime {elapsed:.1f}s exceeds the {limit_s}s budget"
                )
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                status = "PASS" if ok else "FAIL"
                print(f"criterion {n} ({name}): {status} [{elapsed:.2f}s]")

        return wrapper

    return deco


def random_stable_var(rng, d, k):
    coeffs = rng.uniform(-0.4, 0.4, (k, d, d)) / (k * math.sqrt(d))
    model = VarModel(coeffs, np.eye(d))
    while not is_stable(model):
        coeffs = coeffs * 0.7
        model = VarModel(coeffs, np.eye(d))
    return model


def true_var2():
    rng = np.random.default_rng(1234)
    phi1 = np.diag([0.5, 0.4, 0.3, 0.45, 0.35]) + rng.uniform(-0.08, 0.08, (5, 5))
    phi2 = np.diag([-0.25, -0.2, -0.15, -0.22, -0.18]) + rng.uniform(-0.05, 0.05, (5, 5))
    return VarModel(np.stack([phi1, phi2]), np.eye(5))


def random_distance(rng, n, tie_heavy):
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if tie_heavy:
                v = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            else:
                v = float(rng.uniform(0.1, 1.0))
            m[i, j] = m[j, i] = v
    return DistanceMatrix(m, tuple(f"n{i}" for i in range(n)))


@criterion(1, "pdc normalization", 10.0)
def test_criterion_1_pdc_normalization():
    rng = np.random.default_rng(101)
    omegas = np.linspace(0.0, 0.5, 16)
    for i in range(50):
        d = (2, 5, 19)[i % 3]
        k = (1, 5)[i % 2]
        model = random_stable_var(rng, d, k)
        for omega in omegas:
            p = pdc_at(model, float(omega))
            col_sq = np.sum(p * p, axis=0)
            assert np.max(np.abs(col_sq - 1.0)) <= 1e-10


@criterion(2, "decomposition exactness and optimality", 10.0)
def test_criterion_2_decomposition():
    rng = np.random.default_rng(202)
    band = FrequencyBand("any", 0.1, 0.2)
    labels = tuple(f"c{i}" for i in range(19))
    for _ in range(100):
        w = rng.random((19, 19))
        dec = decompose(DirectedNetwork(w, band, labels))
        assert np.max(np.abs((dec.w_s + dec.w_a) - w)) <= 1e-12
        assert abs(float(np.sum(dec.w_s * dec.w_a))) <= 1e-10
        best = float(np.linalg.norm(w - dec.w_s, ord="fro"))
        for _ in range(100):
            b = rng.standard_normal((19, 19))
            s = (b + b.T) / 2.0
            assert best <= float(np.linalg.norm(w - s, ord="fro")) + 1e-12


@criterion(3, "persistence matches the rank oracle", 60.0)
def test_criterion_3_oracle():
    rng = np.random.default_rng(303)
    for i in range(100):
        n = int(rng.integers(2, 7))
        dm = random_distance(rng, n, tie_heavy=(i % 3 == 2))
        diagram = persistence(rips_filtration(dm, max_dim=2))
        assert list(diagram.pairs) == naive_persistence(dm.dist, 2)
        DIAGRAMS.append(diagram)


@criterion(4, "hand-computed diagrams", 10.0)
def test_criterion_4_hand_computed():
    tri = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    dia = persistence(rips_filtration(DistanceMatrix(tri, ("a", "b", "c")), 2))
    assert dia.pairs == ((0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, math.inf))
    DIAGRAMS.append(dia)

    sq = np.array(
        [
            [0.0, 1.0, 2.0, 1.0],
            [1.0, 0.0, 1.0, 2.0],
            [2.0, 1.0, 0.0, 1.0],
            [1.0, 2.0, 1.0, 0.0],
        ]
    )
    dia = persistence(rips_filtration(DistanceMatrix(sq, ("a", "b", "c", "d")), 2))
    assert dia.pairs == (
        (0, 0.0, 1.0),
        (0, 0.0, 1.0),
        (0, 0.0, 1.0),
        (0, 0.0, math.inf),
        (1, 1.0, 2.0),
    )
    DIAGRAMS.append(dia)


@criterion(5, "var round-trip and order selection", 5.0)
def test_criterion_5_var_round_trip():
    model = true_var2()
    series = simulate_var(model, 2000, seed=42)
    refit = fit_var(series, 2)
    assert np.max(np.abs(refit.coeffs - model.coeffs)) < 0.1
    assert select_order(series, 6, OrderCriterion.BIC) == 2


@criterion(6, "two-network discrimination", 120.0)
def test_criterion_6_discrimination():
    band = analysis_band()

    def h1_mass(system, seed):
        series = standardize(realize(system, 10000, seed=seed))
        model = fit_var(series, 3)
        net = pdc_band(model, band, 1.0, n_grid=32, labels=series.channel_labels)
        diagram = persistence(rips_filtration(asym_distance(decompose(net)), 2))
        DIAGRAMS.append(diagram)
        return total_persistence(diagram, 1)

    for seed in range(5):
        acyclic = h1_mass(system_one(), seed)
        cyclic = h1_mass(system_two(), seed)
        assert cyclic > acyclic, f"seed {seed}: {cyclic} <= {acyclic}"


@criterion(7, "landscape and metric properties", 60.0)
def test_criterion_7_summaries():
    pool = list(DIAGRAMS)
    if not pool:  # standalone invocation: rebuild a small criterion-3 pool
        rng = np.random.default_rng(303)
        for i in range(20):
            n = int(rng.integers(2, 7))
            dm = random_distance(rng, n, tie_heavy=(i % 3 == 2))
            pool.append(persistence(rips_filtration(dm, max_dim=2)))

    for diagram in pool:
        t_max = shared_t_max(diagram)
        for dim in (0, 1, 2):
            ls = landscape(diagram, dim, k_max=4, n_grid=64, t_max=t_max)
            h = ls.grid[1] - ls.grid[0]
            assert np.all(ls.levels >= 0.0)
            for k in range(3):
                assert np.all(ls.levels[k] >= ls.levels[k + 1])
            assert np.max(np.abs(np.diff(ls.levels, axis=1))) <= h + 1e-12

    rng = np.random.default_rng(707)

    def small_diagram():
        pairs = []
        for _ in range(int(rng.integers(1, 7))):
            b = float(rng.uniform(0.0, 1.0))
            pairs.append((1, b, b + float(rng.uniform(0.05, 1.0))))
        return PersistenceDiagram(tuple(sorted(pairs)))

    for _ in range(25):
        a, b, c = small_diagram(), small_diagram(), small_diagram()
        for dist in (bottleneck, lambda x, y, dim: wasserstein(x, y, dim, q=1.0)):
            ab, ba = dist(a, b, 1), dist(b, a, 1)
            ac, bc = dist(a, c, 1), dist(b, c, 1)
            assert abs(ab - ba) <= 1e-9
            assert ac <= ab + bc + 1e-9
        assert bottleneck(a, b, 1) <= wasserstein(a, b, 1, q=1.0) + 1e-12


@criterion(8, "pipeline determinism", 60.0)
def test_criterion_8_determinism(tmp_path):
    csv = str(tmp_path / "input.csv")
    save_series(realize(system_one(), 1200, seed=5), csv)
    out = str(tmp_path / "out")
    cfg = PipelineConfig(
        input_path=csv,
        sampling_rate_hz=1.0,
        out_dir=out,
        windows=(("early", 0.0, 600.0), ("late", 600.0, 1200.0)),
        bands=(analysis_band(),),
        order=3,
    )

    def snapshot():
        run_pipeline(cfg)
        return {
            name: hashlib.sha256(
                Path(out, name).read_bytes()
            ).hexdigest()
            for name in sorted(os.listdir(out))
        }

    first = snapshot()
    second = snapshot()
    assert first == second
    suffixes = {os.path.splitext(name)[1] for name in first}
    assert {".json", ".svg"} <= suffixes
