"""The generic VAR simulator that dirtda shipped beside ``simulate.realize``,
kept unchanged to draw test data.

The package simulates only its benchmark systems; tests that need a
sample of an arbitrary stable VAR draw it here, so their series stay
bit-identical to the ones they were written against.
"""

from __future__ import annotations

import numpy as np

from dirtda.ingest import MultivariateSeries, default_labels
from dirtda.var import VarModel, is_stable


def _innovation_factor(sigma: np.ndarray) -> np.ndarray:
    """Square root factor L with L L^T = sigma.

    Cholesky when positive definite; otherwise an eigenvalue factor with
    negative eigenvalues clipped at zero, so semidefinite covariances
    (e.g. rank-deficient ones) still simulate deterministically.
    """
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(sigma)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def simulate_var(
    model: VarModel, t: int, seed: int, burn_in: int = 500
) -> MultivariateSeries:
    """Draw t samples from a stable VAR, discarding burn_in initial steps.

    The generator starts from a zero state, so output is deterministic in
    (model, t, seed, burn_in). Sampling rate of the returned series is 1 Hz.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if not is_stable(model):
        raise ValueError("refusing to simulate an unstable model")
    k, d = model.order_k, model.n_channels
    rng = np.random.default_rng(seed)
    factor = _innovation_factor(model.innovation_cov)
    innovations = rng.standard_normal((t + burn_in, d)) @ factor.T
    out = np.zeros((t + burn_in, d))
    for step in range(t + burn_in):
        acc = innovations[step].copy()
        for lag in range(1, min(k, step) + 1):
            acc += model.coeffs[lag - 1] @ out[step - lag]
        out[step] = acc
    return MultivariateSeries(out[burn_in:], 1.0, default_labels(d))
