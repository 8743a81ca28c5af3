"""Vector autoregression: least-squares fitting, order selection, simulation.

A VAR(K) on d channels is X(t) = sum_k Phi_k X(t-k) + E(t) with iid
Gaussian innovations E(t) ~ N(0, Sigma_E). Fitting is per-equation OLS on
the stacked lag regression; an intercept is fitted internally and discarded,
so callers are expected to pass (approximately) centered data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np

from .ingest import MultivariateSeries, default_labels

__all__ = [
    "VarModel",
    "OrderCriterion",
    "fit_var",
    "select_order",
    "is_stable",
    "simulate_var",
    "companion_matrix",
    "var_model_to_dict",
    "var_model_from_dict",
]

# condition number of the lag regressor matrix above which the Gram matrix
# is treated as numerically singular (e.g. duplicated channels)
_MAX_CONDITION = 1e12

_STABILITY_MARGIN = 1e-8


@dataclass(frozen=True)
class VarModel:
    """Coefficients and innovation covariance of a fitted or constructed VAR.

    coeffs has shape (K, d, d); coeffs[k][p][q] is the effect of channel q
    at lag k+1 on channel p. innovation_cov is the d x d innovation
    covariance, symmetric positive semidefinite.
    """

    coeffs: np.ndarray
    innovation_cov: np.ndarray

    def __post_init__(self) -> None:
        phi = np.array(self.coeffs, dtype=float)
        sig = np.array(self.innovation_cov, dtype=float)
        if phi.ndim != 3 or phi.shape[1] != phi.shape[2]:
            raise ValueError(f"coeffs must have shape (K, d, d), got {phi.shape}")
        d = phi.shape[1]
        if sig.shape != (d, d):
            raise ValueError(f"innovation_cov must be {d} x {d}, got {sig.shape}")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(sig))):
            raise ValueError("model parameters must be finite")
        if np.max(np.abs(sig - sig.T)) > 1e-10:
            raise ValueError("innovation_cov must be symmetric within 1e-10")
        if np.linalg.eigvalsh(0.5 * (sig + sig.T)).min() < -1e-10:
            raise ValueError("innovation_cov must be positive semidefinite")
        phi.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "coeffs", phi)
        object.__setattr__(self, "innovation_cov", sig)

    @property
    def order_k(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_channels(self) -> int:
        return self.coeffs.shape[1]


class OrderCriterion(enum.Enum):
    AIC = "aic"
    BIC = "bic"


def _lag_design(x: np.ndarray, k: int, t0: int) -> tuple[np.ndarray, np.ndarray]:
    """Response rows x[t0:] and regressors [1, x(t-1), ..., x(t-k)]."""
    t = x.shape[0]
    cols = [np.ones((t - t0, 1))]
    cols += [x[t0 - lag : t - lag] for lag in range(1, k + 1)]
    return x[t0:], np.hstack(cols)


def _ols(x: np.ndarray, k: int, t0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OLS fit of a VAR(k) using responses from row t0 on.

    Returns (coeffs, residuals, regressors). Residual covariance is left to
    the caller because the denominator differs between fit and selection.
    """
    d = x.shape[1]
    y, design = _lag_design(x, k, t0)
    beta, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    # the solver's singular values give the 2-norm condition number for free
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ValueError(
            f"singular lag regression (condition estimate {cond:.3e}); "
            "check for duplicated or constant channels"
        )
    resid = y - design @ beta
    # drop the intercept row; reshape the rest into (k, d, d)
    coeffs = np.stack([beta[1 + lag * d : 1 + (lag + 1) * d].T for lag in range(k)])
    return coeffs, resid, design


def fit_var(series: MultivariateSeries, k: int) -> VarModel:
    """Fit a VAR(k) by per-equation least squares.

    Parameters
    ----------
    series : MultivariateSeries
        Input recording, T samples by d channels. Requires T > d*k + k.
    k : int
        Model order, >= 1.

    Returns
    -------
    VarModel
        Coefficients (k, d, d) and residual covariance with denominator T - k.
    """
    x = series.samples
    t, d = x.shape
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    if not t > d * k + k:
        raise ValueError(
            f"need T > d*k + k observations to fit VAR({k}) on {d} channels, got T={t}"
        )
    coeffs, resid, _ = _ols(x, k, k)
    sigma = resid.T @ resid / (t - k)
    sigma = 0.5 * (sigma + sigma.T)
    return VarModel(coeffs, sigma)


def select_order(
    series: MultivariateSeries, k_max: int, criterion: OrderCriterion = OrderCriterion.BIC
) -> int:
    """Pick the VAR order in 1..k_max minimizing AIC or BIC.

    All candidate orders are scored on the common effective sample, the rows
    from k_max + 1 on, so the criteria are comparable. Ties go to the
    smaller order.
    """
    x = series.samples
    t, d = x.shape
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not t > d * k_max + k_max:
        raise ValueError(
            f"need T > d*k_max + k_max observations to compare orders up to {k_max}, got T={t}"
        )
    t_eff = t - k_max
    best_k, best_score = 0, np.inf
    for k in range(1, k_max + 1):
        _, resid, _ = _ols(x, k, k_max)
        sigma = resid.T @ resid / t_eff
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            raise ValueError(f"degenerate residual covariance at order {k}")
        n_params = k * d * d
        if criterion == OrderCriterion.AIC:
            score = logdet + 2.0 * n_params / t_eff
        else:
            score = logdet + np.log(t_eff) * n_params / t_eff
        if score < best_score:  # strict: ties keep the smaller k
            best_k, best_score = k, score
    return best_k


def companion_matrix(model: VarModel) -> np.ndarray:
    """Companion form, shape (d*K, d*K)."""
    k, d = model.order_k, model.n_channels
    comp = np.zeros((d * k, d * k))
    comp[:d] = model.coeffs.transpose(1, 0, 2).reshape(d, d * k)
    if k > 1:
        comp[d:, : d * (k - 1)] = np.eye(d * (k - 1))
    return comp


def is_stable(model: VarModel) -> bool:
    """True when the companion spectral radius is below 1 - 1e-8."""
    radius = np.max(np.abs(np.linalg.eigvals(companion_matrix(model))))
    return bool(radius < 1.0 - _STABILITY_MARGIN)


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


def var_model_to_dict(model: VarModel) -> dict[str, Any]:
    """JSON form: {"k": K, "d": d, "coeffs": [...], "sigma": [...]}, row-major."""
    return {
        "k": model.order_k,
        "d": model.n_channels,
        "coeffs": model.coeffs.tolist(),
        "sigma": model.innovation_cov.tolist(),
    }


def var_model_from_dict(doc: dict[str, Any]) -> VarModel:
    coeffs = np.array(doc["coeffs"], dtype=float)
    sigma = np.array(doc["sigma"], dtype=float)
    model = VarModel(coeffs, sigma)
    if model.order_k != doc["k"] or model.n_channels != doc["d"]:
        raise ValueError(
            f"declared (k={doc['k']}, d={doc['d']}) does not match "
            f"coeffs shape {coeffs.shape}"
        )
    return model
