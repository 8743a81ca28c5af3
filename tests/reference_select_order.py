"""The VAR order selection that dirtda used before its single-QR scoring,
kept unchanged as a test oracle.

Every candidate order k = 1..k_max is fitted by its own ``np.linalg.lstsq``
solve on the common sample (responses from row k_max on) and scored by
AIC or BIC on its residual covariance. ``dirtda.var.select_order`` must
pick the same order and raise on the same inputs.
"""

from __future__ import annotations

import numpy as np

from dirtda.ingest import MultivariateSeries
from dirtda.var import OrderCriterion

_MAX_CONDITION = 1e12


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
