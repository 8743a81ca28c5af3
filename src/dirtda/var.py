"""Vector autoregression: least-squares fitting and order selection.

A VAR(K) on d channels is X(t) = sum_k Phi_k X(t-k) + E(t) with iid
Gaussian innovations E(t) ~ N(0, Sigma_E). Fitting is per-equation OLS on
the stacked lag regression; an intercept is fitted internally and discarded,
so callers are expected to pass (approximately) centered data.

Fitting and order selection both read one upper-triangular factor of the
lag design with the responses appended. On a well-conditioned window it is
the Cholesky factor of that matrix's Gram matrix, which is summed over row
blocks and factored by numpy loops, so the design is never built.
Otherwise the design is built and the factor comes from its QR. Both run
numpy's BLAS on one thread and then put back the caller's count, so a fit
gives the same bytes at any thread count, wherever it is called. That
needs an OpenBLAS that exports its thread-count functions, as numpy's PyPI
wheels for Linux have; with another BLAS (MKL, Accelerate) or on Windows,
a window on the QR path may still differ between thread counts.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .ingest import MultivariateSeries
from .jsonio import float_array_field, is_int

__all__ = [
    "VarModel",
    "OrderCriterion",
    "fit_var",
    "select_order",
    "is_stable",
    "companion_matrix",
    "var_model_to_dict",
    "var_model_from_dict",
]

# condition number of the lag regressor matrix above which the Gram matrix
# is treated as numerically singular (e.g. duplicated channels)
_MAX_CONDITION = 1e12

# fitting and order selection read the Cholesky factor of [design | response]'s
# Gram matrix only when that factor's condition number is at most this:
# forming the Gram matrix squares it, and cond**2 * eps then stays below 1e-10
_GRAM_MAX_CONDITION = 1e3

# rows of the lagged window summed into the Gram matrix at a time
_GRAM_BLOCK_ROWS = 2048

_STABILITY_MARGIN = 1e-8

# OpenBLAS's thread-count functions, (get, set), in the order they are
# looked up: the scipy-openblas build that numpy's PyPI wheels ship, with
# the 64- then the 32-bit integer interface, then a plain OpenBLAS
_BLAS_THREAD_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_hook() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """OpenBLAS's (get, set) thread-count functions in numpy's BLAS, or None
    where that BLAS exports neither pair, as MKL, Accelerate and Windows
    builds do not."""
    try:
        # dlsym on numpy's core extension also searches the libraries it
        # loaded, its BLAS among them
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None
    for get_name, set_name in _BLAS_THREAD_NAMES:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# the BLAS thread count is one per process, so the scopes open in it share
# one depth, and the count the outermost of them found
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """numpy's BLAS on one thread inside the block, the caller's count after.

    Scopes may nest or be open in several threads at once: the first to
    open sets the count to 1, and the last to close puts back the count the
    first found. Where _blas_thread_hook finds nothing, this does nothing.
    """
    global _blas_depth, _blas_saved
    hook = _blas_thread_hook()
    if hook is None:
        yield
        return
    get, set_ = hook
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


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


def _lag_design(x: np.ndarray, k: int) -> np.ndarray:
    """Rows k on of [1, x(t-1), ..., x(t-k) | x(t)].

    Written into one preallocated array; the columns are ordered by lag, so
    the first 1 + j*d columns are the regressors of every order j <= k.
    """
    t, d = x.shape
    p = 1 + k * d
    out = np.empty((t - k, p + d))
    out[:, 0] = 1.0
    for lag in range(1, k + 1):
        out[:, 1 + (lag - 1) * d : 1 + lag * d] = x[k - lag : t - lag]
    out[:, p:] = x[k:]
    return out


def _check_condition(sv: np.ndarray) -> None:
    """Raise when sv[0] / sv[-1], singular values largest first, exceeds _MAX_CONDITION."""
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ValueError(
            f"singular lag regression (condition estimate {cond:.3e}); "
            "check for duplicated or constant channels"
        )


@_one_blas_thread()
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

    The fit reads one upper-triangular factor R = [[R11, R12], [0, R22]] of
    M = [design | response] (Lütkepohl §3.2): the coefficients solve
    R11 beta = R12, and R22^T R22 is the residual cross-product. R is the
    Cholesky factor of M^T M, summed over row blocks as in select_order,
    when that factor's condition number is at most _GRAM_MAX_CONDITION, so
    the design's is too. Otherwise M is built, R comes from its QR, and a
    design whose condition number exceeds _MAX_CONDITION raises. BLAS runs
    on one thread for the length of the call (see the module docstring).
    """
    x = series.samples
    t, d = x.shape
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    if not t > d * k + k:
        raise ValueError(
            f"need T > d*k + k observations to fit VAR({k}) on {d} channels, got T={t}"
        )
    p = 1 + k * d
    r = _gram_factor(_lagged_gram(x, k))
    if r is None:
        r = np.linalg.qr(_lag_design(x, k), mode="r")
        _check_condition(np.linalg.svd(r[:p, :p], compute_uv=False))
    beta = _back_substitute(r[:p, :p], r[:p, p:])
    # drop the intercept row; lag j's rows of beta are Phi_j transposed
    coeffs = beta[1:].reshape(k, d, d).transpose(0, 2, 1)
    tail = r[p:, p:]
    sigma = np.einsum("ij,ik->jk", tail, tail) / (t - k)
    sigma = 0.5 * (sigma + sigma.T)
    return VarModel(coeffs, sigma)


def _lagged_gram(x: np.ndarray, k: int) -> np.ndarray:
    """M^T M for M = _lag_design(x, k), without building M.

    Row i of a read-only view of x is x[i : i + k + 1] flattened, that is
    [x(t-k), ..., x(t-1), x(t)] at t = i + k; those rows sit next to each
    other in memory. The view's Gram matrix and column sums are summed over
    blocks of _GRAM_BLOCK_ROWS rows, each copied into one reused buffer, and
    then placed in M's column order: intercept, lags 1..k, response.
    """
    t, d = x.shape
    width = (k + 1) * d
    lagged = np.lib.stride_tricks.sliding_window_view(np.ravel(x), width)[::d]
    # the view's Gram matrix bordered by its column sums and row count
    gram = np.zeros((width + 1, width + 1))
    gram[0, 0] = t - k
    # matmul on a contiguous copy is faster, and smaller, than on the view
    buffer = np.empty((min(_GRAM_BLOCK_ROWS, t - k), width))
    for start in range(0, t - k, _GRAM_BLOCK_ROWS):
        rows = lagged[start : start + _GRAM_BLOCK_ROWS]
        block = buffer[: len(rows)]
        block[...] = rows
        gram[1:, 1:] += block.T @ block
        gram[0, 1:] += block.sum(axis=0)
    gram[1:, 0] = gram[0, 1:]
    # the view's column blocks run lag k, ..., lag 1, response, so M's lag j
    # is the view's block k - j
    blocks = np.array([*range(k - 1, -1, -1), k])
    order = np.concatenate(([0], 1 + (blocks[:, None] * d + np.arange(d)).ravel()))
    return gram[np.ix_(order, order)]


# The Cholesky factor and the triangular solve below are loops over numpy
# vector operations, not LAPACK: LAPACK's Cholesky and triangular solves at
# these widths (129 columns for d = 32, k = 3) give different bits at
# different BLAS thread counts, and with them every model, network, diagram
# and distance of a run. _one_blas_thread prevents that only where
# _blas_thread_hook finds OpenBLAS's thread-count functions.
def _gram_factor(gram: np.ndarray) -> np.ndarray | None:
    """Upper Cholesky factor of gram, or None when a pivot is not positive or
    the factor's condition number exceeds _GRAM_MAX_CONDITION."""
    n = len(gram)
    r = np.zeros_like(gram)
    for j in range(n):
        above = r[:j, j]
        pivot = gram[j, j] - above @ above
        # false for a NaN pivot as well
        if not pivot > 0:
            return None
        r[j, j] = np.sqrt(pivot)
        r[j, j + 1 :] = (gram[j, j + 1 :] - above @ r[:j, j + 1 :]) / r[j, j]
    sv = np.linalg.svd(r, compute_uv=False)
    # false for a zero or NaN smallest singular value as well
    return r if sv[0] <= _GRAM_MAX_CONDITION * sv[-1] else None


def _back_substitute(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve upper @ out = rhs for an upper-triangular upper, row by row."""
    out = np.empty_like(rhs)
    for i in range(len(upper) - 1, -1, -1):
        out[i] = (rhs[i] - upper[i, i + 1 :] @ out[i + 1 :]) / upper[i, i]
    return out


@_one_blas_thread()
def select_order(
    series: MultivariateSeries, k_max: int, criterion: OrderCriterion = OrderCriterion.BIC
) -> int:
    """Pick the VAR order in 1..k_max minimizing AIC or BIC.

    All candidate orders are scored on the common effective sample, the rows
    from k_max + 1 on, so the criteria are comparable. Ties go to the
    smaller order. Requires T - k_max >= 1 + k_max*d + d, so that the
    largest order leaves at least d residual degrees of freedom.

    Every order is scored from one upper-triangular factor R of
    M = [design(k_max) | response] (nested least squares, Lütkepohl §4.3):
    order k's design is the first p = 1 + k*d columns of M, so
    r[p:, p_max:]^T r[p:, p_max:] is its residual cross-product. R is the
    Cholesky factor of M^T M, from the same _lagged_gram and _gram_factor
    as fit_var, when that factor's condition number is at most
    _GRAM_MAX_CONDITION; a column subset is never worse conditioned, so
    that one check covers every order, and each residual covariance's
    condition number is then at most _GRAM_MAX_CONDITION**2. M^T M is
    summed over blocks of rows of a lagged view of the window, so M itself
    is never built on this path. Otherwise M is built, R comes from its QR,
    and each order is checked on its own: a singular design raises naming
    the condition estimate of the first order that fails, and so does a
    residual covariance whose condition number exceeds _MAX_CONDITION,
    whose log-determinant would be rounding noise. BLAS runs on one thread
    for the length of the call, as in fit_var.
    """
    x = series.samples
    t, d = x.shape
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    need = 1 + k_max * d + d
    if t - k_max < need:
        raise ValueError(
            f"need T - k_max >= 1 + k_max*d + d = {need} to compare orders "
            f"up to {k_max} on {d} channels, got T={t}"
        )
    t_eff = t - k_max
    r = _gram_factor(_lagged_gram(x, k_max))
    check_each_order = r is None
    if check_each_order:
        r = np.linalg.qr(_lag_design(x, k_max), mode="r")
    p_max = 1 + k_max * d
    best_k, best_score = 0, np.inf
    for k in range(1, k_max + 1):
        p = 1 + k * d
        tail = r[p:, p_max:]
        if check_each_order:
            _check_condition(np.linalg.svd(r[:p, :p], compute_uv=False))
            # tail^T tail squares tail's condition number
            sv = np.linalg.svd(tail, compute_uv=False)
            cond = (sv[0] / sv[-1]) ** 2 if sv[-1] > 0 else np.inf
            if not cond <= _MAX_CONDITION:
                raise ValueError(
                    f"degenerate residual covariance at order {k} "
                    f"(condition estimate {cond:.3e}); check for nearly collinear channels"
                )
        sigma = tail.T @ tail / t_eff
        _, logdet = np.linalg.slogdet(sigma)
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


def var_model_to_dict(model: VarModel) -> dict[str, Any]:
    """JSON form: {"k": K, "d": d, "coeffs": [...], "sigma": [...]}, row-major."""
    return {
        "k": model.order_k,
        "d": model.n_channels,
        "coeffs": model.coeffs.tolist(),
        "sigma": model.innovation_cov.tolist(),
    }


def var_model_from_dict(doc: dict[str, Any]) -> VarModel:
    coeffs = float_array_field(doc["coeffs"], "model coeffs")
    sigma = float_array_field(doc["sigma"], "model sigma")
    model = VarModel(coeffs, sigma)
    declared = (doc["k"], doc["d"])
    if not all(map(is_int, declared)) or declared != (model.order_k, model.n_channels):
        raise ValueError(
            f"declared (k={doc['k']!r}, d={doc['d']!r}) does not match "
            f"coeffs shape {coeffs.shape}"
        )
    return model
