import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_select_order
from dirtda import (
    MultivariateSeries,
    OrderCriterion,
    VarModel,
    companion_matrix,
    default_labels,
    fit_var,
    is_stable,
    select_order,
    standardize,
)
import dirtda.var
from dirtda.var import var_model_from_dict, var_model_to_dict
from var_simulation import simulate_var

# fixed stable VAR(2), d=5: weak cross-coupling on top of decaying diagonals
RNG = np.random.default_rng(1234)
TRUE_PHI = np.zeros((2, 5, 5))
TRUE_PHI[0] = np.diag([0.5, 0.4, 0.3, 0.45, 0.35]) + RNG.uniform(-0.08, 0.08, (5, 5))
TRUE_PHI[1] = np.diag([-0.25, -0.2, -0.15, -0.22, -0.18]) + RNG.uniform(
    -0.05, 0.05, (5, 5)
)
TRUE_MODEL = VarModel(TRUE_PHI, np.eye(5))


class TestVarModel:
    def test_rejects_asymmetric_sigma(self):
        sigma = np.eye(2)
        sigma[0, 1] = 0.5
        with pytest.raises(ValueError):
            VarModel(np.zeros((1, 2, 2)), sigma)

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ValueError):
            VarModel(np.zeros((1, 2, 2)), np.diag([1.0, -0.5]))

    def test_shape_accessors(self):
        assert TRUE_MODEL.order_k == 2
        assert TRUE_MODEL.n_channels == 5


class TestIsStable:
    def test_half_identity_stable(self):
        assert is_stable(VarModel(0.5 * np.eye(2)[None], np.eye(2)))

    def test_unit_root_unstable(self):
        assert not is_stable(VarModel(np.eye(2)[None], np.eye(2)))

    def test_explosive_unstable(self):
        assert not is_stable(VarModel(1.1 * np.eye(2)[None], np.eye(2)))

    def test_companion_shape(self):
        assert companion_matrix(TRUE_MODEL).shape == (10, 10)

    def test_fixture_model_is_stable(self):
        assert is_stable(TRUE_MODEL)


class TestSimulateVar:
    def test_deterministic(self):
        a = simulate_var(TRUE_MODEL, 100, seed=5)
        b = simulate_var(TRUE_MODEL, 100, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_output(self):
        a = simulate_var(TRUE_MODEL, 100, seed=5)
        b = simulate_var(TRUE_MODEL, 100, seed=6)
        assert not np.array_equal(a.samples, b.samples)

    def test_white_noise_moments(self):
        m = VarModel(np.zeros((1, 3, 3)), np.eye(3))
        t = 20000
        s = simulate_var(m, t, seed=7)
        cov = np.cov(s.samples.T)
        assert np.max(np.abs(cov - np.eye(3))) < 3.0 / np.sqrt(t)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            simulate_var(VarModel(np.eye(2)[None], np.eye(2)), 100, seed=0)

    def test_singular_sigma_usable(self):
        # PSD-singular covariance must still simulate (clipped factor)
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        m = VarModel(0.2 * np.eye(2)[None], sigma)
        s = simulate_var(m, 200, seed=1)
        # rank-1 innovations: the two channels stay perfectly correlated
        assert abs(np.corrcoef(s.samples.T)[0, 1] - 1.0) < 1e-8


class TestFitVar:
    def test_recovers_known_var2(self):
        s = simulate_var(TRUE_MODEL, 2000, seed=42)
        fit = fit_var(s, 2)
        assert np.max(np.abs(fit.coeffs - TRUE_PHI)) < 0.1

    def test_white_noise_coefficients_near_zero(self):
        m = VarModel(np.zeros((1, 3, 3)), np.eye(3))
        fit = fit_var(simulate_var(m, 5000, seed=8), 1)
        assert np.max(np.abs(fit.coeffs)) < 0.1

    def test_insufficient_rows_rejected(self):
        d, k = 3, 2
        s = MultivariateSeries(np.random.default_rng(0).normal(size=(d * k, d)),
                               1.0, default_labels(d))
        with pytest.raises(ValueError):
            fit_var(s, k)

    def test_duplicated_channel_singular(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(500, 1))
        s = MultivariateSeries(np.hstack([x, x]), 1.0, ("a", "b"))
        with pytest.raises(ValueError, match="condition"):
            fit_var(s, 1)

    def test_residual_orthogonality(self):
        # normal equations: residuals orthogonal to every lagged regressor
        s = simulate_var(TRUE_MODEL, 1500, seed=11)
        k = 2
        fit = fit_var(s, k)
        x = s.samples
        t = x.shape[0]
        rows = np.hstack([x[k - 1 - lag : t - 1 - lag] for lag in range(k)])
        pred = np.zeros((t - k, 5))
        for lag in range(k):
            pred += x[k - 1 - lag : t - 1 - lag] @ fit.coeffs[lag].T
        resid = x[k:] - pred
        resid -= resid.mean(axis=0)  # intercept absorbs the mean
        gram = rows.T @ resid
        assert np.max(np.abs(gram)) / t < 1e-8

    def test_consistency_in_t(self):
        errs = []
        for t in (500, 2000, 8000):
            fit = fit_var(simulate_var(TRUE_MODEL, t, seed=13), 2)
            errs.append(np.max(np.abs(fit.coeffs - TRUE_PHI)))
        assert errs[0] > errs[1] > errs[2]


class TestSelectOrder:
    def test_recovers_true_order(self):
        s = simulate_var(TRUE_MODEL, 5000, seed=21)
        assert select_order(s, 6, OrderCriterion.BIC) == 2

    def test_k_max_one(self):
        s = simulate_var(TRUE_MODEL, 500, seed=22)
        assert select_order(s, 1, OrderCriterion.AIC) == 1

    def test_aic_functional(self):
        s = simulate_var(TRUE_MODEL, 5000, seed=23)
        assert select_order(s, 6, OrderCriterion.AIC) in (2, 3)

    def test_permutation_invariant(self):
        s = simulate_var(TRUE_MODEL, 3000, seed=24)
        perm = np.array([3, 0, 4, 1, 2])
        permuted = MultivariateSeries(
            s.samples[:, perm], s.sampling_rate_hz, tuple(s.channel_labels[i] for i in perm)
        )
        for crit in (OrderCriterion.AIC, OrderCriterion.BIC):
            assert select_order(s, 5, crit) == select_order(permuted, 5, crit)

    @pytest.mark.parametrize("defect", ["duplicated", "constant"])
    def test_singular_design_raises(self, defect):
        x = simulate_var(TRUE_MODEL, 600, seed=25).samples.copy()
        if defect == "duplicated":
            x[:, 3] = x[:, 1]
        else:
            x[:, 3] = 2.5
        s = MultivariateSeries(x, 1.0, default_labels(5))
        for select in (select_order, reference_select_order.select_order):
            with pytest.raises(ValueError, match="condition"):
                select(s, 3, OrderCriterion.BIC)

    @pytest.mark.parametrize("t", [10, 11])
    def test_too_few_rows_for_the_largest_order_rejected(self, t):
        # d = 2, k_max = 3: the order-3 fit has 1 + 3*2 regressors, so
        # T - 3 rows leave fewer than d = 2 residual degrees of freedom
        s = MultivariateSeries(np.random.default_rng(t).normal(size=(t, 2)), 1.0, ("a", "b"))
        with pytest.raises(ValueError, match=r"T - k_max >= 1 \+ k_max\*d \+ d = 9"):
            select_order(s, 3)

    def test_smallest_sample_selects(self):
        s = MultivariateSeries(np.random.default_rng(12).normal(size=(12, 2)), 1.0, ("a", "b"))
        assert select_order(s, 3) in (1, 2, 3)

    def test_well_conditioned_window_needs_no_qr(self, monkeypatch):
        def no_qr(*args, **kwargs):
            raise AssertionError("QR ran on a well-conditioned design")

        monkeypatch.setattr(dirtda.var.np.linalg, "qr", no_qr)
        s = simulate_var(TRUE_MODEL, 3000, seed=26)
        for crit in OrderCriterion:
            assert select_order(s, 6, crit) == reference_select_order.select_order(s, 6, crit)

    @pytest.mark.parametrize(
        "eps, qr_shapes",
        # channel 3 = channel 1 + eps * noise; [design | response] has
        # condition number ~280 at eps 1e-2 and ~2,800 at 1e-3
        [(1e-2, []), (1e-3, [(597, 21)])],
    )
    def test_qr_runs_only_above_the_condition_threshold(self, monkeypatch, eps, qr_shapes):
        real, calls = np.linalg.qr, []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(dirtda.var.np.linalg, "qr", spy)
        x = simulate_var(TRUE_MODEL, 600, seed=27).samples.copy()
        x[:, 3] = x[:, 1] + eps * np.random.default_rng(27).normal(size=600)
        s = MultivariateSeries(x, 1.0, default_labels(5))
        assert select_order(s, 3) == reference_select_order.select_order(s, 3)
        assert calls == qr_shapes


_BLOCK = dirtda.var._GRAM_BLOCK_ROWS


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=8),
    # T - k below, equal to, one above and a multiple of the block size
    st.one_of(
        st.integers(min_value=1, max_value=_BLOCK - 1),
        st.sampled_from([_BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK]),
    ),
    st.booleans(),
)
def test_blocked_gram_matches_the_design_gram(seed, d, k, t_eff, fortran):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.uniform(-3.0, 3.0, size=d), size=(t_eff + k, d))
    if fortran:
        x = np.asfortranarray(x)
    m = dirtda.var._lag_design(x, k)
    expected = m.T @ m
    got = dirtda.var._lagged_gram(x, k)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_well_conditioned_window_builds_no_design(monkeypatch):
    def no_design(*args, **kwargs):
        raise AssertionError("the lag design was built for a well-conditioned window")

    monkeypatch.setattr(dirtda.var, "_lag_design", no_design)
    s = simulate_var(TRUE_MODEL, 3000, seed=28)
    for crit in OrderCriterion:
        assert select_order(s, 6, crit) == reference_select_order.select_order(s, 6, crit)
    fit_var(s, 6)


def test_select_order_peak_memory_stays_below_half_the_design():
    t, d, k_max = 20_000, 5, 12
    s = MultivariateSeries(np.random.default_rng(29).normal(size=(t, d)), 1.0, default_labels(d))
    design_bytes = (t - k_max) * (1 + k_max * d + d) * 8  # 10.5 MB
    tracemalloc.start()
    try:
        select_order(s, k_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < design_bytes / 2


def test_fit_var_peak_memory_stays_below_half_the_design():
    t, d, k = 20_000, 5, 12
    s = MultivariateSeries(np.random.default_rng(30).normal(size=(t, d)), 1.0, default_labels(d))
    design_bytes = (t - k) * (1 + k * d + d) * 8  # 10.5 MB
    tracemalloc.start()
    try:
        fit_var(s, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < design_bytes / 2


# fits one window and prints the hashes of the model's and the Gram matrix's bytes
_FIT_AND_HASH = """
import hashlib, sys
import numpy as np
from dirtda import MultivariateSeries, default_labels, fit_var
from dirtda.var import _lagged_gram
x = np.load(sys.argv[1])
model = fit_var(MultivariateSeries(x, 1.0, default_labels(x.shape[1])), 3)
print(hashlib.sha256(model.coeffs.tobytes() + model.innovation_cov.tobytes()).hexdigest())
print(hashlib.sha256(_lagged_gram(x, 3).tobytes()).hexdigest())
"""


def _gram_window() -> np.ndarray:
    # a d = 32 window at order 3 factors a 129-column Gram matrix, a width
    # at which LAPACK's Cholesky gave different bits at 1 and 2 threads
    return standardize(simulate_var(_stable_var(31, 32, 3, 0.8), 4000, seed=31)).samples


def _qr_fallback_window() -> np.ndarray:
    # channel 31 nearly repeats channel 0, so the Gram factor is too
    # ill-conditioned and the fit takes the QR of the design, whose bits
    # move with the BLAS thread count unless the fit sets it
    x = np.random.default_rng(0).standard_normal((4000, 32))
    x[1:] += 0.5 * x[:-1]
    x[:, 31] = x[:, 0] + 1e-4 * np.random.default_rng(1).standard_normal(4000)
    window = standardize(MultivariateSeries(x, 100.0, default_labels(32))).samples
    assert dirtda.var._gram_factor(dirtda.var._lagged_gram(window, 3)) is None
    return window


@pytest.mark.parametrize(
    "window",
    [
        pytest.param(_gram_window, id="gram"),
        pytest.param(
            _qr_fallback_window,
            id="qr-fallback",
            marks=pytest.mark.skipif(
                dirtda.var._blas_thread_hook() is None,
                reason="numpy's BLAS exports no OpenBLAS thread-count functions, "
                "so a fit keeps the caller's BLAS settings",
            ),
        ),
    ],
)
def test_fit_is_the_same_bytes_at_any_blas_thread_count(tmp_path, window):
    path = str(tmp_path / "window.npy")
    np.save(path, window())
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirtda.__file__)))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", _FIT_AND_HASH, path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        hashes.append(done.stdout.split())
    assert hashes[0] == hashes[1]


def _stable_var(seed: int, d: int, k: int, radius: float) -> VarModel:
    """Random VAR(k) rescaled so its companion spectral radius is radius."""
    phi = np.random.default_rng(seed).normal(size=(k, d, d))
    rho = np.max(np.abs(np.linalg.eigvals(companion_matrix(VarModel(phi, np.eye(d))))))
    # Phi_j -> c^j Phi_j scales every companion eigenvalue by c
    scale = (radius / rho) ** np.arange(1, k + 1)
    return VarModel(phi * scale[:, None, None], np.eye(d))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.3, max_value=0.95),
    st.sampled_from(list(OrderCriterion)),
)
def test_select_order_matches_per_order_lstsq(seed, d, k_true, k_max, radius, criterion):
    # the single QR must pick the order that one lstsq solve per order picks
    s = simulate_var(_stable_var(seed, d, k_true, radius), 400, seed=seed)
    assert select_order(s, k_max, criterion) == reference_select_order.select_order(
        s, k_max, criterion
    )


def _lstsq_fit(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """fit_var as it was before the Gram factor: one lstsq solve on the lag
    design, and the residuals' cross-product over T - k."""
    coeffs, resid, _ = reference_select_order._ols(x, k, k)
    return coeffs, resid.T @ resid / (x.shape[0] - k)


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.3, max_value=0.95),
)
def test_fit_var_matches_lstsq(seed, d, k_true, k, radius):
    s = simulate_var(_stable_var(seed, d, k_true, radius), 400, seed=seed)
    fit = fit_var(s, k)
    coeffs, sigma = _lstsq_fit(s.samples, k)
    assert _relative_error(fit.coeffs, coeffs) <= 1e-8
    assert _relative_error(fit.innovation_cov, sigma) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=1.0, max_value=16.0),
)
def test_fit_var_near_collinear_matches_lstsq(seed, d, k, neg_log_eps):
    # x[:, j] = x[:, i] + eps * noise with eps in [1e-16, 1e-1]: the design's
    # condition number sweeps across the Cholesky/QR switch (eps near
    # 1e-2.5 here) and past the 1e12 bound
    rng = np.random.default_rng(seed)
    x = simulate_var(_stable_var(seed, d, 2, 0.8), 400, seed=seed).samples.copy()
    i, j = rng.choice(d, size=2, replace=False)
    x[:, j] = x[:, i] + 10.0**-neg_log_eps * rng.normal(size=x.shape[0])
    s = MultivariateSeries(x, 1.0, default_labels(d))
    cond = np.linalg.cond(reference_select_order._lag_design(x, k, k)[1])
    try:
        fit = fit_var(s, k)
    except ValueError as exc:
        fit = str(exc)
    if cond <= 1e10:
        coeffs, sigma = _lstsq_fit(x, k)
        # both solutions lie about cond * 1e-15 from the exact one (checked
        # against 60-digit arithmetic), so past cond 1e5 the bound grows with it
        bound = max(1e-8, 1e-13 * cond)
        assert _relative_error(fit.coeffs, coeffs) <= bound
        assert _relative_error(fit.innovation_cov, sigma) <= bound
    elif cond > 1.01e12:
        # past the bound by more than the estimate's own error, u * cond
        assert isinstance(fit, str) and "condition" in fit, fit
        with pytest.raises(ValueError, match="condition"):
            _lstsq_fit(x, k)
    else:
        # near the bound the two condition estimates may fall either side
        assert isinstance(fit, VarModel) or "condition" in fit


def _outcome(select, s, k_max, criterion):
    try:
        return select(s, k_max, criterion)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _oracle_condition(x: np.ndarray, k_max: int) -> float | None:
    """Largest condition number over the orders' residual covariances, as
    the per-order lstsq oracle forms them; None when the oracle's own design
    check raises.

    Past 1e10, slogdet of resid.T @ resid carries rounding noise of about
    cond * 2.2e-16 and scores no longer separate orders reliably.
    """
    try:
        resids = [reference_select_order._ols(x, k, k_max)[1] for k in range(1, k_max + 1)]
    except ValueError:
        return None
    return max(np.linalg.cond(r.T @ r) for r in resids)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=1.0, max_value=9.0),
    st.sampled_from(list(OrderCriterion)),
)
def test_select_order_near_collinear_matches_per_order_lstsq(seed, d, k_max, neg_log_eps, criterion):
    # x[:, j] = x[:, i] + eps * noise with eps in [1e-9, 1e-1]: the design's
    # condition number sweeps across the Cholesky threshold (eps near 1e-2.5
    # here) deep into the QR path
    rng = np.random.default_rng(seed)
    x = simulate_var(_stable_var(seed, d, 2, 0.8), 400, seed=seed).samples.copy()
    i, j = rng.choice(d, size=2, replace=False)
    x[:, j] = x[:, i] + 10.0**-neg_log_eps * rng.normal(size=x.shape[0])
    s = MultivariateSeries(x, 1.0, default_labels(d))
    got = _outcome(select_order, s, k_max, criterion)
    cond = _oracle_condition(x, k_max)
    if cond is None or cond <= 1e10:
        assert got == _outcome(reference_select_order.select_order, s, k_max, criterion)
    elif cond >= 1e14:
        # from eps ~ 1e-7 down the residual covariance is singular to working
        # precision: its score would be noise, so the window is refused
        assert isinstance(got, str) and got.startswith("ValueError: "), got
    else:
        # near the 1e12 bound the two condition estimates may fall either side
        assert got in range(1, k_max + 1) or got.startswith("ValueError: ")


class TestSerialization:
    def test_round_trip(self):
        doc = var_model_to_dict(TRUE_MODEL)
        assert doc["k"] == 2 and doc["d"] == 5
        back = var_model_from_dict(doc)
        assert np.array_equal(back.coeffs, TRUE_MODEL.coeffs)
        assert np.array_equal(back.innovation_cov, TRUE_MODEL.innovation_cov)

    def test_shape_mismatch_rejected(self):
        doc = var_model_to_dict(TRUE_MODEL)
        doc["d"] = 4
        with pytest.raises(ValueError):
            var_model_from_dict(doc)

    @pytest.mark.parametrize("field, value", [("k", True), ("k", 1.0), ("d", 5.0)])
    def test_declared_size_must_be_an_int(self, field, value):
        # equal to the VAR(1) model's k = 1 or d = 5 under ==, but not an int
        doc = var_model_to_dict(VarModel(TRUE_PHI[:1], np.eye(5)))
        doc[field] = value
        with pytest.raises(ValueError, match=r"declared \(k=.*\) does not match"):
            var_model_from_dict(doc)
