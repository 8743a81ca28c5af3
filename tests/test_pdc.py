import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtda import (
    DEFAULT_BANDS,
    DirectedNetwork,
    FrequencyBand,
    VarModel,
    is_stable,
    pdc_band,
)
from dirtda.pdc import _pdc, _transforms, network_from_dict, network_to_dict


def random_stable_var(rng, d, k):
    """Rejection-scale random coefficients until the companion radius < 1."""
    coeffs = rng.uniform(-0.9, 0.9, size=(k, d, d))
    model = VarModel(coeffs, np.eye(d))
    while not is_stable(model):
        coeffs *= 0.7
        model = VarModel(coeffs, np.eye(d))
    return model


def transform_at(model, omega):
    """Abar at one normalized frequency, as pdc_band computes it."""
    return _transforms(model, [omega])[0]


def pdc_at(model, omega):
    """PDC at one normalized frequency, as pdc_band computes it."""
    return _pdc(model, [omega])[0]


class TestSpectralTransform:
    def test_zero_phi_gives_identity(self):
        m = VarModel(np.zeros((1, 3, 3)), np.eye(3))
        for omega in (0.0, 0.17, 0.5):
            assert np.array_equal(transform_at(m, omega), np.eye(3))

    def test_omega_zero_k1(self):
        phi = np.array([[[0.3, 0.1], [0.0, 0.2]]])
        m = VarModel(phi, np.eye(2))
        out = transform_at(m, 0.0)
        assert np.allclose(out, np.eye(2) - phi[0], atol=1e-15)

    def test_scalar_quarter_frequency(self):
        # 1 - 0.5 exp(-i pi/2) = 1 + 0.5i
        m = VarModel(np.array([[[0.5]]]), np.eye(1))
        out = transform_at(m, 0.25)
        assert abs(out[0, 0] - (1.0 + 0.5j)) < 1e-15

    @pytest.mark.parametrize("omega", [-0.01, 0.51, 1.0])
    def test_omega_domain(self, omega):
        # pdc_band never evaluates outside [0, 0.5]: a band edge there is
        # refused as negative or as past Nyquist
        m = VarModel(np.zeros((1, 2, 2)), np.eye(2))
        with pytest.raises(ValueError):
            band = FrequencyBand("b", min(omega, 0.25), max(omega, 0.25))
            pdc_band(m, band, fs_hz=1.0)


class TestPdcAt:
    def test_zero_phi_identity(self):
        m = VarModel(np.zeros((1, 4, 4)), np.eye(4))
        assert np.array_equal(pdc_at(m, 0.3), np.eye(4))

    def test_column_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = random_stable_var(rng, 4, 2)
            for omega in (0.0, 0.123, 0.5):
                p = pdc_at(m, omega)
                assert np.max(np.abs((p**2).sum(axis=0) - 1.0)) < 1e-10

    def test_one_directional_flow(self):
        # flow only 1 -> 2: PDC[1,0] > 0, PDC[0,1] = 0
        c = 0.6
        m = VarModel(np.array([[[0.0, 0.0], [c, 0.0]]]), np.eye(2))
        for omega in (0.0, 0.2, 0.5):
            p = pdc_at(m, omega)
            assert p[1, 0] == pytest.approx(c / np.sqrt(1 + c * c), abs=1e-12)
            assert p[0, 1] == 0.0

    def test_diagonal_model_gives_diagonal_pdc(self):
        m = VarModel(
            np.stack([np.diag([0.4, -0.3, 0.2]), np.diag([0.1, 0.2, -0.1])]),
            np.eye(3),
        )
        for omega in (0.1, 0.37):
            p = pdc_at(m, omega)
            assert np.array_equal(p, np.diag(np.diag(p)))
            assert np.allclose(np.diag(p), 1.0)

    def test_degenerate_column_rejected(self):
        # unit root at omega = 0 zeroes the whole first column
        m = VarModel(np.array([[[1.0, 0.0], [0.0, 0.5]]]), np.eye(2))
        with pytest.raises(ValueError, match="column 1"):
            pdc_at(m, 0.0)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = pdc_at(random_stable_var(rng, 5, 3), 0.21)
            assert p.min() >= 0.0 and p.max() <= 1.0


class TestPdcBand:
    def test_zero_phi_identity_every_band(self):
        m = VarModel(np.zeros((1, 4, 4)), np.eye(4))
        for band in DEFAULT_BANDS:
            net = pdc_band(m, band, fs_hz=100.0)
            assert np.array_equal(net.weights, np.eye(4))

    def test_single_point_is_midpoint(self):
        rng = np.random.default_rng(2)
        m = random_stable_var(rng, 3, 2)
        band = FrequencyBand("mid", 10.0, 20.0)
        net = pdc_band(m, band, fs_hz=100.0, n_grid=1)
        assert np.allclose(net.weights, pdc_at(m, 15.0 / 100.0), atol=1e-14)

    def test_endpoints_included(self):
        rng = np.random.default_rng(3)
        m = random_stable_var(rng, 2, 1)
        band = FrequencyBand("b", 0.0, 50.0)
        net = pdc_band(m, band, fs_hz=100.0, n_grid=2)
        expected = (pdc_at(m, 0.0) + pdc_at(m, 0.5)) / 2.0
        assert np.allclose(net.weights, expected, atol=1e-15)

    @pytest.mark.parametrize("n_grid", [1, 32, 128])
    def test_equals_pointwise_sum_bit_for_bit(self, n_grid):
        # the whole-grid evaluation must add the single-frequency PDCs in grid order
        m = random_stable_var(np.random.default_rng(7), 5, 3)
        band = FrequencyBand("b", 8.0, 12.0)
        net = pdc_band(m, band, fs_hz=100.0, n_grid=n_grid)
        if n_grid == 1:
            omegas = [0.1]
        else:
            omegas = np.linspace(0.08, 0.12, n_grid).tolist()
        acc = np.zeros((5, 5))
        for omega in omegas:
            acc += pdc_at(m, omega)
        assert np.array_equal(net.weights, np.clip(acc / n_grid, 0.0, 1.0))

    def test_degenerate_column_names_frequency(self):
        # unit root at omega = 0, the band's first grid point
        m = VarModel(np.array([[[1.0, 0.0], [0.0, 0.5]]]), np.eye(2))
        with pytest.raises(ValueError, match=r"omega=0\.0: column 1 is zero"):
            pdc_band(m, FrequencyBand("b", 0.0, 10.0), fs_hz=100.0, n_grid=4)

    def test_entries_stay_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = random_stable_var(rng, 5, 2)
            net = pdc_band(m, FrequencyBand("g", 30.0, 50.0), fs_hz=128.0)
            assert net.weights.min() >= 0.0 and net.weights.max() <= 1.0

    def test_band_beyond_nyquist_rejected(self):
        m = VarModel(np.zeros((1, 2, 2)), np.eye(2))
        with pytest.raises(ValueError, match="Nyquist"):
            pdc_band(m, FrequencyBand("hi", 40.0, 60.0), fs_hz=100.0)

    @pytest.mark.parametrize(
        "fs_hz, past_hz",
        [
            (100.0, 50.0 + 5e-13),
            (1000.0 / 3.0, math.nextafter(500.0 / 3.0, math.inf)),
            (0.7, math.nextafter(0.35, math.inf)),
        ],
    )
    def test_nyquist_edge(self, fs_hz, past_hz):
        # (fs/2)/fs is exactly 0.5, so a band ending at Nyquist evaluates there,
        # and one ending any later is refused by the band check alone
        m = random_stable_var(np.random.default_rng(8), 3, 2)
        nyquist = fs_hz / 2
        net = pdc_band(m, FrequencyBand("top", nyquist / 2, nyquist), fs_hz, n_grid=4)
        expected = np.zeros((3, 3))
        for omega in np.linspace(0.25, 0.5, 4).tolist():
            expected += pdc_at(m, omega)
        assert np.allclose(net.weights, expected / 4, atol=1e-15)
        with pytest.raises(ValueError, match=re.escape(f"ends at {past_hz} Hz, beyond Nyquist")):
            pdc_band(m, FrequencyBand("past", nyquist / 2, past_hz), fs_hz, n_grid=4)

    def test_default_labels(self):
        m = VarModel(np.zeros((1, 3, 3)), np.eye(3))
        net = pdc_band(m, DEFAULT_BANDS[0], fs_hz=100.0)
        assert net.labels == ("ch1", "ch2", "ch3")

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(5)
        m = random_stable_var(rng, 4, 2)
        perm = np.array([2, 0, 3, 1])
        m_perm = VarModel(m.coeffs[:, perm][:, :, perm], np.eye(4))
        band = FrequencyBand("b", 5.0, 15.0)
        w = pdc_band(m, band, fs_hz=100.0).weights
        w_perm = pdc_band(m_perm, band, fs_hz=100.0).weights
        assert np.allclose(w_perm, w[perm][:, perm], atol=1e-12)


class TestFrequencyBand:
    def test_default_bands(self):
        names = [b.name for b in DEFAULT_BANDS]
        assert names == ["delta", "alpha", "beta", "gamma"]
        spans = {b.name: (b.low_hz, b.high_hz) for b in DEFAULT_BANDS}
        assert spans["delta"] == (0.0, 4.0)
        assert spans["alpha"] == (8.0, 12.0)
        assert spans["beta"] == (12.0, 30.0)
        assert spans["gamma"] == (30.0, 50.0)

    def test_inverted_band_rejected(self):
        # an infinite high edge lies past every Nyquist frequency
        for low, high in [(10.0, 10.0), (0.1, math.inf)]:
            with pytest.raises(ValueError, match="needs 0 <= low < high < inf"):
                FrequencyBand("bad", low, high)


class TestDirectedNetwork:
    def test_rejects_entries_outside_unit_interval(self):
        with pytest.raises(ValueError):
            DirectedNetwork(np.array([[0.0, 1.2], [0.0, 0.0]]),
                            FrequencyBand("b", 0.0, 1.0), ("a", "b"))

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(6)
        m = random_stable_var(rng, 3, 1)
        net = pdc_band(m, FrequencyBand("b", 1.0, 4.0), fs_hz=20.0)
        back = network_from_dict(network_to_dict(net))
        assert np.array_equal(back.weights, net.weights)
        assert back.band == net.band
        assert back.labels == net.labels
        # int band edges are stored as floats, so they are written back as such
        doc = network_to_dict(net)
        doc["band"].update(low_hz=1, high_hz=4)
        want = json.dumps(network_to_dict(net))
        assert json.dumps(network_to_dict(network_from_dict(doc))) == want


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_column_normalization_property(seed, d, k, omega):
    m = random_stable_var(np.random.default_rng(seed), d, k)
    p = pdc_at(m, omega)
    assert np.max(np.abs((p**2).sum(axis=0) - 1.0)) < 1e-10
