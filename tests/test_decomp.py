import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dirtda import (
    DistanceMatrix,
    FrequencyBand,
    DirectedNetwork,
    asym_distance,
    decompose,
)
from dirtda.decomp import decomposition_from_dict, decomposition_to_dict

BAND = FrequencyBand("b", 0.0, 1.0)


def net(w):
    w = np.array(w, dtype=float)
    return DirectedNetwork(w, BAND, tuple(f"n{i}" for i in range(w.shape[0])))


def random_net(rng, d=4):
    return net(rng.uniform(0.0, 1.0, size=(d, d)))


class TestDecompose:
    def test_hand_example(self):
        dec = decompose(net([[0, 1], [0, 0]]))
        assert np.array_equal(dec.w_s, [[0, 0.5], [0.5, 0]])
        assert np.array_equal(dec.w_a, [[0, 0.5], [-0.5, 0]])

    def test_symmetric_input(self):
        w = np.array([[0.2, 0.7], [0.7, 0.4]])
        dec = decompose(net(w))
        assert np.array_equal(dec.w_a, np.zeros((2, 2)))
        assert np.array_equal(dec.w_s, w)

    def test_exact_symmetry_of_parts(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dec = decompose(random_net(rng, 5))
            assert np.array_equal(dec.w_s, dec.w_s.T)
            assert np.array_equal(dec.w_a, -dec.w_a.T)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        n = random_net(rng, 6)
        dec = decompose(n)
        assert np.max(np.abs(dec.w_s + dec.w_a - n.weights)) <= 1e-12

    def test_orthogonality_and_pythagoras(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = random_net(rng, 5)
            dec = decompose(n)
            inner = float((dec.w_s * dec.w_a).sum())
            assert abs(inner) <= 1e-10
            lhs = np.linalg.norm(n.weights, "fro") ** 2
            rhs = np.linalg.norm(dec.w_s, "fro") ** 2 + np.linalg.norm(dec.w_a, "fro") ** 2
            assert abs(lhs - rhs) <= 1e-9

    def test_idempotence_on_symmetric_part(self):
        rng = np.random.default_rng(3)
        dec = decompose(random_net(rng, 4))
        again = decompose(net(dec.w_s))
        assert np.array_equal(again.w_a, np.zeros((4, 4)))


class TestAsymDistance:
    def test_hand_example(self):
        dist = asym_distance(decompose(net([[0, 1], [0, 0]])))
        assert np.array_equal(dist.dist, [[0, 0.5], [0.5, 0]])

    def test_symmetric_network_gives_zero(self):
        w = np.array([[0.2, 0.7], [0.7, 0.4]])
        dist = asym_distance(decompose(net(w)))
        assert np.array_equal(dist.dist, np.zeros((2, 2)))

    def test_range_bound_for_unit_weights(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dist = asym_distance(decompose(random_net(rng, 5)))
            assert dist.dist.max() <= 0.5

    def test_satisfies_distance_matrix_invariants(self):
        # construction re-runs DistanceMatrix validation: symmetric,
        # nonnegative, zero diagonal, finite
        rng = np.random.default_rng(5)
        dist = asym_distance(decompose(random_net(rng, 6)))
        assert isinstance(dist, DistanceMatrix)
        assert dist.labels == tuple(f"n{i}" for i in range(6))


def residual(dec, candidate):
    """Frobenius distance from the source W to a symmetric candidate."""
    return float(np.linalg.norm(dec.source.weights - candidate, "fro"))


class TestProjectionResidual:
    def test_residual_at_ws_is_wa_norm(self):
        rng = np.random.default_rng(6)
        n = random_net(rng, 5)
        dec = decompose(n)
        assert residual(dec, dec.w_s) == pytest.approx(
            np.linalg.norm(dec.w_a, "fro"), abs=1e-12
        )

    def test_zero_candidate_on_symmetric_w(self):
        w = np.array([[0.2, 0.7], [0.7, 0.4]])
        dec = decompose(net(w))
        at_zero = residual(dec, np.zeros((2, 2)))
        at_ws = residual(dec, dec.w_s)
        assert at_zero == pytest.approx(np.linalg.norm(w, "fro"), abs=1e-12)
        assert at_zero > at_ws

    def test_randomized_optimality(self):
        rng = np.random.default_rng(7)
        n = random_net(rng, 5)
        dec = decompose(n)
        best = residual(dec, dec.w_s)
        for _ in range(100):
            half = rng.uniform(-1, 1, size=(5, 5))
            cand = (half + half.T) / 2.0
            assert best <= residual(dec, cand) + 1e-12

class TestDistanceMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, 1.0], [0.9, 0.0]]), ("a", "b"))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]), ("a", "b"))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]), ("a", "b"))


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        dec = decompose(random_net(rng, 4))
        back = decomposition_from_dict(decomposition_to_dict(dec))
        assert np.array_equal(back.w_s, dec.w_s)
        assert np.array_equal(back.w_a, dec.w_a)

    def test_tampered_parts_rejected(self):
        rng = np.random.default_rng(9)
        doc = decomposition_to_dict(decompose(random_net(rng, 3)))
        doc["w_s"][0][1] += 0.1
        with pytest.raises(ValueError):
            decomposition_from_dict(doc)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 6)).map(lambda t: (t[0], t[0])),
        elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
    )
)
def test_decomposition_properties(w):
    dec = decompose(net(w))
    assert np.max(np.abs(dec.w_s + dec.w_a - w)) <= 1e-12
    assert np.array_equal(dec.w_s, dec.w_s.T)
    assert np.array_equal(dec.w_a, -dec.w_a.T)
    dist = asym_distance(dec)
    assert dist.dist.min() >= 0.0
    assert np.array_equal(np.diag(dist.dist), np.zeros(w.shape[0]))
