import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtda import (
    DistanceMatrix,
    PersistenceDiagram,
    load_diagram,
    persistence,
    rips_filtration,
    save_diagram,
    total_persistence,
)
from dirtda.homology import _coboundaries, diagram_from_dict, diagram_to_dict

import reference_reduction
from naive_homology import naive_persistence


def dm(entries):
    d = np.array(entries, dtype=float)
    return DistanceMatrix(d, tuple(f"n{i}" for i in range(d.shape[0])))


UNIT_TRIANGLE = dm([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
# 4-cycle: adjacent nodes at 1, diagonals at 2
SQUARE = dm(
    [
        [0, 1, 2, 1],
        [1, 0, 1, 2],
        [2, 1, 0, 1],
        [1, 2, 1, 0],
    ]
)


def random_distance_matrix(rng, n, values=(0.2, 0.4, 0.6, 0.8, 1.0)):
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = rng.choice(values)
    return dm(d)


def entry_value(dist, verts):
    return max((float(dist[i, j]) for i, j in combinations(verts, 2)), default=0.0)


class TestRipsFiltration:
    def test_unit_triangle_enumeration(self):
        f = rips_filtration(UNIT_TRIANGLE, max_dim=1)
        assert [len(v) for v in f.vertices] == [3, 3, 1]
        assert f.values[0].tolist() == [0.0, 0.0, 0.0]
        assert f.values[1].tolist() == [1.0, 1.0, 1.0]
        assert f.vertices[2].tolist() == [[0, 1, 2]] and f.values[2].tolist() == [1.0]

    def test_single_node(self):
        f = rips_filtration(dm([[0.0]]), max_dim=1)
        assert [len(v) for v in f.vertices] == [1, 0, 0]
        assert f.vertices[0].tolist() == [[0]]

    def test_all_zero_distances(self):
        # the radius is 0 and nothing is cut: the full 3-skeleton on 4 nodes
        f = rips_filtration(dm(np.zeros((4, 4))), max_dim=2)
        assert f.radius == 0.0
        assert [len(v) for v in f.vertices] == [4, 6, 4, 1]
        assert all(not values.any() for values in f.values)

    def test_face_before_coface(self):
        # each dimension is ordered by (value, lexicographic vertices), and in
        # the (value, dimension, rank) order every facet precedes its simplex
        f = rips_filtration(SQUARE, max_dim=2)
        position = {}
        for k, (verts, values) in enumerate(zip(f.vertices, f.values)):
            keys = [(v, tuple(s)) for v, s in zip(values.tolist(), verts.tolist())]
            assert keys == sorted(keys)
            for rank, (value, simplex) in enumerate(keys):
                assert value == entry_value(SQUARE.dist, simplex)
                position[simplex] = (value, k, rank)
        for simplex, pos in position.items():
            if len(simplex) > 1:
                for face in combinations(simplex, len(simplex) - 1):
                    assert position[face] < pos

    def test_simplex_count_includes_cofaces(self):
        # killing dim-2 features needs 3-simplices: sizes 1..4 of 5 nodes,
        # less those entering after the enclosing radius (here 0.8, which
        # cuts the two edges at 1.0 and their cofaces)
        mat = random_distance_matrix(np.random.default_rng(0), 5)
        f = rips_filtration(mat, 2)
        assert f.radius == 0.8
        expected = [
            sum(
                1
                for verts in combinations(range(5), size)
                if entry_value(mat.dist, verts) <= f.radius
            )
            for size in range(1, 5)
        ]
        assert [len(v) for v in f.vertices] == expected
        assert sum(expected) < 5 + 10 + 10 + 5

    @pytest.mark.parametrize("bad", [0, 3, -1])
    def test_max_dim_domain(self, bad):
        with pytest.raises(ValueError):
            rips_filtration(UNIT_TRIANGLE, max_dim=bad)


class TestPersistenceHandComputed:
    def test_unit_triangle(self):
        dia = persistence(rips_filtration(UNIT_TRIANGLE, max_dim=2))
        assert dia.pairs == (
            (0, 0.0, 1.0),
            (0, 0.0, 1.0),
            (0, 0.0, math.inf),
        )

    def test_square_cycle(self):
        dia = persistence(rips_filtration(SQUARE, max_dim=2))
        assert dia.pairs == (
            (0, 0.0, 1.0),
            (0, 0.0, 1.0),
            (0, 0.0, 1.0),
            (0, 0.0, math.inf),
            (1, 1.0, 2.0),
        )

    def test_isolated_nodes_single_merge_scale(self):
        n, dist = 5, 0.7
        mat = np.full((n, n), dist)
        np.fill_diagonal(mat, 0.0)
        dia = persistence(rips_filtration(dm(mat), max_dim=2))
        finite = [p for p in dia.pairs if p[0] == 0 and math.isfinite(p[2])]
        assert len(finite) == n - 1
        assert all(p == (0, 0.0, dist) for p in finite)
        assert (0, 0.0, math.inf) in dia.pairs


class TestPersistenceInvariants:
    def test_dim0_count_equals_nodes(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 7):
            dia = persistence(rips_filtration(random_distance_matrix(rng, n), 1))
            assert len(dia.in_dim(0)) == n

    def test_no_zero_persistence_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dia = persistence(rips_filtration(random_distance_matrix(rng, 6), 2))
            for _, birth, death in dia.pairs:
                assert death > birth

    def test_single_infinite_dim0_pair(self):
        rng = np.random.default_rng(5)
        dia = persistence(rips_filtration(random_distance_matrix(rng, 6), 2))
        essential = [p for p in dia.pairs if math.isinf(p[2])]
        assert essential == [(0, 0.0, math.inf)]

    def test_deterministic(self):
        mat = random_distance_matrix(np.random.default_rng(6), 6)
        assert persistence(rips_filtration(mat, 2)).pairs == persistence(
            rips_filtration(mat, 2)
        ).pairs


class TestOracleEquivalence:
    """The reduction must agree exactly with the rank-based oracle."""

    @pytest.mark.parametrize("max_dim", [1, 2])
    def test_small_random_matrices(self, max_dim):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            mat = random_distance_matrix(rng, n)
            got = list(persistence(rips_filtration(mat, max_dim)).pairs)
            assert got == naive_persistence(mat.dist, max_dim)

    def test_heavy_ties(self):
        # only two distinct positive distances force many simultaneous events
        rng = np.random.default_rng(8)
        for _ in range(20):
            mat = random_distance_matrix(rng, 6, values=(0.5, 1.0))
            got = list(persistence(rips_filtration(mat, 2)).pairs)
            assert got == naive_persistence(mat.dist, 2)

    def test_continuous_distances(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            raw = rng.uniform(0.1, 1.0, size=(n, n))
            mat = dm(np.triu(raw, 1) + np.triu(raw, 1).T)
            got = list(persistence(rips_filtration(mat, 2)).pairs)
            assert got == naive_persistence(mat.dist, 2)


class TestStability:
    def test_bottleneck_under_perturbation(self):
        # matched births/deaths move by at most the entrywise perturbation
        from dirtda import bottleneck

        rng = np.random.default_rng(10)
        delta = 0.01
        for _ in range(10):
            raw = rng.uniform(0.2, 1.0, size=(8, 8))
            base = np.triu(raw, 1) + np.triu(raw, 1).T
            noise = rng.uniform(-delta, delta, size=(8, 8))
            noise = np.triu(noise, 1) + np.triu(noise, 1).T
            a = persistence(rips_filtration(dm(base), 2))
            b = persistence(rips_filtration(dm(np.clip(base + noise, 0, None)), 2))
            for dim in (0, 1, 2):
                assert bottleneck(a, b, dim) <= delta + 1e-12


def betti_at(diagram, epsilon, dim):
    """Number of dim-classes alive at scale epsilon (born <= epsilon < death)."""
    return sum(1 for k, b, d in diagram.pairs if k == dim and b <= epsilon < d)


class TestBettiAt:
    def test_unit_triangle_before_merge(self):
        dia = persistence(rips_filtration(UNIT_TRIANGLE, 2))
        assert betti_at(dia, 0.5, 0) == 3

    def test_unit_triangle_after_merge(self):
        dia = persistence(rips_filtration(UNIT_TRIANGLE, 2))
        assert betti_at(dia, 1.0, 0) == 1

    def test_square_cycle_alive(self):
        dia = persistence(rips_filtration(SQUARE, 2))
        assert betti_at(dia, 1.5, 1) == 1



def line_metric(s):
    """|s_p - s_q|: the metric of points on a line, exactly symmetric."""
    s = np.asarray(s, dtype=float)
    return dm(np.abs(s[:, None] - s[None, :]))


def line_pairs(s):
    """A line metric's diagram: its Rips complexes are clique complexes of
    interval graphs, which are chordal, so there is no pair in dimension
    >= 1, and the finite dimension-0 deaths are the positive gaps between
    consecutive points, the single-linkage tree of the line."""
    gaps = np.diff(np.sort(np.asarray(s, dtype=float)))
    deaths = sorted(gaps[gaps > 0].tolist())
    return tuple((0, 0.0, g) for g in deaths) + ((0, 0.0, math.inf),)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=32),
        st.lists(st.integers(min_value=-4, max_value=4).map(float), min_size=3, max_size=32),
    ),
    st.sampled_from([1, 2]),
)
def test_line_metric_property(s, max_dim):
    assert persistence(rips_filtration(line_metric(s), max_dim)).pairs == line_pairs(s)


def test_line_metric_d128():
    s = np.random.default_rng(128).standard_normal(128)
    assert persistence(rips_filtration(line_metric(s), 1)).pairs == line_pairs(s)


class TestTotalPersistence:
    def test_square_h1(self):
        dia = persistence(rips_filtration(SQUARE, 2))
        assert total_persistence(dia, 1) == 1.0

    def test_ignores_infinite(self):
        dia = persistence(rips_filtration(UNIT_TRIANGLE, 2))
        assert total_persistence(dia, 0) == 2.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        dia = persistence(rips_filtration(SQUARE, 2))
        path = tmp_path / "dia.json"
        save_diagram(dia, str(path))
        assert load_diagram(str(path)).pairs == dia.pairs

    def test_infinite_encoded_as_string(self):
        dia = persistence(rips_filtration(UNIT_TRIANGLE, 2))
        doc = diagram_to_dict(dia)
        deaths = [p["death"] for p in doc["pairs"]]
        assert "inf" in deaths
        assert json.loads(json.dumps(doc)) == doc
        assert diagram_from_dict(doc).pairs == dia.pairs

    @pytest.mark.parametrize(
        "pair, message",
        [
            ({"dim": -1, "birth": 0.1, "death": 0.3}, "dim must be a non-negative integer"),
            ({"dim": 1.5, "birth": 0.1, "death": 0.3}, "dim must be a non-negative integer"),
            ({"dim": "1", "birth": 0.1, "death": 0.3}, "dim must be a non-negative integer"),
            ({"dim": True, "birth": 0.1, "death": 0.3}, "dim must be a non-negative integer"),
            ({"dim": 1, "birth": math.inf, "death": "inf"}, "birth must be finite"),
            ({"dim": 1, "birth": math.nan, "death": 0.3}, "birth must be finite"),
            ({"dim": 1, "birth": 0.1, "death": math.nan}, "death must not be NaN"),
            ({"dim": 1, "birth": 0.4, "death": 0.1}, "death 0.1 is below birth 0.4"),
            ({"dim": 0, "birth": 0.4, "death": -math.inf}, "death -inf is below birth 0.4"),
            # only a death of "inf" is read from a string
            ({"dim": 1, "birth": "inf", "death": "inf"}, "birth must be a number, got 'inf'"),
            ({"dim": 1, "birth": "nan", "death": 0.3}, "birth must be a number, got 'nan'"),
            ({"dim": 1, "birth": 0.1, "death": "nan"}, "death must be a number, got 'nan'"),
            ({"dim": 0, "birth": 0.4, "death": "-inf"}, "death must be a number, got '-inf'"),
            ({"dim": 1, "birth": False, "death": 0.3}, "birth must be a number, got False"),
        ],
    )
    def test_invalid_pair_rejected_with_its_index(self, pair, message):
        doc = {"pairs": [{"dim": 0, "birth": 0.0, "death": "inf"}, pair]}
        with pytest.raises(ValueError, match=f"^diagram pair 1: {message}"):
            diagram_from_dict(doc)

    def test_zero_persistence_pair_accepted(self):
        doc = {"pairs": [{"dim": 2, "birth": 0.5, "death": 0.5}]}
        assert diagram_from_dict(doc).pairs == ((2, 0.5, 0.5),)

    @pytest.mark.parametrize(
        "pair, message",
        [
            ((1, 0.4, 0.1), "death 0.1 is below birth 0.4"),
            ((1, math.nan, 0.3), "birth must be finite, got nan"),
            ((1, 0.1, math.nan), "death must not be NaN"),
            ((True, 0.1, 0.3), "dim must be a non-negative integer, got True"),
            ((-1, 0.1, 0.3), "dim must be a non-negative integer, got -1"),
            ((1, None, 2.0), "birth must be a number, got None"),
        ],
    )
    def test_invalid_pair_rejected_when_built(self, pair, message):
        # a diagram built in Python used to take these: (1, 0.4, 0.1) gave a
        # negative Wasserstein distance and a NaN birth a NaN bottleneck
        with pytest.raises(ValueError, match=f"^diagram pair 1: {message}"):
            PersistenceDiagram(((0, 0.0, math.inf), pair))

    def test_pairs_stored_sorted(self):
        dia = PersistenceDiagram([[1, 0.5, 2.0], (0, 0.0, math.inf), (1, 0.2, 1.5), (0, 0.0, 1.0)])
        assert dia.pairs == ((0, 0.0, 1.0), (0, 0.0, math.inf), (1, 0.2, 1.5), (1, 0.5, 2.0))
        assert dia == PersistenceDiagram(dia.pairs[::-1])


class TestInDim:
    DIAGRAM = PersistenceDiagram(((0, 0.0, math.inf), (1, 0.2, 0.5)))

    @pytest.mark.parametrize("dim", [-1, True, 1.0, "1", None])
    def test_bad_dim_rejected(self, dim):
        # total_persistence read True and 1.0 as 1, and -1 as an empty dim
        message = f"dim must be a non-negative integer, got {dim!r}"
        for of_dim in (self.DIAGRAM.in_dim, lambda k: total_persistence(self.DIAGRAM, k)):
            with pytest.raises(ValueError, match=message):
                of_dim(dim)

    def test_dim_above_every_pair_is_empty(self):
        assert self.DIAGRAM.in_dim(1) == ((0.2, 0.5),)
        assert self.DIAGRAM.in_dim(7) == ()


@pytest.mark.parametrize("m", [0, 256, 257, 65_536, 65_537])
def test_coboundaries_match_the_int64_argsort(m):
    # the narrowed sort key switches from uint8 to uint16 above m = 256 and
    # from uint16 (radix sort) to uint32 above m = 65,536
    rng = np.random.default_rng(m)
    facets = rng.integers(0, max(m, 1), size=(2 * m, 3), dtype=np.int64)
    if m:
        facets[rng.integers(len(facets)), 0] = m - 1
    flat = facets.ravel()
    cobound, start = _coboundaries(facets, m)
    assert cobound.dtype == np.intp
    np.testing.assert_array_equal(cobound, np.argsort(flat, kind="stable") // 3)
    np.testing.assert_array_equal(start[1:], np.cumsum(np.bincount(flat, minlength=m)))
    assert start[0] == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_equivalence_property(n, seed):
    rng = np.random.default_rng(seed)
    mat = random_distance_matrix(rng, n)
    assert list(persistence(rips_filtration(mat, 2)).pairs) == naive_persistence(
        mat.dist, 2
    )


def reference_pairs(mat, max_dim):
    return reference_reduction.persistence(
        reference_reduction.rips_filtration(mat, max_dim)
    ).pairs


def metric(rng, n, kind):
    """Symmetric zero-diagonal metric of one of four kinds.

    "continuous": uniform distances, no ties; "quantised": 2-3 distinct
    values; "zero": all distances 0; "radius": node 0 has eccentricity 0.5
    and the others mostly sit at 0.5 too, so many simplices enter exactly
    at the enclosing radius and some enter after it.
    """
    if kind == "continuous":
        raw = rng.uniform(0.05, 1.0, size=(n, n))
    elif kind == "quantised":
        levels = rng.uniform(0.1, 1.0, size=int(rng.integers(2, 4)))
        raw = rng.choice(levels, size=(n, n))
    elif kind == "zero":
        raw = np.zeros((n, n))
    else:
        raw = rng.choice([0.25, 0.5, 0.5, 0.5, 0.75], size=(n, n))
        raw[0, :] = rng.choice([0.25, 0.5], size=n)
        raw[0, -1] = 0.5
    upper = np.triu(raw, 1)
    return dm(upper + upper.T)


KINDS = ["continuous", "quantised", "zero", "radius"]


class TestReferenceReduction:
    """Pairs must equal those of the boundary reduction the cohomology replaced."""

    @pytest.mark.parametrize("max_dim", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny(self, n, kind, max_dim):
        for seed in range(5):
            mat = metric(np.random.default_rng(seed), n, kind)
            assert persistence(rips_filtration(mat, max_dim)).pairs == reference_pairs(
                mat, max_dim
            )

    def test_d24_continuous(self):
        mat = metric(np.random.default_rng(24), 24, "continuous")
        assert persistence(rips_filtration(mat, 2)).pairs == reference_pairs(mat, 2)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from(KINDS),
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reference_reduction_property(n, kind, max_dim, seed):
    mat = metric(np.random.default_rng(seed), n, kind)
    assert persistence(rips_filtration(mat, max_dim)).pairs == reference_pairs(
        mat, max_dim
    )
