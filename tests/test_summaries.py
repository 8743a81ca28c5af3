import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from dirtda import (
    PersistenceDiagram,
    bottleneck,
    landscape,
    landscape_distance,
    landscape_mean,
    shared_t_max,
    wasserstein,
)
from dirtda import summaries
from dirtda.summaries import landscape_from_dict, landscape_to_dict


def diagram(pairs):
    return PersistenceDiagram(tuple(pairs))


EMPTY = diagram([])
SINGLE = diagram([(1, 1.0, 3.0)])
DOUBLE = diagram([(1, 1.0, 3.0), (1, 1.0, 3.0)])


@st.composite
def small_diagrams(draw, dim=1):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = []
    for _ in range(n):
        b = draw(st.floats(0.0, 5.0, allow_nan=False))
        gap = draw(st.floats(0.01, 5.0, allow_nan=False))
        pairs.append((dim, b, b + gap))
    return diagram(pairs)


@st.composite
def quantized_diagrams(draw, dim=1):
    """Births and lifetimes on a coarse half-unit grid: many ties."""
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = []
    for _ in range(n):
        b = 0.5 * draw(st.integers(0, 6))
        gap = 0.5 * draw(st.integers(1, 4))
        pairs.append((dim, b, b + gap))
    return diagram(pairs)


def oracle_bottleneck(a, b):
    """Smallest radius at which a 0/1 threshold assignment costs nothing.

    Independent of dirtda's matcher: the augmented cost matrix is built
    entry by entry, radii are scanned in increasing order without assuming
    monotonicity, and feasibility is read off an optimal assignment.
    """
    m, n = len(a), len(b)

    def edge(i, j):
        # radius at which row i may pair with column j, None if never
        if i < m and j < n:
            return max(abs(a[i][0] - b[j][0]), abs(a[i][1] - b[j][1]))
        if i < m:
            return (a[i][1] - a[i][0]) / 2.0 if j - n == i else None
        if j < n:
            return (b[j][1] - b[j][0]) / 2.0 if i - m == j else None
        return 0.0

    size = m + n
    radii = {0.0}
    radii.update(
        e for i in range(size) for j in range(size) if (e := edge(i, j)) is not None
    )
    for radius in sorted(radii):
        cost = np.ones((size, size))
        for i in range(size):
            for j in range(size):
                e = edge(i, j)
                if e is not None and e <= radius:
                    cost[i, j] = 0.0
        rows, cols = linear_sum_assignment(cost)
        if cost[rows, cols].sum() == 0.0:
            return radius
    raise AssertionError("no feasible radius")


def oracle_wasserstein(a, b, q):
    """Finite-point q-Wasserstein with the augmented cost matrix built entry by entry."""
    m, n = len(a), len(b)
    if m + n == 0:
        return 0.0
    cost = np.zeros((m + n, m + n))
    for i in range(m):
        for j in range(n):
            cost[i, j] = max(abs(a[i][0] - b[j][0]), abs(a[i][1] - b[j][1])) ** q
    diag_a = [((d - b_) / 2.0) ** q for b_, d in a]
    diag_b = [((d - b_) / 2.0) ** q for b_, d in b]
    big = (cost.sum() + sum(diag_a) + sum(diag_b) + 1.0) * 2
    cost[:m, n:] = big
    cost[m:, :n] = big
    for i in range(m):
        cost[i, n + i] = diag_a[i]
    for j in range(n):
        cost[m + j, j] = diag_b[j]
    rows, cols = linear_sum_assignment(cost)
    return float(float(cost[rows, cols].sum()) ** (1.0 / q))


class TestLandscape:
    def test_empty_diagram_all_zero(self):
        ls = landscape(EMPTY, dim=1, k_max=3, n_grid=64, t_max=1.0)
        assert np.array_equal(ls.levels, np.zeros((3, 64)))

    def test_single_tent_geometry(self):
        ls = landscape(SINGLE, dim=1, k_max=2, n_grid=401, t_max=4.0)
        peak_idx = int(np.argmax(ls.levels[0]))
        assert ls.grid[peak_idx] == pytest.approx(2.0, abs=0.02)
        assert ls.levels[0].max() == pytest.approx(1.0, abs=0.02)
        outside = (ls.grid < 1.0) | (ls.grid > 3.0)
        assert np.all(ls.levels[0][outside] == 0.0)
        assert np.array_equal(ls.levels[1], np.zeros(401))

    def test_duplicate_pair_fills_second_level(self):
        one = landscape(SINGLE, dim=1, k_max=2, n_grid=101, t_max=4.0)
        two = landscape(DOUBLE, dim=1, k_max=2, n_grid=101, t_max=4.0)
        assert np.array_equal(two.levels[0], one.levels[0])
        assert np.array_equal(two.levels[1], one.levels[0])

    def test_infinite_death_truncated(self):
        dia = diagram([(1, 0.5, math.inf)])
        ls = landscape(dia, dim=1, k_max=1, n_grid=201, t_max=2.0)
        # tent of (0.5, 2.0): rises from 0.5, value at t_max is 0
        assert ls.levels[0].max() > 0.0
        assert ls.levels[0][-1] == 0.0

    def test_other_dims_ignored(self):
        dia = diagram([(0, 0.0, 2.0), (1, 1.0, 3.0)])
        ls0 = landscape(dia, dim=0, k_max=1, n_grid=101, t_max=4.0)
        ls1 = landscape(dia, dim=1, k_max=1, n_grid=101, t_max=4.0)
        assert not np.array_equal(ls0.levels, ls1.levels)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pairs = []
            for _ in range(rng.integers(0, 8)):
                b = rng.uniform(0, 3)
                pairs.append((1, b, b + rng.uniform(0.05, 2)))
            ls = landscape(diagram(pairs), dim=1, k_max=4, n_grid=128, t_max=5.0)
            for k in range(3):
                assert np.all(ls.levels[k] >= ls.levels[k + 1])
            assert ls.levels.min() >= 0.0

    def test_lipschitz_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pairs = [(1, b, b + g) for b, g in
                     zip(rng.uniform(0, 3, 5), rng.uniform(0.05, 2, 5))]
            ls = landscape(diagram(pairs), dim=1, k_max=3, n_grid=256, t_max=5.0)
            h = ls.grid[1] - ls.grid[0]
            assert np.max(np.abs(np.diff(ls.levels, axis=1))) <= h + 1e-12

    def test_one_lipschitz_in_diagram(self):
        # moving one pair by delta moves landscape values by at most delta
        delta = 0.05
        base = landscape(SINGLE, dim=1, k_max=1, n_grid=256, t_max=4.0)
        moved = landscape(diagram([(1, 1.0 + delta, 3.0 + delta)]),
                          dim=1, k_max=1, n_grid=256, t_max=4.0)
        assert np.max(np.abs(base.levels - moved.levels)) <= delta + 1e-12


class TestSharedTMax:
    def test_headroom(self):
        assert shared_t_max(SINGLE) == pytest.approx(1.05 * 3.0)

    def test_across_diagrams(self):
        other = diagram([(0, 0.0, 5.0)])
        assert shared_t_max(SINGLE, other) == pytest.approx(1.05 * 5.0)

    def test_fallback_without_finite_deaths(self):
        assert shared_t_max(diagram([(0, 0.0, math.inf)])) == 1.0
        assert shared_t_max(EMPTY) == 1.0

    def test_fallback_when_every_finite_death_is_zero(self):
        zero = diagram([(0, 0.0, 0.0), (0, 0.0, 0.0), (0, 0.0, math.inf)])
        assert shared_t_max(zero) == 1.0
        assert shared_t_max(zero, diagram([(1, 0.0, 0.0)])) == 1.0
        ls = landscape(zero, dim=0, k_max=2, n_grid=8)
        assert ls.grid[-1] == 1.0
        assert ls.levels[1].max() == 0.0

    def test_zero_deaths_do_not_mask_a_positive_one(self):
        zero = diagram([(0, 0.0, 0.0)])
        assert shared_t_max(zero, SINGLE) == pytest.approx(1.05 * 3.0)


class TestLandscapeMean:
    def test_identity(self):
        ls = landscape(SINGLE, dim=1, k_max=2, n_grid=64, t_max=4.0)
        mean = landscape_mean([ls])
        assert np.array_equal(mean.levels, ls.levels)

    def test_with_zero_landscape(self):
        ls = landscape(SINGLE, dim=1, k_max=2, n_grid=64, t_max=4.0)
        zero = landscape(EMPTY, dim=1, k_max=2, n_grid=64, t_max=4.0)
        mean = landscape_mean([ls, zero])
        assert np.allclose(mean.levels, ls.levels / 2.0, atol=1e-15)

    def test_preserves_ordering(self):
        a = landscape(DOUBLE, dim=1, k_max=3, n_grid=64, t_max=4.0)
        b = landscape(diagram([(1, 0.5, 2.5)]), dim=1, k_max=3, n_grid=64, t_max=4.0)
        mean = landscape_mean([a, b])
        assert np.all(mean.levels[0] >= mean.levels[1])
        assert np.all(mean.levels[1] >= mean.levels[2])

    def test_mismatched_grids_rejected(self):
        a = landscape(SINGLE, dim=1, k_max=2, n_grid=64, t_max=4.0)
        b = landscape(SINGLE, dim=1, k_max=2, n_grid=32, t_max=4.0)
        with pytest.raises(ValueError):
            landscape_mean([a, b])


class TestLandscapeDistance:
    def test_self_distance_zero(self):
        ls = landscape(SINGLE, dim=1, k_max=2, n_grid=64, t_max=4.0)
        assert landscape_distance(ls, ls, 2) == 0.0
        assert landscape_distance(ls, ls, math.inf) == 0.0

    def test_symmetric(self):
        a = landscape(SINGLE, dim=1, k_max=2, n_grid=64, t_max=4.0)
        b = landscape(DOUBLE, dim=1, k_max=2, n_grid=64, t_max=4.0)
        assert landscape_distance(a, b, 2) == landscape_distance(b, a, 2)

    def test_sup_distance_to_zero_is_peak(self):
        a = landscape(SINGLE, dim=1, k_max=1, n_grid=4001, t_max=4.0)
        zero = landscape(EMPTY, dim=1, k_max=1, n_grid=4001, t_max=4.0)
        assert landscape_distance(a, zero, math.inf) == pytest.approx(1.0, abs=1e-3)

    def test_unknown_p_rejected(self):
        ls = landscape(SINGLE, dim=1, k_max=1, n_grid=64, t_max=4.0)
        with pytest.raises(ValueError):
            landscape_distance(ls, ls, 3)


class TestBottleneck:
    def test_identical_zero(self):
        assert bottleneck(SINGLE, SINGLE, 1) == 0.0

    def test_single_point_to_empty(self):
        assert bottleneck(diagram([(0, 0.0, 2.0)]), EMPTY, 0) == pytest.approx(1.0)

    def test_direct_match_beats_diagonal(self):
        a = diagram([(0, 0.0, 2.0)])
        b = diagram([(0, 0.5, 2.5)])
        assert bottleneck(a, b, 0) == pytest.approx(0.5)

    def test_empty_vs_empty(self):
        assert bottleneck(EMPTY, EMPTY, 1) == 0.0

    def test_infinite_count_mismatch(self):
        a = diagram([(0, 0.0, math.inf)])
        assert bottleneck(a, EMPTY, 0) == math.inf

    def test_infinite_pairs_matched_by_birth(self):
        a = diagram([(0, 0.0, math.inf), (0, 1.0, math.inf)])
        b = diagram([(0, 0.2, math.inf), (0, 1.5, math.inf)])
        assert bottleneck(a, b, 0) == pytest.approx(0.5)

    def test_dominates_finite_part(self):
        a = diagram([(0, 0.0, math.inf), (0, 0.0, 0.1)])
        b = diagram([(0, 3.0, math.inf), (0, 0.0, 0.1)])
        assert bottleneck(a, b, 0) == pytest.approx(3.0)

    def test_thousand_shifted_points(self):
        # a_i is 0.9 from b_i and 1.1 from b_(i-1): augmenting paths can run the
        # whole chain, deeper than Python's recursion limit for a recursive matcher
        a = diagram([(1, 2.0 * i, 2.0 * i + 1e4) for i in range(1000)])
        b = diagram([(1, 2.0 * i + 0.9, 2.0 * i + 0.9 + 1e4) for i in range(1000)])
        assert bottleneck(a, b, 1) == pytest.approx(0.9, abs=1e-9)

    def test_lower_bound_infeasible(self):
        # lb ~ 0.1 (the second a-point's nearest edge), but both a-points then
        # need the one b-point; the answer sends one of them to the diagonal
        a = diagram([(1, 0.0, 2.0), (1, 0.1, 2.1)])
        b = diagram([(1, 0.0, 2.0)])
        assert bottleneck(a, b, 1) == 1.0

    def test_feasible_lower_bound_needs_one_matching(self, monkeypatch):
        calls, matchable_within = [], summaries._matchable_within

        def counting(radii, radius):
            calls.append(radius)
            return matchable_within(radii, radius)

        monkeypatch.setattr(summaries, "_matchable_within", counting)
        a = diagram([(1, 0.0, 2.0)])
        b = diagram([(1, 0.5, 2.5)])
        assert bottleneck(a, b, 1) == 0.5
        assert calls == [0.5]

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(quantized_diagrams(), small_diagrams()),
        st.one_of(quantized_diagrams(), small_diagrams()),
    )
    def test_matches_assignment_oracle(self, a, b):
        assert bottleneck(a, b, 1) == oracle_bottleneck(a.in_dim(1), b.in_dim(1))


class TestWasserstein:
    def test_identical_zero(self):
        assert wasserstein(SINGLE, SINGLE, 1, 1.0) == 0.0

    def test_single_point_to_empty(self):
        assert wasserstein(diagram([(0, 0.0, 2.0)]), EMPTY, 0, 1.0) == pytest.approx(1.0)

    def test_additive_over_points(self):
        a = diagram([(0, 0.0, 2.0), (0, 0.0, 2.0)])
        assert wasserstein(a, EMPTY, 0, 1.0) == pytest.approx(2.0)

    def test_q2(self):
        a = diagram([(0, 0.0, 2.0), (0, 0.0, 2.0)])
        assert wasserstein(a, EMPTY, 0, 2.0) == pytest.approx(math.sqrt(2.0))

    def test_infinite_count_mismatch(self):
        a = diagram([(1, 0.0, math.inf)])
        assert wasserstein(a, EMPTY, 1, 1.0) == math.inf

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            wasserstein(SINGLE, SINGLE, 1, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(quantized_diagrams(), small_diagrams()),
        st.one_of(quantized_diagrams(), small_diagrams()),
        st.sampled_from([1.0, 2.0, 3.5]),
    )
    # numpy's power rounds this pair's cost (0.39...) ** 3.5 one ulp off Python's
    @example(diagram([(1, 3.72, 7.9)]), diagram([(1, 4.11, 7.86)]), 3.5)
    def test_matches_loop_oracle(self, a, b, q):
        assert wasserstein(a, b, 1, q) == oracle_wasserstein(a.in_dim(1), b.in_dim(1), q)


class TestMetricProperties:
    def make_triple(self, rng):
        out = []
        for _ in range(3):
            pairs = []
            for _ in range(rng.integers(0, 6)):
                b = rng.uniform(0, 3)
                pairs.append((1, b, b + rng.uniform(0.05, 2)))
            out.append(diagram(pairs))
        return out

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            a, b, c = self.make_triple(rng)
            for fn in (bottleneck, lambda x, y, d: wasserstein(x, y, d, 1.0)):
                dab, dba = fn(a, b, 1), fn(b, a, 1)
                assert abs(dab - dba) <= 1e-9
                dac, dcb = fn(a, c, 1), fn(c, b, 1)
                assert dab <= dac + dcb + 1e-9

    def test_bottleneck_below_wasserstein(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            a, b, _ = self.make_triple(rng)
            assert bottleneck(a, b, 1) <= wasserstein(a, b, 1, 1.0) + 1e-9


class TestSerialization:
    def test_round_trip(self):
        ls = landscape(SINGLE, dim=1, k_max=2, n_grid=64, t_max=4.0)
        back = landscape_from_dict(landscape_to_dict(ls))
        assert back.dim == ls.dim
        assert np.array_equal(back.grid, ls.grid)
        assert np.array_equal(back.levels, ls.levels)


@settings(max_examples=30, deadline=None)
@given(small_diagrams(), small_diagrams())
def test_metric_axioms_property(a, b):
    dab = bottleneck(a, b, 1)
    assert dab >= 0.0
    assert abs(dab - bottleneck(b, a, 1)) <= 1e-9
    assert bottleneck(a, a, 1) == 0.0
    assert dab <= wasserstein(a, b, 1, 1.0) + 1e-9


@settings(max_examples=30, deadline=None)
@given(small_diagrams())
def test_landscape_invariants_property(dia):
    t_max = shared_t_max(dia)
    ls = landscape(dia, dim=1, k_max=4, n_grid=128, t_max=t_max)
    assert ls.levels.min() >= 0.0
    for k in range(3):
        assert np.all(ls.levels[k] >= ls.levels[k + 1])
    h = ls.grid[1] - ls.grid[0]
    assert np.max(np.abs(np.diff(ls.levels, axis=1)), initial=0.0) <= h + 1e-12
