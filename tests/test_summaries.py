import decimal
import importlib.machinery
import itertools
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import dirtda
import reference_matching
from dirtda import (
    PersistenceDiagram,
    PersistenceLandscape,
    bottleneck,
    landscape,
    landscape_distance,
    shared_t_max,
    wasserstein,
)
from dirtda import summaries
from dirtda.pipeline import diagram_distances


def diagram(pairs):
    return PersistenceDiagram(tuple(pairs))


EMPTY = diagram([])
SINGLE = diagram([(1, 1.0, 3.0)])
DOUBLE = diagram([(1, 1.0, 3.0), (1, 1.0, 3.0)])
# dim-1 points of two compare-d32 diagrams, whose radii raised to q = 400
# leave the float range
COMPARE_A = diagram([
    (1, 0.002462481673691617, 0.006690128383216833),
    (1, 0.005764543392077044, 0.009327145484454439),
    (1, 0.006090224663312481, 0.010353711418382558),
])
COMPARE_B = diagram([
    (1, 0.001633648251335378, 0.0020064215588264517),
    (1, 0.0031164148311026716, 0.005399589610752304),
    (1, 0.0036499208459552686, 0.006005786075968987),
    (1, 0.004575444258147101, 0.009755164191784262),
    (1, 0.007407418550162272, 0.009284732133060206),
])


def clear_pair_caches():
    """Empty the cache that the two distances of one pair share, so a pair
    equal to an earlier one is worked out afresh."""
    summaries._matching.cache_clear()


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


def enumerated_wasserstein(a, b, q):
    """Finite-point q-Wasserstein as the least q-norm over every permutation
    of the augmented radius matrix, built entry by entry.

    Each matching's norm is its largest radius times the norm of its radii
    divided by it, so no power leaves the float range at any q. Independent
    of any assignment solver; for small diagrams only, as an augmented size
    n has n! permutations.
    """
    m, n = len(a), len(b)
    size = m + n
    if size == 0:
        return 0.0
    radii = np.full((size, size), math.inf)
    for i in range(size):
        for j in range(size):
            if i < m and j < n:
                radii[i, j] = max(abs(a[i][0] - b[j][0]), abs(a[i][1] - b[j][1]))
            elif i < m and j - n == i:
                radii[i, j] = (a[i][1] - a[i][0]) / 2.0
            elif i >= m and j < n and i - m == j:
                radii[i, j] = (b[j][1] - b[j][0]) / 2.0
            elif i >= m and j >= n:
                radii[i, j] = 0.0
    perms = np.array(list(itertools.permutations(range(size))))
    matched = radii[np.arange(size), perms]
    matched = matched[np.isfinite(matched).all(axis=1)]
    top = matched.max(axis=1)
    scaled = matched / np.where(top > 0, top, 1.0)[:, None]
    return float((top * (scaled**q).sum(axis=1) ** (1.0 / q)).min())


def decimal_wasserstein(a, b, q):
    """Finite-point q-Wasserstein in decimal arithmetic, whose exponent
    range (10^±999999) no power of a float radius leaves.

    Each point of a goes to a point of b or to the diagonal, by dynamic
    programming over the subsets of b already taken; the points of b left
    over go to the diagonal. Independent of any assignment solver.
    """
    q = decimal.Decimal(q)
    to_b = [[decimal.Decimal(max(abs(x[0] - y[0]), abs(x[1] - y[1]))) ** q for y in b] for x in a]
    diag_a = [decimal.Decimal((d - b_) / 2.0) ** q for b_, d in a]
    diag_b = [decimal.Decimal((d - b_) / 2.0) ** q for b_, d in b]
    best = {0: decimal.Decimal(0)}
    for i in range(len(a)):
        step = {}
        for taken, total in best.items():
            options = [(taken, diag_a[i])]
            options += [(taken | 1 << j, c) for j, c in enumerate(to_b[i]) if not taken >> j & 1]
            for key, cost in options:
                if key not in step or total + cost < step[key]:
                    step[key] = total + cost
        best = step
    total = min(
        sum((c for j, c in enumerate(diag_b) if not taken >> j & 1), total)
        for taken, total in best.items()
    )
    return float(total ** (1 / q)) if total else 0.0


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


@pytest.fixture
def probes(monkeypatch):
    """Radii at which bottleneck checks for a perfect matching, in call order."""
    calls, matchable_within = [], summaries._matchable_within

    def counting(radii, radius):
        calls.append(radius)
        return matchable_within(radii, radius)

    monkeypatch.setattr(summaries, "_matchable_within", counting)
    # a radius cached for an equal pair would need no check at all
    clear_pair_caches()
    return calls


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

    def test_lower_bound_infeasible(self, probes):
        # lb ~ 0.1 (the second a-point's nearest edge), but both a-points then
        # need the one b-point; the answer sends one of them to the diagonal
        a = diagram([(1, 0.0, 2.0), (1, 0.1, 2.1)])
        b = diagram([(1, 0.0, 2.0)])
        assert bottleneck(a, b, 1) == 1.0
        # the lower bound, then the diagonal bound; no edge radius lies between
        assert probes == [0.10000000000000009, 1.0]

    def test_search_probes_candidates_in_binary_search_order(self, probes):
        # lb = 1.0 fails and ub = 4.0 holds; the candidates in (lb, ub] are
        # 1.5, 2.0, ..., 4.0, and the search halves them from both sides
        a = diagram([(1, 3.0, 9.0), (1, 3.0, 11.0), (1, 5.0, 10.0), (1, 7.0, 10.0)])
        b = diagram([(1, 3.0, 10.0), (1, 6.0, 9.0)])
        assert bottleneck(a, b, 1) == 3.0
        assert probes == [1.0, 4.0, 2.5, 3.5, 3.0]

    def test_feasible_lower_bound_needs_one_matching(self, probes):
        a = diagram([(1, 0.0, 2.0)])
        b = diagram([(1, 0.5, 2.5)])
        assert bottleneck(a, b, 1) == 0.5
        assert probes == [0.5]

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(quantized_diagrams(), small_diagrams()),
        st.one_of(quantized_diagrams(), small_diagrams()),
    )
    def test_matches_assignment_oracle(self, a, b):
        assert bottleneck(a, b, 1) == oracle_bottleneck(a.in_dim(1), b.in_dim(1))


@st.composite
def radius_matrices(draw):
    """A square radius matrix and a threshold: tie-heavy or continuous
    entries, some inf, and a threshold that is often equal to an entry."""
    n = draw(st.integers(min_value=0, max_value=9))
    value = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, math.inf]),
        st.floats(0.0, 3.0, allow_nan=False),
    )
    radii = np.array(draw(st.lists(value, min_size=n * n, max_size=n * n)), dtype=float)
    radii = radii.reshape(n, n)
    finite = radii[np.isfinite(radii)].tolist()
    if finite:
        radius = draw(st.one_of(st.sampled_from(finite), st.floats(0.0, 3.0)))
    else:
        radius = draw(st.floats(0.0, 3.0))
    return radii, radius


@settings(max_examples=200, deadline=None)
@given(radius_matrices())
@example((np.zeros((0, 0)), 0.0))
@example((np.full((3, 3), math.inf), 1.0))
@example((np.array([[0.5, math.inf], [0.5, math.inf]]), 0.5))
@example((np.array([[1.0, 0.5], [0.5, math.inf]]), 0.5))
def test_matchable_within_agrees_with_hopcroft_karp(case):
    radii, radius = case
    assert summaries._matchable_within(radii, radius) == reference_matching.matchable_within(
        radii, radius
    )


def run_python(script):
    """Run script in a fresh interpreter that imports this checkout's dirtda.

    This module imports scipy.optimize, and in a process that has it the
    solver is taken from there, so the direct load is only seen afresh.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirtda.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_scipy_loaded_only_by_first_distance():
    # a module-level scipy import anywhere in dirtda puts ~0.5 s back into
    # the start-up of every command, distance or not; and a distance needs
    # only the solver's own module, not the ~320 of scipy.optimize
    run_python(
        "import sys\n"
        "import dirtda, dirtda.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy on import'\n"
        "a = dirtda.PersistenceDiagram(((1, 0.0, 2.0),))\n"
        "b = dirtda.PersistenceDiagram(((1, 0.5, 2.5),))\n"
        "dirtda.bottleneck(a, b, 1)\n"
        "dirtda.wasserstein(a, b, 1)\n"
        "loaded = [m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


# square costs of sizes 0-11 with ~40% inf entries and a finite diagonal,
# so that every one has a finite assignment
RANDOM_COSTS = """
import numpy as np
rng = np.random.default_rng(7)
costs = []
for n in range(12):
    cost = rng.uniform(0.0, 1.0, (n, n))
    cost[rng.uniform(size=(n, n)) < 0.4] = np.inf
    np.fill_diagonal(cost, rng.uniform(0.0, 1.0, n))
    costs.append(cost)
"""

SAME_ASSIGNMENTS = """
for cost in costs:
    rows, cols = summaries._solver()(cost)
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols), cost
"""


def test_later_scipy_optimize_import_reuses_the_solver():
    run_python(
        RANDOM_COSTS
        + "import sys\n"
        "import dirtda\n"
        "from dirtda import summaries\n"
        "a = dirtda.PersistenceDiagram(((1, 0.0, 2.0), (1, 0.5, 1.5)))\n"
        "b = dirtda.PersistenceDiagram(((1, 0.2, 2.1),))\n"
        "dirtda.wasserstein(a, b, 1)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize\n"
        "from scipy.optimize import linear_sum_assignment\n"
        "assert linear_sum_assignment is summaries._solver()\n"
        + SAME_ASSIGNMENTS
    )


@pytest.mark.parametrize("found", ["nothing", "unloadable"])
def test_solver_falls_back_to_scipy_optimize(tmp_path, found):
    # a scipy whose compiled module is elsewhere, or is not an extension
    # this interpreter can load, is imported whole
    bogus = tmp_path / ("_lsap" + importlib.machinery.EXTENSION_SUFFIXES[0])
    bogus.write_text("not an extension module")
    lsap_file = None if found == "nothing" else str(bogus)
    run_python(
        RANDOM_COSTS
        + "import sys\n"
        "from dirtda import summaries\n"
        f"summaries._lsap_file = lambda: {lsap_file!r}\n"
        "summaries._solver()(costs[3])\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "from scipy.optimize import linear_sum_assignment\n"
        "assert summaries._solver() is linear_sum_assignment\n"
        + SAME_ASSIGNMENTS
    )


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(quantized_diagrams(), small_diagrams()),
    st.one_of(quantized_diagrams(), small_diagrams()),
    st.lists(st.floats(0.0, 5.0), max_size=2),
    st.lists(st.floats(0.0, 5.0), max_size=2),
    st.sampled_from([1.0, 2.5]),
)
def test_diagram_distances_build_one_matrix(a, b, births_a, births_b, q):
    a = diagram(a.pairs + tuple((1, x, math.inf) for x in births_a))
    b = diagram(b.pairs + tuple((1, y, math.inf) for y in births_b))
    t_max = shared_t_max(a, b)
    ls_a, ls_b = landscape(a, 1, t_max=t_max), landscape(b, 1, t_max=t_max)
    builds, edge_radii = [], summaries._edge_radii

    def counting(fin_a, fin_b):
        builds.append(len(fin_a) + len(fin_b))
        return edge_radii(fin_a, fin_b)

    # a pair equal to the last example's would find its matrix cached
    clear_pair_caches()
    with mock.patch.object(summaries, "_edge_radii", counting):
        got = diagram_distances(a, b, ls_a, ls_b, 1, q)
    # the essential counts differ exactly when no matrix is needed
    assert len(builds) == (0 if len(births_a) != len(births_b) else 1)
    for name, value in (("bottleneck", bottleneck(a, b, 1)), ("wasserstein", wasserstein(a, b, 1, q))):
        assert repr(got[name]) == repr(value if math.isfinite(value) else "inf")


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(quantized_diagrams(), small_diagrams()),
    st.one_of(quantized_diagrams(), small_diagrams()),
)
# the compare-d32 pair takes the bounded solve at q = 400, which used to
# search the bottleneck radius a second time
@example(COMPARE_A, COMPARE_B)
def test_large_q_searches_the_bottleneck_radius_once(a, b):
    t_max = shared_t_max(a, b)
    ls_a, ls_b = landscape(a, 1, t_max=t_max), landscape(b, 1, t_max=t_max)
    checks, matchable_within = [], summaries._matchable_within

    def counting(radii, radius):
        checks.append(radius)
        return matchable_within(radii, radius)

    for q in (1.0, 400.0):
        clear_pair_caches()
        del checks[:]
        with mock.patch.object(summaries, "_matchable_within", counting):
            got = diagram_distances(a, b, ls_a, ls_b, 1, q)
        if q == 1.0:
            at_q1 = list(checks)
        assert checks == at_q1
        # the same values as each distance worked out alone
        for name, distance in (
            ("bottleneck", lambda: bottleneck(a, b, 1)),
            ("wasserstein", lambda: wasserstein(a, b, 1, q)),
        ):
            clear_pair_caches()
            value = distance()
            assert repr(got[name]) == repr(value if math.isfinite(value) else "inf")


def test_cached_matching_keeps_dim_types_apart():
    # True == 1 and hash(True) == hash(1): an untyped cache would hand the
    # dim-1 matrix to a bool dim instead of refusing it
    assert wasserstein(SINGLE, DOUBLE, 1) == 1.0
    with pytest.raises(ValueError, match="dim must be a non-negative integer, got True"):
        wasserstein(SINGLE, DOUBLE, True)


def test_cached_matching_gives_equal_diagrams_one_value():
    # int and float births are equal keys to the cache, so the gaps it
    # hands back are floats whichever diagram filled it
    ints = diagram([(1, 0, math.inf)]), diagram([(1, 2, math.inf)])
    floats = diagram([(1, 0.0, math.inf)]), diagram([(1, 2.0, math.inf)])
    clear_pair_caches()
    assert repr(bottleneck(*ints, 1)) == repr(bottleneck(*floats, 1)) == "2.0"


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(quantized_diagrams(), small_diagrams()),
    st.one_of(quantized_diagrams(), small_diagrams()),
    st.one_of(quantized_diagrams(), small_diagrams()),
)
def test_cached_matching_does_not_leak_into_the_next_pair(a, b, c):
    bottleneck(a, b, 1)
    after = bottleneck(a, c, 1)
    clear_pair_caches()
    assert repr(after) == repr(bottleneck(a, c, 1))


@pytest.mark.parametrize(
    "distance",
    [
        lambda d, dim: landscape(d, dim),
        lambda d, dim: bottleneck(d, d, dim),
        lambda d, dim: wasserstein(d, d, dim),
    ],
    ids=["landscape", "bottleneck", "wasserstein"],
)
def test_negative_dim_is_not_an_empty_one(distance):
    # -1 used to select no pair: an all-zero landscape and zero distances
    with pytest.raises(ValueError, match="dim must be a non-negative integer, got -1"):
        distance(SINGLE, -1)


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

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_non_finite_q_rejected(self, q):
        # at q = inf the q-th root of a zero cost is 0 ** 0 = 1.0, not 0
        with pytest.raises(ValueError, match=f"q must be finite and >= 1, got {q}"):
            wasserstein(SINGLE, SINGLE, 1, q)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_identical_essential_only_zero(self, q):
        a = diagram([(1, 0.0, math.inf), (1, 1.0, math.inf)])
        assert wasserstein(a, a, 1, q) == 0.0

    @pytest.mark.parametrize("q", [200.0, 400.0])
    def test_large_q_matches_the_bottleneck_pair(self, q):
        # 0.0047 ** 200 underflows, and the distance used to read 0.0
        a, b = diagram([(1, 0.0, 0.01)]), diagram([(1, 0.0, 0.0147)])
        assert wasserstein(a, b, 1, q) == pytest.approx(bottleneck(a, b, 1), rel=1e-12)

    def test_large_q_does_not_overflow(self):
        # 4.5 ** 1000 used to raise OverflowError
        a, b = diagram([(0, 0.0, 5.0)]), diagram([(0, 0.0, 9.0)])
        assert wasserstein(a, b, 0, 1000.0) == 4.0

    def test_tiny_essential_gap_not_lost(self):
        a = diagram([(1, 0.0, 0.5), (1, 1e-200, math.inf)])
        b = diagram([(1, 0.0, 0.5), (1, 0.0, math.inf)])
        # (1e-200) ** 2 underflows, and the distance used to read 0.0
        assert wasserstein(a, b, 1, 2.0) == pytest.approx(1e-200, rel=1e-12, abs=0)

    def test_q_underflowing_every_matched_cost_matches_bottleneck(self):
        # (0.001 / 5.0) ** 1000 underflows, so every matched cost is 0 and the
        # first matching is arbitrary; this used to raise ValueError
        a = diagram([(1, 0.0, 10.0), (1, 1.0, 2.0)])
        b = diagram([(1, 0.0, 10.0), (1, 1.0, 2.001)])
        assert wasserstein(a, b, 1, 1000.0) == bottleneck(a, b, 1)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.5])
    def test_q_underflowing_every_matched_cost_at_ordinary_q(self, q):
        # (2e-237 / 0.5) ** q underflows at every q > 1, and this pair
        # used to raise ValueError; one point is off by its birth alone
        birth = 2.0271100714728172e-237
        a = diagram([(1, 0.0, 1.0)] * 3)
        b = diagram([(1, 0.0, 1.0)] * 2 + [(1, birth, 1.0)])
        assert wasserstein(a, b, 1, q) == birth == bottleneck(a, b, 1)

    def test_large_q_equals_enumerated_optimum(self):
        # divided by the largest radius, the costs near the optimum at
        # q = 400 were subnormal, and the solver picked a matching 7e-7
        # relative above the optimum
        a, b = COMPARE_A, COMPARE_B
        expected = enumerated_wasserstein(a.in_dim(1), b.in_dim(1), 400.0)
        assert expected == pytest.approx(0.001317193886849791, rel=1e-12)
        distance = wasserstein(a, b, 1, 400.0)
        assert distance == pytest.approx(expected, rel=1e-12)
        assert distance >= bottleneck(a, b, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(
            st.one_of(quantized_diagrams(), small_diagrams()),
            st.one_of(quantized_diagrams(), small_diagrams()),
        ).filter(lambda ab: len(ab[0].pairs) + len(ab[1].pairs) <= 7),
        st.sampled_from([1.0, 1.5, 2.0, 3.5, 50.0, 400.0, 1000.0]),
    )
    # the q-th root of 0.0625 ** 50 is 0.06249999999999999, so a sum of
    # powers read this pair below its bottleneck distance
    @example((EMPTY, diagram([(1, 0.0, 0.125)])), 50.0)
    def test_large_q_matches_enumeration_oracle(self, ab, q):
        a, b = ab
        distance = wasserstein(a, b, 1, q)
        assert distance == pytest.approx(
            enumerated_wasserstein(a.in_dim(1), b.in_dim(1), q), rel=1e-12, abs=0
        )
        # the norm of the matched radii is at least the largest of them
        assert distance >= bottleneck(a, b, 1)

    def test_essential_births_paired_in_order(self):
        a = diagram([(1, 1.0, math.inf), (1, 0.0, math.inf)])
        b = diagram([(1, 0.5, math.inf), (1, 2.5, math.inf)])
        assert wasserstein(a, b, 1, 1.0) == 2.0
        assert wasserstein(a, b, 1, 2.0) == math.sqrt(2.5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(quantized_diagrams(), small_diagrams()),
        st.one_of(quantized_diagrams(), small_diagrams()),
        st.sampled_from([1.0, 2.0, 3.5]),
    )
    # numpy's power rounds this pair's cost (0.39...) ** 3.5 one ulp off Python's
    @example(diagram([(1, 3.72, 7.9)]), diagram([(1, 4.11, 7.86)]), 3.5)
    # 5e-324 ** 2 underflows to 0 in the loop oracle, which then reads 0.0
    @example(diagram([(1, 0.0, 1.0)]), diagram([(1, 5e-324, 1.0)]), 2.0)
    def test_matches_loop_oracle(self, a, b, q):
        a_pts, b_pts = a.in_dim(1), b.in_dim(1)
        if q == 1:
            assert wasserstein(a, b, 1, q) == oracle_wasserstein(a_pts, b_pts, q)
        else:
            # the bounded solve forms other powers than the loop oracle, whose
            # own can leave the float range
            assert wasserstein(a, b, 1, q) == pytest.approx(
                decimal_wasserstein(a_pts, b_pts, q), rel=1e-12, abs=0
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(quantized_diagrams(), small_diagrams()),
        st.one_of(quantized_diagrams(), small_diagrams()),
        st.lists(st.floats(0.0, 5.0), min_size=0, max_size=3),
        st.data(),
        st.sampled_from([1.0, 2.0, 3.5]),
    )
    def test_finite_and_essential_parts_add(self, a, b, births_a, data, q):
        births_b = data.draw(
            st.lists(st.floats(0.0, 5.0), min_size=len(births_a), max_size=len(births_a))
        )
        with_a = diagram(a.pairs + tuple((1, x, math.inf) for x in births_a))
        with_b = diagram(b.pairs + tuple((1, y, math.inf) for y in births_b))
        essential = sum(
            abs(x - y) ** q for x, y in zip(sorted(births_a), sorted(births_b))
        )
        finite = oracle_wasserstein(a.in_dim(1), b.in_dim(1), q)
        expected = (finite**q + essential) ** (1.0 / q)
        assert wasserstein(with_a, with_b, 1, q) == pytest.approx(expected, rel=1e-12, abs=1e-12)


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
    @pytest.mark.parametrize("dim", [1.7, True, "1", -1])
    def test_dim_not_a_non_negative_int_refused(self, dim):
        ls = landscape(SINGLE, dim=1, k_max=2, n_grid=64, t_max=4.0)
        message = f"landscape dim must be a non-negative integer, got {dim!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            PersistenceLandscape(dim, ls.grid, ls.levels)


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
