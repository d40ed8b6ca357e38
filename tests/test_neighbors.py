import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_lle import (MetricState, PipelineConfig, continuity, fit_alle,
                          generate_swiss_roll, init_identity, knn, neighbors,
                          trustworthiness)

from conftest import (PATHS, each_path, mahalanobis_distance, near_duplicates,
                      random_psd_state)


def knn_oracle(points, K, state):
    """O(n^2) all-pairs sort with (distance, index) tie-breaking."""
    n = len(points)
    ids = np.empty((n, K), dtype=int)
    for i in range(n):
        pairs = sorted((mahalanobis_distance(points[i], points[j], state), j)
                       for j in range(n) if j != i)
        ids[i] = [j for _, j in pairs[:K]]
    return ids


def test_knn_on_a_line():
    points = np.array([[0.0], [1.0], [3.0], [7.0]])
    result = knn(points, 1)
    assert result.ids[:, 0].tolist() == [1, 0, 1, 2]


def test_knn_invariant_under_metric_scaling(rng):
    points = rng.standard_normal((40, 3))
    L = rng.standard_normal((3, 3))
    a = knn(points @ L.T, 5)
    b = knn(points @ (2.0 * L).T, 5)  # metric scaled by exactly 4
    assert np.array_equal(a.ids, b.ids)
    assert np.allclose(b.distances, 2.0 * a.distances, rtol=1e-12)


def test_knn_matches_oracle_random_metric(rng, kernel):
    points = rng.standard_normal((50, 3))
    state = random_psd_state(rng, 3)
    result = knn(points @ state.L.T, 5)
    assert np.array_equal(result.ids, knn_oracle(points, 5, state))


def test_knn_matches_euclidean_oracle(rng):
    for _ in range(5):
        points = rng.standard_normal((30, 4))
        state = init_identity(4)
        result = knn(points @ state.L.T, 4)
        assert np.array_equal(result.ids, knn_oracle(points, 4, state))


def test_knn_structure(rng):
    points = rng.standard_normal((25, 3))
    result = knn(points, 6)
    n = len(points)
    for i in range(n):
        assert i not in result.ids[i]
        assert np.all(np.diff(result.distances[i]) >= 0)
        assert np.all((0 <= result.ids[i]) & (result.ids[i] < n))
    assert result.ids.shape == (n, 6)


def test_knn_permutation_equivariance(rng):
    points = rng.standard_normal((30, 3))
    state = random_psd_state(rng, 3)
    perm = rng.permutation(30)
    base = knn(points @ state.L.T, 4)
    permuted = knn(points[perm] @ state.L.T, 4)
    # row perm[i] of the permuted result lists permuted positions of the
    # original neighbors
    inverse = np.empty(30, dtype=int)
    inverse[perm] = np.arange(30)
    for new_i in range(30):
        orig_i = perm[new_i]
        assert permuted.ids[new_i].tolist() == inverse[base.ids[orig_i]].tolist()


def test_knn_prefix_monotonicity(rng):
    points = rng.standard_normal((30, 3))
    state = random_psd_state(rng, 3)
    small = knn(points @ state.L.T, 4)
    large = knn(points @ state.L.T, 5)
    assert np.array_equal(large.ids[:, :4], small.ids)


def test_knn_k_out_of_range(rng):
    points = rng.standard_normal((10, 2))
    with pytest.raises(ValueError):
        knn(points, 0)
    with pytest.raises(ValueError):
        knn(points, 10)


# ------------------------------------------------- ties and the blocked path

def integer_grid(side):
    return np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)


@pytest.mark.parametrize("K", [3, 4, 5, 8])
def test_knn_grid_ties_straddling_kth_slot(K, kernel):
    # interior grid points have 4 neighbors at distance 1 and 4 at sqrt(2),
    # so K = 3 and K = 5 cut through a tie and K = 4, 8 end exactly on one
    points = integer_grid(7)
    state = init_identity(2)
    assert np.array_equal(knn(points @ state.L.T, K).ids, knn_oracle(points, K, state))


def test_knn_duplicate_points(rng, kernel):
    base = rng.integers(0, 3, (10, 2)).astype(float)
    points = np.concatenate([base, base, base[:4]])
    state = init_identity(2)
    for K in (1, 2, 5):
        result = knn(points @ state.L.T, K)
        assert np.array_equal(result.ids, knn_oracle(points, K, state))
        assert not np.any(result.ids == np.arange(len(points))[:, None])


def test_knn_all_other_points(monkeypatch, kernel):
    # every other point in (distance, index) order: duplicates on a line and
    # in a plane, and grid ties split across block heights of 1 and 3 rows
    line = np.array([[0.0], [1.0], [1.0], [2.0]])
    copies = np.concatenate([integer_grid(3), integer_grid(3)[:4]])
    grid = np.concatenate([integer_grid(4), integer_grid(4)[::5]])
    for rows in (None, 1, 3):
        for points in (line, copies, grid):
            if rows is not None:
                monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * len(points) * rows)
            n, state = len(points), init_identity(points.shape[1])
            assert np.array_equal(knn(points @ state.L.T, n - 1).ids,
                                  knn_oracle(points, n - 1, state))


def test_knn_multi_block_matches_oracle(monkeypatch, rng, kernel):
    grid = np.concatenate([integer_grid(5), integer_grid(5)[::3]])
    noisy = rng.standard_normal((40, 3))
    for rows in (1, 3, 7):
        for points, state in ((grid, init_identity(2)),
                              (noisy, random_psd_state(rng, 3))):
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * len(points) * rows)
            for K in (1, 4, 6):
                assert np.array_equal(knn(points @ state.L.T, K).ids,
                                      knn_oracle(points, K, state))


# ------------------------------------------------- the KD-tree path

def kernel_fixtures(rng):
    """(points, state, Ks): the fixtures of the kernel tests above."""
    base = rng.integers(0, 3, (10, 2)).astype(float)
    duplicates = np.concatenate([base, base, base[:4]])
    small = np.concatenate([integer_grid(3), integer_grid(3)[:4]])
    blocks = np.concatenate([integer_grid(5), integer_grid(5)[::3]])
    plane = init_identity(2)
    return [
        (integer_grid(7), plane, (3, 4, 5, 8)),
        (duplicates, plane, (1, 2, 5)),
        (small, plane, (len(small) - 1,)),
        (blocks, plane, (1, 4, 6)),
        (rng.standard_normal((50, 3)), random_psd_state(rng, 3), (1, 4, 5)),
    ]


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_tree_matches_oracle_on_kernel_fixtures(monkeypatch, rng, tree, rows):
    # grids and copies tie exactly, so their rows go back to the kernel,
    # whose blocking the row counts exercise
    for points, state, Ks in kernel_fixtures(rng):
        if rows is not None:
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * len(points) * rows)
        for K in Ks:
            assert np.array_equal(knn(points @ state.L.T, K).ids, knn_oracle(points, K, state))


@pytest.mark.parametrize("path", PATHS)
def test_knn_singular_metric_ties(monkeypatch, path):
    # a zero row of L (as a direct-M projection can leave) maps the points
    # of a 3x3x3 cube onto one another in threes: every distance is tied
    monkeypatch.setattr(neighbors, "_TREE_MAX_DIM", PATHS[path])
    cube = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(3)],
                    dtype=float)
    state = MetricState(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]]))
    for K in (1, 2, 3, 7, 26):
        assert np.array_equal(knn(cube @ state.L.T, K).ids, knn_oracle(cube, K, state))


@st.composite
def integer_point_sets(draw):
    """(points, K, state): 2-12 points with coordinates in {0, 1, 2} in 1-3
    dimensions (so duplicates and exact ties abound), any K < n, and an
    integer factor L with entries in [-2, 2], singular or not."""
    D = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    coords = st.lists(st.integers(0, 2), min_size=n * D, max_size=n * D)
    points = np.array(draw(coords), dtype=float).reshape(n, D)
    L = np.array(draw(st.lists(st.integers(-2, 2), min_size=D * D, max_size=D * D)),
                 dtype=float).reshape(D, D)
    return points, draw(st.integers(1, n - 1)), MetricState(L)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_point_sets())
def test_tie_rule_property(case):
    # both paths order neighbors by (distance, index), as the oracle does
    points, K, state = case
    expected = knn_oracle(points, K, state)
    with pytest.MonkeyPatch.context() as patch:
        for _ in each_path(patch):
            assert np.array_equal(knn(points @ state.L.T, K).ids, expected)


def test_near_duplicate_ranks_behind_the_exact_duplicate(monkeypatch):
    # point 4's exact copy 6 is nearer than the 1-ulp neighbor 2, though
    # both kernel distances clamp to 0 and index order alone would pick 2
    points = near_duplicates()
    state = init_identity(1)
    for _ in each_path(monkeypatch):
        assert neighbors._top_k(points, points, 1)[0][4, 0] == 6
        assert neighbors._nearest(points, 1)[0][4, 0] == 6
        for K in (1, 2, 3, 7):
            assert np.array_equal(knn(points @ state.L.T, K).ids, knn_oracle(points, K, state))


def test_tree_rows_behind_a_copy_match_the_kernel(monkeypatch):
    # the tree lists self first on a row unless a copy of the point comes
    # before it; only those rows move self to the back, and behind k + 2
    # copies self is missing from the tree's row altogether
    from scipy.spatial import cKDTree

    roll = generate_swiss_roll(300, 0.0, 0).values
    k = 5
    copied_roll = np.concatenate([roll, roll[::7]])
    many_copies = np.concatenate([roll[:40], np.repeat(roll[40:41], k + 3, axis=0)])
    for points in (copied_roll, many_copies):
        n = len(points)
        centered = points - neighbors._center(points)
        idx = cKDTree(centered).query(centered, k=k + 2)[1]
        rows = np.flatnonzero(idx[:, 0] != np.arange(n))
        assert rows.size > 0
        found = {path: neighbors._nearest(points, k) for path in each_path(monkeypatch)}
        (tree_ids, tree_d2), (kernel_ids, kernel_d2) = found["tree"], found["kernel"]
        assert np.array_equal(tree_ids, kernel_ids)
        assert np.array_equal(tree_ids, knn_oracle(points, k, init_identity(3)))
        # the tree's direct differences and the kernel's Gram expansion
        # differ by their rounding only
        sq = np.einsum("ij,ij->i", centered, centered)
        slack = neighbors._tie_slack(sq, 3)[rows, None]
        assert np.all(np.abs(tree_d2[rows] - kernel_d2[rows]) <= slack)
        if points is many_copies:  # their k nearest are all copies, at 0
            assert np.array_equal(tree_d2[rows], kernel_d2[rows])


def test_kernel_ids_do_not_depend_on_block_height(monkeypatch, kernel):
    # a 1/8-spaced grid moved off the origin: the shift to the center leaves
    # it off the dyadic grid, so its exact ties come out of the Gram
    # expansion unequal, rounded by the shape of the block's product
    points = integer_grid(4) / 8 + 123.456
    state = init_identity(2)
    for K in (1, 3, 5):
        expected = knn(points @ state.L.T, K).ids
        assert np.array_equal(expected, knn_oracle(points, K, state))
        for rows in (1, 3):
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * len(points) * rows)
            assert np.array_equal(knn(points @ state.L.T, K).ids, expected)
        monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 1 << 24)


def test_knn_and_scores_ignore_a_large_offset(monkeypatch):
    # the Gram expansion loses the neighbor order of points far from the
    # origin unless they are shifted back first
    X = generate_swiss_roll(1500, 0.0, 0).values
    Y = X[:, [0, 2]]
    far = X + 1e7
    state = init_identity(3)
    for _ in each_path(monkeypatch):
        assert np.array_equal(knn(far @ state.L.T, 10).ids, knn(X @ state.L.T, 10).ids)
        assert trustworthiness(far, Y, 10) == trustworthiness(X, Y, 10)
        assert continuity(far, Y, 10) == continuity(X, Y, 10)


def test_knn_rejects_overflowing_distances(monkeypatch):
    # squared distances past float64's range are refused on both paths,
    # whether the points or the metric's factor make them that large; the
    # tree used to return its missing-neighbor id n, the kernel inf distances
    X = generate_swiss_roll(150, 0.0, 0).values
    for _ in each_path(monkeypatch):
        for points in (X * 1e155, [[-1e308], [0.0], [1.0], [1e308]]):
            with pytest.raises(ValueError, match="squared distances overflow"):
                knn(np.asarray(points), 1)
        # the factor meets the points in the fit: at 1e154 the search on
        # Z = X L^T refuses it, at 1e308 Z itself overflows
        for factor in (1e154, 1e308):
            with pytest.raises(ValueError, match="overflow float64"):
                fit_alle(X, PipelineConfig(n_neighbors=5, max_epochs=0),
                         MetricState(factor * np.eye(3)))
        assert np.all(np.isfinite(knn(X * 1e150, 5).distances))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_knn_rejects_non_finite_values(rng, bad):
    points = rng.standard_normal((1000, 3))
    points[3, 1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        knn(points, 3)
