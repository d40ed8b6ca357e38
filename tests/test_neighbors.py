import numpy as np
import pytest

from adaptive_lle import MetricState, init_identity, knn, mahalanobis_distance, neighbors

from conftest import random_psd_state


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
    result = knn(points, 1, init_identity(1))
    assert result.ids[:, 0].tolist() == [1, 0, 1, 2]


def test_knn_invariant_under_metric_scaling(rng):
    points = rng.standard_normal((40, 3))
    L = rng.standard_normal((3, 3))
    a = knn(points, 5, MetricState(L))
    b = knn(points, 5, MetricState(2.0 * L))  # metric scaled by exactly 4
    assert np.array_equal(a.ids, b.ids)
    assert np.allclose(b.distances, 2.0 * a.distances, rtol=1e-12)


def test_knn_matches_oracle_random_metric(rng):
    points = rng.standard_normal((50, 3))
    state = random_psd_state(rng, 3)
    result = knn(points, 5, state)
    assert np.array_equal(result.ids, knn_oracle(points, 5, state))


def test_knn_matches_euclidean_oracle(rng):
    for _ in range(5):
        points = rng.standard_normal((30, 4))
        state = init_identity(4)
        result = knn(points, 4, state)
        assert np.array_equal(result.ids, knn_oracle(points, 4, state))


def test_knn_structure(rng):
    points = rng.standard_normal((25, 3))
    result = knn(points, 6, init_identity(3))
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
    base = knn(points, 4, state)
    permuted = knn(points[perm], 4, state)
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
    small = knn(points, 4, state)
    large = knn(points, 5, state)
    assert np.array_equal(large.ids[:, :4], small.ids)


def test_knn_k_out_of_range(rng):
    points = rng.standard_normal((10, 2))
    with pytest.raises(ValueError):
        knn(points, 0, init_identity(2))
    with pytest.raises(ValueError):
        knn(points, 10, init_identity(2))


def test_knn_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        knn(rng.standard_normal((10, 3)), 2, init_identity(2))


# ------------------------------------------------- ties and the blocked path

def integer_grid(side):
    return np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)


@pytest.mark.parametrize("K", [3, 4, 5, 8])
def test_knn_grid_ties_straddling_kth_slot(K):
    # interior grid points have 4 neighbors at distance 1 and 4 at sqrt(2),
    # so K = 3 and K = 5 cut through a tie and K = 4, 8 end exactly on one
    points = integer_grid(7)
    state = init_identity(2)
    assert np.array_equal(knn(points, K, state).ids, knn_oracle(points, K, state))


def test_knn_duplicate_points(rng):
    base = rng.integers(0, 3, (10, 2)).astype(float)
    points = np.concatenate([base, base, base[:4]])
    state = init_identity(2)
    for K in (1, 2, 5):
        result = knn(points, K, state)
        assert np.array_equal(result.ids, knn_oracle(points, K, state))
        assert not np.any(result.ids == np.arange(len(points))[:, None])


def test_knn_all_other_points():
    points = np.concatenate([integer_grid(3), integer_grid(3)[:4]])
    n = len(points)
    result = knn(points, n - 1, init_identity(2))
    assert np.array_equal(result.ids, knn_oracle(points, n - 1, init_identity(2)))


def test_knn_multi_block_matches_oracle(monkeypatch, rng):
    grid = np.concatenate([integer_grid(5), integer_grid(5)[::3]])
    noisy = rng.standard_normal((40, 3))
    for rows in (1, 3, 7):
        for points, state in ((grid, init_identity(2)),
                              (noisy, random_psd_state(rng, 3))):
            monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * len(points) * rows)
            for K in (1, 4, 6):
                assert np.array_equal(knn(points, K, state).ids,
                                      knn_oracle(points, K, state))
