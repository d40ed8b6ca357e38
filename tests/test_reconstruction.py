import numpy as np
import pytest

from adaptive_lle import (DEFAULT_GRAM_REG, WeightMatrix, compute_residuals,
                          init_identity, knn, local_gram, reconstruction,
                          reconstruction_error, reconstruction_weights,
                          solve_all_weights)

from conftest import random_psd_state


def gram_oracle(x, neighbors, M):
    """Naive double loop over the definition of the local Gram matrix."""
    K = neighbors.shape[1]
    G = np.zeros((K, K))
    for a in range(K):
        for b in range(K):
            G[a, b] = (x - neighbors[:, a]) @ M @ (x - neighbors[:, b])
    return G


def constrained_ls_oracle(x, neighbors, L):
    """Brute-force sum-to-one least squares in the metric-transformed space
    by eliminating the last weight; returns the minimal objective."""
    z = L @ x
    Zn = L @ neighbors
    base = Zn[:, -1]
    A = Zn[:, :-1] - base[:, None]
    b = z - base
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    w = np.append(sol, 1.0 - sol.sum())
    r = z - Zn @ w
    return float(r @ r), w


# ------------------------------------------------------------------- gram

def test_local_gram_orthonormal_differences():
    x = np.zeros(2)
    neighbors = np.array([[-1.0, 0.0], [0.0, -1.0]])  # columns -e1, -e2
    G = local_gram(x, neighbors, init_identity(2))
    assert np.allclose(G, np.eye(2), atol=1e-12)


def test_local_gram_antipodal():
    x = np.zeros(1)
    neighbors = np.array([[1.0, -1.0]])
    G = local_gram(x, neighbors, init_identity(1))
    assert np.allclose(G, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)


def test_local_gram_matches_double_loop(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        K = int(rng.integers(1, 6))
        x = rng.standard_normal(dim)
        neighbors = rng.standard_normal((dim, K))
        state = random_psd_state(rng, dim)
        G = local_gram(x, neighbors, state)
        assert np.allclose(G, gram_oracle(x, neighbors, state.matrix), atol=1e-10)
        assert np.allclose(G, G.T, atol=1e-12)
        assert np.linalg.eigvalsh(G)[0] >= -1e-10


def test_local_gram_shape_errors(rng):
    with pytest.raises(ValueError):
        local_gram(np.zeros(3), np.zeros((2, 4)), init_identity(3))


# ----------------------------------------------------------------- weights

def test_weights_single_neighbor():
    assert np.allclose(reconstruction_weights(np.array([[3.7]])), [1.0])


def test_weights_symmetric_midpoint():
    G = np.array([[1.0, -1.0], [-1.0, 1.0]])
    w = reconstruction_weights(G, reg=1e-3)
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


def test_weights_affine_hull_point():
    x = np.array([1.0, 1.0])
    neighbors = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    state = init_identity(2)
    G = local_gram(x, neighbors, state)
    w = reconstruction_weights(G, reg=1e-10)
    assert np.allclose(w, [0.0, 0.5, 0.5], atol=1e-5)
    residual = x - neighbors @ w
    assert np.linalg.norm(residual) < 1e-8


def test_weights_sum_to_one(rng):
    for _ in range(20):
        K = int(rng.integers(1, 7))
        B = rng.standard_normal((K + 2, K))
        w = reconstruction_weights(B.T @ B, reg=1e-3)
        assert abs(w.sum() - 1.0) < 1e-10


def test_weights_match_constrained_ls_oracle(rng):
    # closed form vs an independent eliminate-one-variable solver
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        K = int(rng.integers(1, 5))
        x = rng.standard_normal(dim)
        neighbors = rng.standard_normal((dim, K))
        state = random_psd_state(rng, dim) if trial % 2 else init_identity(dim)
        L = state.L
        G = local_gram(x, neighbors, state)
        w = reconstruction_weights(G, reg=1e-8)
        achieved = float(w @ G @ w)
        best, _ = constrained_ls_oracle(x, neighbors, L)
        assert achieved <= best + 1e-6
        assert abs(achieved - best) <= 1e-6


def test_weights_local_minimality(rng):
    # at the unregularized optimum no zero-sum perturbation of norm 1e-3
    # may decrease the metric error by more than 1e-9
    for _ in range(10):
        dim = 4
        K = int(rng.integers(2, 5))  # K <= dim keeps the Gram nonsingular
        x = rng.standard_normal(dim)
        neighbors = rng.standard_normal((dim, K))
        G = local_gram(x, neighbors, init_identity(dim))
        w = reconstruction_weights(G, reg=0.0)
        base = float(w @ G @ w)
        for _ in range(20):
            delta = rng.standard_normal(K)
            delta -= delta.mean()          # zero-sum direction
            norm = np.linalg.norm(delta)
            if norm == 0:
                continue
            delta *= 1e-3 / norm
            perturbed = w + delta
            assert float(perturbed @ G @ perturbed) >= base - 1e-9


def test_weights_translation_invariance(rng):
    dim, K = 3, 3
    x = rng.standard_normal(dim)
    neighbors = rng.standard_normal((dim, K))
    state = random_psd_state(rng, dim)
    shift = 10.0 * rng.standard_normal(dim)
    w1 = reconstruction_weights(local_gram(x, neighbors, state))
    w2 = reconstruction_weights(
        local_gram(x + shift, neighbors + shift[:, None], state))
    assert np.allclose(w1, w2, atol=1e-8)


def test_weights_degenerate_errors():
    with pytest.raises(np.linalg.LinAlgError):
        reconstruction_weights(np.zeros((2, 2)), reg=0.0)
    with pytest.raises(ValueError):
        reconstruction_weights(np.array([[1.0, 2.0]]), reg=0.0)


# --------------------------------------------------------------- residuals

def test_residuals_exact_reconstruction(rng):
    points = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                       [5.0, 5.0], [6.0, 5.0]])
    nbrs = knn(points, 3, init_identity(2))
    W = solve_all_weights(points, nbrs, init_identity(2), reg=1e-12)
    residuals = compute_residuals(points, nbrs, W)
    # point 0 lies in the affine hull of its three neighbors
    assert np.linalg.norm(residuals[0]) < 1e-8


def test_residuals_single_neighbor(rng):
    points = rng.standard_normal((5, 3))
    nbrs = knn(points, 1, init_identity(3))
    W = WeightMatrix(ids=nbrs.ids, weights=np.ones((5, 1)))
    residuals = compute_residuals(points, nbrs, W)
    expected = points - points[nbrs.ids[:, 0]]
    assert np.allclose(residuals, expected, atol=1e-12)


def test_residuals_match_naive_loop(rng):
    points = rng.standard_normal((20, 4))
    state = random_psd_state(rng, 4)
    nbrs = knn(points, 5, state)
    W = solve_all_weights(points, nbrs, state)
    residuals = compute_residuals(points, nbrs, W)
    for i in range(20):
        expected = points[i] - sum(w * points[j]
                                   for w, j in zip(W.weights[i], W.ids[i]))
        assert np.allclose(residuals[i], expected, atol=1e-12)


def test_residuals_alignment_check(rng):
    points = rng.standard_normal((10, 2))
    nbrs = knn(points, 2, init_identity(2))
    W = WeightMatrix(ids=np.roll(nbrs.ids, 1, axis=0),
                     weights=np.full((10, 2), 0.5))
    with pytest.raises(ValueError):
        compute_residuals(points, nbrs, W)


# -------------------------------------------------------------------- error

def test_error_trivials(rng):
    state = init_identity(2)
    assert reconstruction_error(np.zeros((4, 2)), state) == 0.0
    assert reconstruction_error([[1.0, 0.0]], state) == pytest.approx(1.0)


def test_error_euclidean_reduction(rng):
    residuals = rng.standard_normal((15, 3))
    total = reconstruction_error(residuals, init_identity(3))
    assert total == pytest.approx(np.sum(residuals ** 2), rel=1e-10)


def test_error_nonnegative_under_any_metric(rng):
    for _ in range(10):
        residuals = rng.standard_normal((8, 3))
        assert reconstruction_error(residuals, random_psd_state(rng, 3)) >= 0.0


def test_solve_all_weights_rows_sum_to_one(rng):
    points = rng.standard_normal((30, 3))
    state = random_psd_state(rng, 3)
    nbrs = knn(points, 6, state)
    W = solve_all_weights(points, nbrs, state)
    assert np.allclose(W.weights.sum(axis=1), 1.0, atol=1e-8)
    assert np.array_equal(W.ids, nbrs.ids)


# ------------------------------------------------------------ batched solve

def per_point_weights(points, nbrs, state, reg):
    """The public per-point path: one local Gram matrix and solve per row."""
    return np.array([reconstruction_weights(
        local_gram(points[i], points[nbrs.ids[i]].T, state), reg)
        for i in range(len(points))])


@pytest.mark.parametrize("dim, K", [(3, 2), (3, 3), (3, 7), (2, 9)])
def test_batched_weights_match_per_point(rng, dim, K):
    # K > D makes every local Gram matrix singular before the ridge
    points = rng.standard_normal((40, dim))
    state = random_psd_state(rng, dim)
    nbrs = knn(points, K, state)
    for reg in (1e-3, DEFAULT_GRAM_REG):
        W = solve_all_weights(points, nbrs, state, reg)
        assert np.allclose(W.weights, per_point_weights(points, nbrs, state, reg),
                           rtol=0, atol=1e-12)


def test_batched_weights_across_blocks(monkeypatch, rng):
    points = np.concatenate([rng.standard_normal((30, 4)), np.zeros((3, 4))])
    state = random_psd_state(rng, 4)
    nbrs = knn(points, 6, state)
    expected = per_point_weights(points, nbrs, state, DEFAULT_GRAM_REG)
    for rows in (1, 4, 11):
        monkeypatch.setattr(reconstruction, "_BLOCK_BYTES", 8 * 6 * 4 * rows)
        W = solve_all_weights(points, nbrs, state)
        assert np.allclose(W.weights, expected, rtol=0, atol=1e-12)


def test_solve_all_weights_singular_without_ridge():
    # collinear integer points: K = 3 > D = 1 gives an exactly rank-1 Gram
    points = np.arange(8, dtype=float)[:, None]
    nbrs = knn(points, 3, init_identity(1))
    with pytest.raises(np.linalg.LinAlgError):
        solve_all_weights(points, nbrs, init_identity(1), reg=0.0)


def test_solve_all_weights_degenerate_and_negative_reg():
    # neighbors 1e8 away: the solution of G w = 1 sums to ~1e-16
    points = np.array([[0.0], [1e8], [2e8]])
    nbrs = knn(points, 2, init_identity(1))
    with pytest.raises(ValueError, match="degenerate"):
        solve_all_weights(points, nbrs, init_identity(1))
    with pytest.raises(ValueError, match="degenerate"):
        per_point_weights(points, nbrs, init_identity(1), DEFAULT_GRAM_REG)
    small = np.arange(4, dtype=float)[:, None]
    with pytest.raises(ValueError, match="non-negative"):
        solve_all_weights(small, knn(small, 2, init_identity(1)),
                          init_identity(1), reg=-1e-3)
