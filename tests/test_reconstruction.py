import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from adaptive_lle import (DEFAULT_GRAM_REG, PipelineConfig, WeightMatrix,
                          compute_residuals, fit_lle, generate_swiss_roll,
                          init_identity, knn, reconstruction,
                          reconstruction_error, solve_all_weights)
from adaptive_lle.neighbors import NeighborIndex
from adaptive_lle.reconstruction import _gram_weights

from conftest import local_gram, random_psd_state


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


# ----------------------------------------------------------------- weights

def test_weights_single_neighbor():
    assert np.allclose(_gram_weights(np.array([[3.7]]), DEFAULT_GRAM_REG), [1.0])


def test_weights_symmetric_midpoint():
    G = np.array([[1.0, -1.0], [-1.0, 1.0]])
    w = _gram_weights(G, reg=1e-3)
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


def test_weights_affine_hull_point():
    x = np.array([1.0, 1.0])
    neighbors = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    state = init_identity(2)
    G = local_gram(x, neighbors, state)
    w = _gram_weights(G, reg=1e-10)
    assert np.allclose(w, [0.0, 0.5, 0.5], atol=1e-5)
    residual = x - neighbors @ w
    assert np.linalg.norm(residual) < 1e-8


def test_weights_sum_to_one(rng):
    for _ in range(20):
        K = int(rng.integers(1, 7))
        B = rng.standard_normal((K + 2, K))
        w = _gram_weights(B.T @ B, reg=1e-3)
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
        w = _gram_weights(G.copy(), reg=1e-8)
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
        w = _gram_weights(G, reg=0.0)
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
    w1 = _gram_weights(local_gram(x, neighbors, state), DEFAULT_GRAM_REG)
    w2 = _gram_weights(
        local_gram(x + shift, neighbors + shift[:, None], state), DEFAULT_GRAM_REG)
    assert np.allclose(w1, w2, atol=1e-8)


def test_weights_degenerate_errors():
    with pytest.raises(np.linalg.LinAlgError):
        _gram_weights(np.zeros((2, 2)), reg=0.0)


def test_weights_stack_errors():
    # one singular matrix at reg = 0 rejects the whole stack
    with pytest.raises(np.linalg.LinAlgError, match="positive reg"):
        _gram_weights(np.stack([np.eye(2), np.ones((2, 2))]), reg=0.0)


@st.composite
def gram_stacks(draw):
    """A stack of PSD Gram matrices B B^T with B of shape (K, D) times a
    scale; K > D gives singular Gram matrices before the ridge."""
    K = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 20))
    count = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-12, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    B = scale * np.random.default_rng(seed).standard_normal((count, K, dim))
    return B @ B.transpose(0, 2, 1), draw(st.sampled_from([1e-3, 1e-2]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gram_stacks())
def test_weight_stack_property(case):
    # rows sum to one at any scale, and a stack is solved exactly as its
    # matrices are one at a time
    stack, reg = case
    w = _gram_weights(stack.copy(), reg)
    assert w.shape == stack.shape[:-1]
    assert np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-10)
    one_by_one = np.array([_gram_weights(g, reg) for g in stack])
    assert np.array_equal(w, one_by_one)


# --------------------------------------------------------------- residuals

def test_residuals_exact_reconstruction(rng):
    points = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                       [5.0, 5.0], [6.0, 5.0]])
    nbrs = knn(points, 3)
    W = solve_all_weights(points, nbrs, reg=1e-12)
    residuals = compute_residuals(points, W)
    # point 0 lies in the affine hull of its three neighbors
    assert np.linalg.norm(residuals[0]) < 1e-8


def test_residuals_single_neighbor(rng):
    points = rng.standard_normal((5, 3))
    nbrs = knn(points, 1)
    W = WeightMatrix(ids=nbrs.ids, weights=np.ones((5, 1)))
    residuals = compute_residuals(points, W)
    expected = points - points[nbrs.ids[:, 0]]
    assert np.allclose(residuals, expected, atol=1e-12)


def test_residuals_match_dense_operator_oracle(rng):
    # (I - W) X with W densified entry by entry, so a self id (row 0 holds
    # the point itself twice) adds to the diagonal
    n, K = 12, 4
    points = rng.standard_normal((n, 3))
    ids = knn(points, K).ids.copy()
    ids[0, :2] = 0
    weights = rng.uniform(0.1, 1.0, (n, K))
    weights /= weights.sum(axis=1, keepdims=True)
    W = WeightMatrix(ids=ids, weights=weights)
    A = np.eye(n)
    for i in range(n):
        for j, w in zip(ids[i], weights[i]):
            A[i, j] -= w
    assert np.allclose(W.operator.toarray(), A, rtol=0, atol=1e-15)
    residuals = compute_residuals(points, W)
    assert np.allclose(residuals, A @ points, rtol=0, atol=1e-12)
    # the diagonal comes last in each row, so the rounding is that of
    # X - W X with W's entries in their stored order
    W_only = csr_matrix((weights.ravel(), ids.ravel(), np.arange(0, n * K + 1, K)),
                        shape=(n, n))
    assert np.array_equal(residuals, points - W_only @ points)


def test_residuals_match_naive_loop(rng):
    points = rng.standard_normal((20, 4))
    state = random_psd_state(rng, 4)
    Z = points @ state.L.T
    W = solve_all_weights(Z, knn(Z, 5))
    residuals = compute_residuals(points, W)
    for i in range(20):
        expected = points[i] - sum(w * points[j]
                                   for w, j in zip(W.weights[i], W.ids[i]))
        assert np.allclose(residuals[i], expected, atol=1e-12)


# -------------------------------------------------------------------- error

def test_error_trivials(rng):
    state = init_identity(2)
    assert reconstruction_error(np.zeros((4, 2)) @ state.L.T) == 0.0
    assert reconstruction_error([[1.0, 0.0]] @ state.L.T) == pytest.approx(1.0)


def test_error_euclidean_reduction(rng):
    residuals = rng.standard_normal((15, 3))
    total = reconstruction_error(residuals @ init_identity(3).L.T)
    assert total == pytest.approx(np.sum(residuals ** 2), rel=1e-10)


def test_error_nonnegative_under_any_metric(rng):
    for _ in range(10):
        residuals = rng.standard_normal((8, 3))
        assert reconstruction_error(residuals @ random_psd_state(rng, 3).L.T) >= 0.0


def test_solve_all_weights_rows_sum_to_one(rng):
    points = rng.standard_normal((30, 3))
    state = random_psd_state(rng, 3)
    Z = points @ state.L.T
    nbrs = knn(Z, 6)
    W = solve_all_weights(Z, nbrs)
    assert np.allclose(W.weights.sum(axis=1), 1.0, atol=1e-8)
    assert np.array_equal(W.ids, nbrs.ids)


# ------------------------------------------------------------ batched solve

def per_point_weights(points, nbrs, state, reg):
    """The per-point path: one local Gram matrix and K x K solve per row."""
    return np.array([_gram_weights(
        local_gram(points[i], points[nbrs.ids[i]].T, state), reg)
        for i in range(len(points))])


@pytest.mark.parametrize("dim, K", [(3, 2), (3, 3), (3, 7), (2, 9)])
def test_batched_weights_match_per_point(rng, dim, K):
    # K > D makes every local Gram matrix singular before the ridge
    points = rng.standard_normal((40, dim))
    state = random_psd_state(rng, dim)
    Z = points @ state.L.T
    nbrs = knn(Z, K)
    for reg in (1e-3, DEFAULT_GRAM_REG):
        W = solve_all_weights(Z, nbrs, reg)
        assert np.allclose(W.weights, per_point_weights(points, nbrs, state, reg),
                           rtol=0, atol=1e-12)


def test_batched_weights_across_blocks(monkeypatch, rng):
    points = np.concatenate([rng.standard_normal((30, 4)), np.zeros((3, 4))])
    state = random_psd_state(rng, 4)
    Z = points @ state.L.T
    nbrs = knn(Z, 6)
    expected = per_point_weights(points, nbrs, state, DEFAULT_GRAM_REG)
    for rows in (1, 4, 11):
        monkeypatch.setattr(reconstruction, "_BLOCK_BYTES", 8 * 6 * 4 * rows)
        W = solve_all_weights(Z, nbrs)
        assert np.allclose(W.weights, expected, rtol=0, atol=1e-12)


def test_weights_do_not_depend_on_blocks_or_given_mapping(monkeypatch, rng):
    # a roll (D < K) and D > K: 1-row, 8-row and default blocks give the
    # same bits from the same Z = X L^T
    for points, K in ((generate_swiss_roll(200, 0.05, 1).values, 10),
                      (rng.standard_normal((60, 12)), 6)):
        state = random_psd_state(rng, points.shape[1])
        Z = points @ state.L.T
        nbrs = knn(Z, K)
        expected = solve_all_weights(Z, nbrs).weights
        for rows in (1, 8):
            monkeypatch.setattr(reconstruction, "_BLOCK_BYTES",
                                8 * K * points.shape[1] * rows)
            W = solve_all_weights(Z, nbrs)
            assert np.array_equal(W.weights, expected)
        monkeypatch.undo()


def test_solve_all_weights_singular_without_ridge():
    # collinear integer points: K = 3 > D = 1 gives an exactly rank-1 Gram
    points = np.arange(8, dtype=float)[:, None]
    nbrs = knn(points, 3)
    with pytest.raises(np.linalg.LinAlgError):
        solve_all_weights(points, nbrs, reg=0.0)


def test_solve_all_weights_degenerate_and_negative_reg():
    # the weights do not depend on the data's scale: 1e8-spaced points are
    # not degenerate, and the middle point sits halfway between its neighbors
    unit = np.array([[0.0], [1.0], [2.0]])
    expected = solve_all_weights(unit, knn(unit, 2)).weights
    assert np.allclose(expected[1], [0.5, 0.5], rtol=0, atol=1e-12)
    points = 1e8 * unit
    nbrs = knn(points, 2)
    assert np.allclose(solve_all_weights(points, nbrs).weights,
                       expected, rtol=0, atol=1e-12)
    assert np.allclose(per_point_weights(points, nbrs, init_identity(1),
                                         DEFAULT_GRAM_REG),
                       expected, rtol=0, atol=1e-12)
    small = np.arange(4, dtype=float)[:, None]
    for reg in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            solve_all_weights(small, knn(small, 2), reg=reg)


@pytest.mark.parametrize("dim, K", [(2, 6), (12, 6)], ids=["woodbury", "gram"])
def test_solve_all_weights_refuses_a_degenerate_neighborhood(rng, dim, K):
    # a cluster 1e-158 across beside a unit point: its squared differences
    # are subnormal, and the points are not tiny as a whole, so no power of
    # two rescales them.  The Gram matrices keep a few bits, and the solve
    # loses the weights' sum on both paths
    Z = np.vstack([rng.standard_normal((30, dim)) * 1e-158, np.ones((1, dim))])
    with pytest.raises(ValueError, match="degenerate neighborhood"):
        solve_all_weights(Z, knn(Z, K))


@pytest.mark.parametrize("dim, message", [
    (2, r"^local D x D system B\^T B \+ eps I is singular$"),
    (6, r"^local Gram matrix is singular$")])
def test_a_singular_local_system_is_named(dim, message):
    # a cluster 1e-162 across beside a unit point: at K = 6 the cluster's
    # local systems are formed from underflowed squares, and their ridge
    # underflows with them.  numpy's own message is a bare 'Singular
    # matrix'; at the default reg, asking for a positive reg misleads
    rng = np.random.default_rng(0)
    Z = np.vstack([rng.standard_normal((30, dim)) * 1e-162, np.eye(1, dim)])
    with pytest.raises(np.linalg.LinAlgError, match=message):
        solve_all_weights(Z, knn(Z, 6))
    with pytest.raises(np.linalg.LinAlgError, match="^local Gram matrix is singular$"):
        reconstruction._solved(np.zeros((1, 2, 2)), np.ones((1, 2, 1)), "Gram matrix")


def test_woodbury_weights_refuse_a_cancelled_sum():
    # point 0's six neighbors lie on the line x = 1, so B y = 1 has an exact
    # solution and w = 1 - B y is ridge / (6 + ridge) in each entry; at reg
    # = 1e-20 the ridge is lost in 6 + ridge, every w rounds to 0, and the
    # sum is refused rather than divided by
    Z = np.array([[0.0, 0.0]] + [[1.0, y] for y in np.arange(-2.5, 3.0)])
    with pytest.raises(ValueError, match="degenerate neighborhood"):
        solve_all_weights(Z, knn(Z, 6), reg=1e-20)
    weights = solve_all_weights(Z, knn(Z, 6)).weights  # the default reg keeps it
    assert np.allclose(weights[0], 1 / 6, rtol=1e-12, atol=0)


@pytest.mark.parametrize("K", [1, 3])
def test_gram_weights_refuse_an_overflowed_sum(K):
    # the first K + 1 rows coincide, so tr(G) = 0 there and the ridge is reg;
    # D = 6 >= K takes the K x K side, where at the subnormal reg = 1e-310
    # w = A^-1 1 = 1 / reg overflows, and the sum is refused rather than
    # divided by (at K = 1 it is inf, and inf / inf would make the weights
    # NaN).  The default reg keeps the uniform weights
    rng = np.random.default_rng(5)
    Z = np.concatenate([np.zeros((K + 1, 6)), 5.0 + rng.standard_normal((20, 6))])
    with pytest.raises(ValueError, match="degenerate neighborhood"):
        solve_all_weights(Z, knn(Z, K), reg=1e-310)
    weights = solve_all_weights(Z, knn(Z, K)).weights
    assert np.array_equal(weights[:K + 1], np.full((K + 1, K), 1.0 / K))


def test_unridged_gram_weights_are_the_plain_solve(rng):
    # reg = 0 adds no ridge: with D >= K each row is the unridged
    # np.linalg.solve(B B^T, 1) over its sum, bit for bit
    Z = rng.standard_normal((40, 8))
    nbrs = knn(Z, 5)
    weights = solve_all_weights(Z, nbrs, 0.0).weights
    for i in range(40):
        B = Z[i] - Z[nbrs.ids[i]]
        w = np.linalg.solve(B @ B.T, np.ones(5))
        assert np.array_equal(weights[i], w / w.sum())


def exact_weights(Z, ids, reg, rows):
    """Oracle: the weights of the ridged K x K system of the given rows of
    the float inputs Z, solved in exact rational arithmetic, then rounded."""
    K = ids.shape[1]
    out = []
    for i in rows:
        B = [[Fraction(a) - Fraction(b) for a, b in zip(Z[i], Z[j])] for j in ids[i]]
        A = [[sum(a * b for a, b in zip(ra, rb)) for rb in B] + [Fraction(1)]
             for ra in B]
        trace = sum(A[a][a] for a in range(K))
        ridge = Fraction(reg) * trace / K if trace else Fraction(reg)
        for a in range(K):
            A[a][a] += ridge
        for c in range(K):  # elimination without pivoting: A is positive definite
            for r in range(c + 1, K):
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
        w = [Fraction(0)] * K
        for r in reversed(range(K)):
            w[r] = (A[r][K] - sum(A[r][j] * w[j] for j in range(r + 1, K))) / A[r][r]
        out.append([float(x / sum(w)) for x in w])
    return np.array(out)


def forbid_kxk(monkeypatch):
    """Make the K x K path raise, so a solve that passes took the D x D one."""
    def kxk(*args):
        raise AssertionError("K x K path taken")
    monkeypatch.setattr(reconstruction, "_gram_weights", kxk)


@pytest.mark.parametrize("reg", [1e-3, 1e-2])
@pytest.mark.parametrize("dim, K", [(1, 2), (2, 3), (3, 10), (5, 6)])
def test_woodbury_weights_match_per_point(monkeypatch, rng, dim, K, reg):
    # rounding is relative to the row's weights, which grow past 1 when two
    # neighbors nearly coincide
    points = rng.standard_normal((60, dim))
    state = random_psd_state(rng, dim)
    Z = points @ state.L.T
    nbrs = knn(Z, K)
    expected = per_point_weights(points, nbrs, state, reg)
    forbid_kxk(monkeypatch)
    W = solve_all_weights(Z, nbrs, reg)
    scale = np.maximum(1.0, np.abs(expected).max(axis=1, keepdims=True))
    assert np.all(np.abs(W.weights - expected) <= 1e-12 * scale)


def test_woodbury_weights_match_exact_solve_at_tiny_reg(monkeypatch):
    # at reg = 1e-12 the K x K system has condition about K / reg, and its
    # float solve strays from the exact weights by 2e-4 on this roll; the
    # D x D system is well-conditioned there
    points = generate_swiss_roll(200, 0.05, 0).values
    state = random_psd_state(np.random.default_rng(0), 3)
    Z = points @ state.L.T
    nbrs = knn(Z, 10)
    forbid_kxk(monkeypatch)
    W = solve_all_weights(Z, nbrs, 1e-12)
    rows = range(0, 200, 4)
    expected = exact_weights(Z, nbrs.ids, 1e-12, rows)
    assert np.allclose(W.weights[rows], expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("reg", [1e-12, 1e-3, 1e-2])
@pytest.mark.parametrize("dim, K", [(2, 3), (6, 3)])
def test_coincident_neighbors_get_uniform_weights(dim, K, reg):
    # the K neighbors of each of the first K + 1 rows coincide with it:
    # tr(G) = 0, so the ridge is reg and the weights are uniform, on both paths
    rng = np.random.default_rng(5)
    points = np.concatenate([np.zeros((K + 1, dim)),
                             5.0 + rng.standard_normal((20, dim))])
    state = init_identity(dim)
    Z = points @ state.L.T
    nbrs = knn(Z, K)
    W = solve_all_weights(Z, nbrs, reg)
    assert np.array_equal(W.weights[:K + 1], np.full((K + 1, K), 1.0 / K))
    assert np.array_equal(per_point_weights(points[:K + 1], nbrs, state, reg),
                          W.weights[:K + 1])


def test_d_equal_k_takes_the_kxk_path(rng):
    # D = K solves the Gram stack exactly as _gram_weights does
    points = rng.standard_normal((50, 6))
    state = random_psd_state(rng, 6)
    Z = points @ state.L.T
    nbrs = knn(Z, 6)
    B = Z[:, None, :] - Z[nbrs.ids]
    expected = _gram_weights(B @ B.transpose(0, 2, 1), DEFAULT_GRAM_REG)
    assert np.array_equal(solve_all_weights(Z, nbrs).weights, expected)


@pytest.mark.parametrize("dim, K", [(3, 10), (12, 6)])
def test_solve_all_weights_refuses_overflowing_differences(rng, dim, K):
    # a caller's Z whose squared differences overflow is refused as knn
    # refuses such points, on both paths, and no warning escapes
    points = rng.standard_normal((40, dim))
    nbrs = knn(points, K)
    Z = points.copy()
    Z[nbrs.ids[0, 0], 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            solve_all_weights(Z, nbrs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n, dim, K", [(300, 3, 10), (60, 30, 10)])
def test_solve_all_weights_refuses_non_finite_points(n, dim, K, bad):
    # a NaN or Inf in a caller's Z is named as knn names it, on the
    # Woodbury (D < K) and the K x K paths, not as an overflow
    if dim == 3:
        Z = generate_swiss_roll(n, 0.0, 7).values
    else:
        Z = np.random.default_rng(0).standard_normal((n, dim))
    nbrs = knn(Z, K)
    Z[nbrs.ids[0, 0], 0] = bad
    with pytest.raises(ValueError, match="values contain NaN or Inf"):
        solve_all_weights(Z, nbrs)


def test_kxk_pass_refuses_overflow_in_its_last_block(monkeypatch, rng):
    # the finite-trace check runs once after the loop, so it must see every
    # block: only the last of five 8-row blocks holds overflowing differences
    n, dim, K = 40, 12, 6
    ids = (np.arange(n)[:, None] + 1 + np.arange(K)) % n
    nbrs = NeighborIndex(ids=ids, distances=np.zeros((n, K)))
    Z = rng.standard_normal((n, dim))
    Z[n - 1, 0] = 1e200
    assert not np.isin(n - 1, ids[:n - 8]).any()
    monkeypatch.setattr(reconstruction, "_BLOCK_BYTES", 8 * K * dim * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared distances overflow float64"):
            solve_all_weights(Z, nbrs)


def test_kxk_pass_holds_no_difference_stack_of_all_rows():
    # tracemalloc sees numpy's buffers: the pass gathers differences one
    # cache-sized block at a time, never the whole (n, K, D) stack
    n, dim, K = 2000, 300, 10
    Z = np.random.default_rng(0).standard_normal((n, dim))
    nbrs = knn(Z, K)
    tracemalloc.start()
    try:
        solve_all_weights(Z, nbrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * K * dim / 4


@pytest.mark.parametrize("scale", [1e12, 1e-12, 1e-155, 1e-158, 1e-162,
                                   pytest.param(2.0 ** -1000, id="2**-1000")])
def test_fit_lle_does_not_depend_on_scale(scale):
    # the normalizer check is relative to the system's trace, so it passes
    # at any scale of the data.  From 1e-155 down the squared differences
    # of neighbors are subnormal, so the search and the weights scale the
    # points up by a power of two, which is exact: at 2**-1000 the fit is
    # the unscaled one
    X = generate_swiss_roll(300, 0.0, 0).values
    Y = fit_lle(X, PipelineConfig()).Y
    scaled = fit_lle(scale * X, PipelineConfig()).Y
    assert np.allclose(scaled, Y, rtol=0, atol=1e-9)
    if np.frexp(scale)[0] == 0.5:  # a power of two
        assert np.array_equal(scaled, Y)
