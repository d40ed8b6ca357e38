import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_lle import (EmbeddingResult, NumericalError, WeightMatrix,
                          embedding_matrix, generate_swiss_roll, init_identity,
                          knn, solve_all_weights, solve_embedding)

from conftest import random_factor

# solve_embedding's null threshold, relative to its row-sum bound on
# lambda_max (1.0-2.1 times lambda_max here).  The dense oracles take it
# relative to lambda_max itself, up to 2.1 times lower, and still split null
# from signal as the solve does: on the rolls, component graphs and tiny
# fixtures below, the largest null lies >= 1.9 times below either threshold
# (the 150 pairs) and the smallest kept eigenvalue >= 150 times above
NULL_TOL = 2e-15


def random_weight_matrix(rng, n, K):
    points = rng.standard_normal((n, 3))
    nbrs = knn(points, K)
    return solve_all_weights(points, nbrs), points


def dense_cost_oracle(W, n):
    """Naive (I - W)^T (I - W) from an explicitly densified W."""
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, W.ids[i]] = W.weights[i]
    A = np.eye(n) - dense
    return A.T @ A


def fix_signs(Y):
    """The documented sign rule: in each column, the lowest-index entry
    within 1e-12 (relative) of the largest magnitude is positive."""
    for j in range(Y.shape[1]):
        size = np.abs(Y[:, j])
        lead = np.flatnonzero(size >= (1 - 1e-12) * size.max())[0]
        Y[:, j] *= np.sign(Y[lead, j])
    return Y


def dense_oracle(M, d):
    """solve_embedding from a full dense eigh of M: the d smallest
    eigenvalues above the null threshold and their scaled, centered,
    sign-fixed eigenvectors."""
    vals, vecs = np.linalg.eigh(M.toarray())
    signal = np.flatnonzero(vals > NULL_TOL * vals[-1])
    if signal.size < d:
        raise ValueError("the neighbor graph is too disconnected")
    chosen = signal[:d]
    Y = np.sqrt(M.shape[0]) * vecs[:, chosen]
    Y -= Y.mean(axis=0)  # exact zero-mean constraint
    return EmbeddingResult(Y=fix_signs(Y), eigenvalues=vals[chosen],
                           null_eigenvalue=float(vals[chosen[0] - 1]))


# ------------------------------------------------------------- cost matrix

def test_cost_matrix_is_gram_of_cached_operator(rng):
    # the cost is A^T A of the I - W that W caches, not a second copy of
    # it: an operator planted in the cache is the one the cost is built from
    from scipy.sparse import random as sparse_random

    W, _ = random_weight_matrix(rng, 30, 4)
    planted = sparse_random(30, 30, density=0.2, format="csr", random_state=1)
    W.operator = planted
    M = embedding_matrix(W, 30)
    assert np.array_equal(M.toarray(), (planted.T @ planted).toarray())


def test_cost_matrix_self_weights_degenerate():
    # test-only W = I: each point reconstructed by itself exactly
    n = 5
    W = WeightMatrix(ids=np.arange(n)[:, None], weights=np.ones((n, 1)))
    assert np.array_equal(embedding_matrix(W, n).toarray(), np.zeros((n, n)))


def test_cost_matrix_annihilates_constant(rng):
    W, _ = random_weight_matrix(rng, 40, 6)
    M = embedding_matrix(W, 40)
    assert np.max(np.abs(M @ np.ones(40))) <= 1e-8 * 40


def test_cost_matrix_matches_dense_oracle(rng):
    W, _ = random_weight_matrix(rng, 30, 5)
    M = embedding_matrix(W, 30).toarray()
    assert np.allclose(M, dense_cost_oracle(W, 30), atol=1e-10)


def test_cost_matrix_is_canonical_csr_with_nbytes(rng):
    # a self id in W makes a duplicate entry of I - W, summed before A^T A
    W, _ = random_weight_matrix(rng, 30, 5)
    W.ids[::3, 0] = np.arange(0, 30, 3)
    M = embedding_matrix(W, 30)
    assert M.format == "csr" and M.has_canonical_format
    assert M.nbytes == M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    assert np.allclose(M.toarray(), dense_cost_oracle(W, 30), atol=1e-10)


def test_cost_matrix_symmetric_psd(rng):
    W, _ = random_weight_matrix(rng, 30, 5)
    M = embedding_matrix(W, 30).toarray()
    assert np.max(np.abs(M - M.T)) <= 1e-10
    assert np.linalg.eigvalsh(M)[0] >= -1e-8


# ------------------------------------------------------------- eigenproblem

def test_solve_skips_null_eigenvalue(rng):
    # known spectrum (0, 0.2, 0.5, 0.9) in a random orthogonal basis
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    M = (Q * [0.0, 0.2, 0.5, 0.9]) @ Q.T
    result = solve_embedding(M, d=2)
    assert np.allclose(result.eigenvalues, [0.2, 0.5], atol=1e-12)
    assert abs(result.null_eigenvalue) < 1e-12


def test_collinear_points_unroll_monotonically():
    points = np.arange(4.0)[:, None]
    nbrs = knn(points, 2)
    W = solve_all_weights(points, nbrs, reg=1e-6)
    M = embedding_matrix(W, 4)
    result = solve_embedding(M, d=1)
    coords = result.Y[:, 0]
    diffs = np.diff(coords)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_collinear_matches_full_eigendecomposition_oracle():
    points = np.arange(4.0)[:, None]
    nbrs = knn(points, 2)
    W = solve_all_weights(points, nbrs, reg=1e-6)
    M = embedding_matrix(W, 4)
    result = solve_embedding(M, d=1)
    expected = dense_oracle(M, 1)
    # both ends have magnitude 3/sqrt(5) to rounding: the sign goes to the
    # first point, not to whichever end rounding makes larger
    assert result.Y[0, 0] > 0
    assert np.allclose(result.Y, expected.Y, atol=1e-8)
    assert result.eigenvalues[0] == pytest.approx(expected.eigenvalues[0], abs=1e-12)


@pytest.mark.parametrize("spacing,offset", [(3.0, 0.0), (1e-3, 1.0)])
def test_sign_tie_goes_to_the_lowest_index(spacing, offset):
    # the two ends tie in magnitude up to rounding, which at these spacings
    # makes the last end the larger one
    line = spacing * np.arange(4.0)[:, None] + offset
    V = solve_all_weights(line, knn(line, 2), reg=1e-6)
    Y = solve_embedding(embedding_matrix(V, 4), d=1).Y
    assert abs(abs(Y[0, 0]) - abs(Y[3, 0])) <= 1e-12 * abs(Y[0, 0])
    assert Y[0, 0] > 0


def test_embedding_constraints(rng):
    W, _ = random_weight_matrix(rng, 50, 6)
    M = embedding_matrix(W, 50)
    result = solve_embedding(M, d=3)
    n = 50
    assert np.max(np.abs(result.Y.mean(axis=0))) <= 1e-8
    cov = result.Y.T @ result.Y / n
    assert np.linalg.norm(cov - np.eye(3)) <= 1e-6


def test_eigenpair_consistency(rng):
    W, _ = random_weight_matrix(rng, 40, 5)
    M = embedding_matrix(W, 40)
    result = solve_embedding(M, d=2)
    for j, lam in enumerate(result.eigenvalues):
        v = result.Y[:, j] / np.sqrt(40)  # back to unit norm
        assert np.linalg.norm(M @ v - lam * v) <= 1e-8
        rayleigh = float(v @ M @ v)
        assert rayleigh == pytest.approx(lam, rel=1e-8, abs=1e-12)


def test_sign_convention(rng):
    W, _ = random_weight_matrix(rng, 30, 4)
    M = embedding_matrix(W, 30)
    result = solve_embedding(M, d=2)
    for j in range(2):
        col = result.Y[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_disconnected_graph_error():
    # three mutual pairs: the neighbor graph has three components, leaving
    # only three non-null directions (eigenvalues 0, 0, 0, 4, 4, 4).  d = 3
    # needs every pair, the top one included, which ARPACK never returns by
    # itself; d = 4 is unreachable
    points = np.array([[0.0, 0], [0.01, 0], [50, 0], [50.01, 0],
                       [100, 0], [100.01, 0]])
    nbrs = knn(points, 1)
    W = solve_all_weights(points, nbrs)
    M = embedding_matrix(W, 6)
    result = solve_embedding(M, d=3)
    np.testing.assert_allclose(result.eigenvalues, dense_oracle(M, 3).eigenvalues,
                               rtol=1e-12)
    np.testing.assert_allclose(result.eigenvalues, 4.0, rtol=1e-12)
    assert np.linalg.norm(result.Y.T @ result.Y / 6 - np.eye(3)) <= 1e-10
    with pytest.raises(ValueError, match="disconnected"):
        solve_embedding(M, d=4)


def test_solve_validation(rng):
    M = np.eye(6)
    with pytest.raises(ValueError):
        solve_embedding(M, d=0)
    with pytest.raises(ValueError):
        solve_embedding(M, d=5)
    with pytest.raises(ValueError):
        solve_embedding(np.triu(np.ones((6, 6))), d=1)
    with pytest.raises(ValueError, match="cost matrix must be square"):
        solve_embedding(np.ones((6, 5)), d=1)
    W = WeightMatrix(ids=np.array([[1], [0], [1]]), weights=np.ones((3, 1)))
    with pytest.raises(ValueError, match="weight matrix has 3 rows, expected 4"):
        embedding_matrix(W, 4)


# ------------------------------------------------------------- sparse path

def roll_cost(n, state):
    roll = generate_swiss_roll(n, 0.0, 0)
    Z = roll.values @ state.L.T
    return embedding_matrix(solve_all_weights(Z, knn(Z, 10)), n)


def component_cost(kind):
    """Cost matrix of a graph with one component per cluster, and so one
    null eigenvalue per cluster, of far-apart clusters along a line.

    'random': 100 clusters of 4 random points, K=3.  'copies': 100
    translated copies of one such cluster, so every eigenvalue repeats 100
    times to rounding.  'pairs': 150 pairs with K=1, whose eigenvalues are
    exactly 0 and 4, 150 times each.
    """
    rng = np.random.default_rng(0)
    if kind == "pairs":
        shapes, K = np.array([[[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]]]), 1
    else:
        shapes, K = rng.standard_normal((100 if kind == "random" else 1, 4, 3)), 3
    count = 150 if kind == "pairs" else 100
    offsets = 1000.0 * np.arange(count)[:, None, None] * [1.0, 0.0, 0.0]
    points = (shapes + offsets).reshape(-1, 3)
    size = shapes.shape[1]
    nbrs = knn(points, K)
    assert np.all(nbrs.ids // size == np.arange(len(points))[:, None] // size)
    return embedding_matrix(solve_all_weights(points, nbrs),
                            len(points))


def assert_matches_dense(sparse, dense, M, subspace=True):
    # either solver's eigenvalues carry an absolute error of a few
    # eps * lambda_max, more than 1e-6 of the smallest eigenvalues of a roll
    # (about 6e-11 * lambda_max)
    lam_max = np.linalg.eigvalsh(M.toarray())[-1]
    np.testing.assert_allclose(sparse.eigenvalues, dense.eigenvalues, rtol=1e-6,
                               atol=10 * np.finfo(float).eps * lam_max)
    if subspace:
        n = M.shape[0]
        cosines = np.linalg.svd(sparse.Y.T @ dense.Y / n, compute_uv=False)
        assert cosines.min() >= 1 - 1e-10


@pytest.mark.parametrize("state", [init_identity(3), random_factor(3, 1.0, 5)],
                         ids=["identity", "random"])
def test_sparse_solve_matches_dense_oracle(state):
    M = roll_cost(1000, state)
    assert_matches_dense(solve_embedding(M, 2), dense_oracle(M, 2), M)


def test_sparse_solve_is_repeatable():
    M = roll_cost(1000, init_identity(3))
    first, second = solve_embedding(M, 2), solve_embedding(M, 2)
    assert np.array_equal(first.Y, second.Y)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)


@pytest.mark.parametrize("kind,d", [("random", 2), ("copies", 2), ("pairs", 5)])
def test_sparse_solve_disconnected_graphs_match_dense(kind, d):
    # with repeated eigenvalues only the eigenvalues, not the vectors, are
    # unique, so the subspaces are compared on 'random' alone
    M = component_cost(kind)
    sparse = solve_embedding(M, d)
    dense = dense_oracle(M, d)
    assert_matches_dense(sparse, dense, M, subspace=kind == "random")
    assert np.max(np.abs(sparse.Y.mean(axis=0))) <= 1e-8
    assert np.linalg.norm(sparse.Y.T @ sparse.Y / M.shape[0] - np.eye(d)) <= 1e-6


def test_sparse_solve_all_null_raises_before_arpack(monkeypatch):
    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK ran on an all-null cost matrix")

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_arpack)
    n = 300
    W = WeightMatrix(ids=np.arange(n)[:, None], weights=np.ones((n, 1)))
    with pytest.raises(ValueError, match="disconnected"):
        solve_embedding(embedding_matrix(W, n), d=2)


def test_connected_solve_factors_once_and_runs_arpack_once(monkeypatch):
    # the scale of the pole and of the null threshold is a row-sum bound,
    # not a second ARPACK run for lambda_max
    import scipy.sparse.linalg as linalg

    calls = {"eigsh": 0, "splu": 0}

    def counted(name):
        real = getattr(linalg, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    M = roll_cost(1000, init_identity(3))
    for name in calls:
        monkeypatch.setattr("scipy.sparse.linalg." + name, counted(name))
    solve_embedding(M, 2)
    assert calls == {"eigsh": 1, "splu": 1}


def test_connected_roll_solve_takes_at_most_13_lu_solves(monkeypatch):
    # at the pole -1e-12 lambda_hat with ncv = max(3k+1, 12), ARPACK finds a
    # connected roll's d+1 bottom pairs in 13 solves with the LU factor
    # (21 at -1e-10 lambda_hat with ncv 20)
    import scipy.sparse.linalg as linalg

    solves = []
    factor = linalg.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solves.append(1)
            return self.lu.solve(b)

    M = roll_cost(1500, init_identity(3))
    monkeypatch.setattr("scipy.sparse.linalg.splu",
                        lambda *args, **kwargs: Counted(factor(*args, **kwargs)))
    solve_embedding(M, 2)
    assert 0 < len(solves) <= 13


def tiny_fixtures():
    # exact null spaces: three mutual pairs (eigenvalues 0, 0, 0, 4, 4, 4)
    # and four collinear points
    pairs = np.array([[0.0, 0], [0.01, 0], [50, 0], [50.01, 0],
                      [100, 0], [100.01, 0]])
    W = solve_all_weights(pairs, knn(pairs, 1))
    line = np.arange(4.0)[:, None]
    V = solve_all_weights(line, knn(line, 2), reg=1e-6)
    return [(embedding_matrix(W, 6), 2), (embedding_matrix(V, 4), 1)]


def test_sparse_solve_shift_keeps_exact_null_space_factorable():
    # a zero shift makes the LU factor of these matrices exactly singular
    for M, d in tiny_fixtures():
        assert_matches_dense(solve_embedding(M, d), dense_oracle(M, d), M,
                             subspace=False)


@st.composite
def small_cost_matrices(draw):
    """(M, d): the cost matrix of 3-12 random points in 1-3 dimensions,
    scattered over 1-3 far-apart groups, with any K < n and 1 <= d <= n-2."""
    n = draw(st.integers(3, 12))
    K = draw(st.integers(1, n - 1))
    d = draw(st.integers(1, n - 2))
    D = draw(st.integers(1, 3))
    groups = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.standard_normal((n, D)) + 100.0 * rng.integers(0, groups, n)[:, None]
    W = solve_all_weights(points, knn(points, K))
    return embedding_matrix(W, n), d


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_cost_matrices())
def test_small_solves_match_dense_eigvalsh(case):
    # the eigenvalues are the first d dense ones above the null threshold,
    # and the solve raises exactly when fewer than d lie above it
    M, d = case
    vals = np.linalg.eigvalsh(M.toarray())
    signal = vals[vals > NULL_TOL * vals[-1]]
    if signal.size < d:
        with pytest.raises(ValueError, match="disconnected"):
            solve_embedding(M, d)
        return
    np.testing.assert_allclose(solve_embedding(M, d).eigenvalues, signal[:d],
                               rtol=1e-6, atol=10 * np.finfo(float).eps * vals[-1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_cost_matrices())
def test_null_threshold_scale_bounds_lambda_max(case):
    # the Gershgorin row-sum bound lies at or above the largest eigenvalue,
    # so the threshold never falls below NULL_TOL * lambda_max; mutual pairs
    # (K = 1) attain the bound, so eigvalsh's rounding is allowed for
    from adaptive_lle import embedding

    M, d = case
    thresholds = []
    sparse_bottom = embedding._sparse_bottom

    def spy(*args):
        found = sparse_bottom(*args)
        thresholds.append(found[0])
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "_sparse_bottom", spy)
        try:
            solve_embedding(M, d)
        except ValueError:
            pass
    lam_max = np.linalg.eigvalsh(M.toarray())[-1]
    assert thresholds[0] >= NULL_TOL * lam_max * (1 - 8 * np.finfo(float).eps)


def test_eigensolver_failures_are_numerical_errors(monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    M = roll_cost(300, init_identity(3))

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.zeros(0), np.zeros((300, 0)))

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    for name, failure in (("eigsh", no_convergence), ("splu", singular)):
        with monkeypatch.context() as patch:
            patch.setattr("scipy.sparse.linalg." + name, failure)
            with pytest.raises(NumericalError, match="sparse eigensolve failed"):
                solve_embedding(M, 2)


def modules_loaded_by_import(prefix):
    """Names of the modules under ``prefix`` that ``import adaptive_lle``
    loads, in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, adaptive_lle; "
            "print(sorted(m for m in sys.modules if m.startswith(%r)))" % prefix)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_does_not_load_scipy_sparse():
    # loading scipy.sparse at import time slowed every CLI start-up; the
    # embedding and residual code import it when they run
    assert modules_loaded_by_import("scipy.sparse") == "[]"


def test_import_does_not_load_scipy_spatial():
    # the neighbor search imports the KD-tree when it runs, for the same reason
    assert modules_loaded_by_import("scipy.spatial") == "[]"


def test_import_does_not_load_scipy():
    # no scipy module at all, scipy.linalg included: each is imported by the
    # code that uses it, when it runs
    assert modules_loaded_by_import("scipy") == "[]"
