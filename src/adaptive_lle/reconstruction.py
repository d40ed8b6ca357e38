"""Closed-form reconstruction weights, residuals, and the metric error.

Each point is expressed as a sum-to-one combination of its neighbors.  With
the local Gram matrix G_i of metric inner products between the difference
vectors from x_i to its neighbors, the optimal weights are the normalized
solution of G_i w = 1; a trace-scaled ridge keeps the solve well-posed when
neighbors are affinely dependent (always the case for K > D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .data import DataMatrix
from .metric import MetricState
from .neighbors import NeighborIndex

DEFAULT_GRAM_REG = 1e-2
_BLOCK_BYTES = 1 << 24  # float64 (block, K, D) difference stack per weight block


@dataclass
class WeightMatrix:
    """Sparse reconstruction weights: row i is supported on ids[i] and sums to 1.

    Negative weights are allowed; only the sum-to-one constraint is enforced.
    """

    ids: np.ndarray      # (n, K) int
    weights: np.ndarray  # (n, K) float

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def k(self) -> int:
        return self.ids.shape[1]


def local_gram(x, neighbors, state: MetricState) -> np.ndarray:
    """K x K Gram matrix of metric inner products of x minus each neighbor.

    ``neighbors`` holds the K neighbor vectors as columns (shape (D, K)).
    Computed as B^T B with B = L (x 1^T - X_i), so the result is symmetric
    PSD by construction.
    """
    x = np.asarray(x, dtype=float)
    neighbors = np.asarray(neighbors, dtype=float)
    if neighbors.ndim != 2 or neighbors.shape[0] != x.shape[0]:
        raise ValueError("neighbors must be a (D, K) matrix matching x")
    if x.shape[0] != state.dim:
        raise ValueError("metric dimension does not match the vectors")
    B = state.L @ (x[:, None] - neighbors)
    return B.T @ B


def reconstruction_weights(gram: np.ndarray, reg: float = DEFAULT_GRAM_REG) -> np.ndarray:
    """Sum-to-one weights minimizing the local reconstruction error.

    Solves (G + reg * trace(G)/K * I) w = 1 and normalizes w by its sum.
    With reg = 0 a singular Gram matrix raises; a degenerate neighborhood
    whose solution sums to ~0 raises ValueError.
    """
    gram = np.asarray(gram, dtype=float)
    K = gram.shape[0]
    if gram.shape != (K, K):
        raise ValueError("gram must be square")
    if reg < 0:
        raise ValueError("reg must be non-negative")
    system = gram
    if reg > 0:
        trace = float(np.trace(gram))
        ridge = reg * trace / K if trace > 0 else reg
        system = gram + ridge * np.eye(K)
    try:
        w = cho_solve(cho_factor(system), np.ones(K))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "local Gram matrix is singular; use a positive reg") from None
    total = float(w.sum())
    if abs(total) < 1e-12:
        raise ValueError("degenerate neighborhood: weight normalizer is zero")
    return w / total


def compute_residuals(X, neighbors: NeighborIndex, W: WeightMatrix) -> np.ndarray:
    """Residual vectors r_i = x_i - sum_j w_ij x_j, shape (n, D).

    The weights act as one sparse n x n matrix with K entries per row, so
    X - W X is a single sparse product with no (n, K, D) gather.
    """
    # imported here so that importing the package does not load scipy.sparse
    from scipy.sparse import csr_matrix

    values = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)
    if W.ids.shape != neighbors.ids.shape or np.any(W.ids != neighbors.ids):
        raise ValueError("weight rows are not aligned with the neighbor index")
    n, K = W.ids.shape
    indptr = np.arange(0, n * K + 1, K)
    sparse_w = csr_matrix((W.weights.ravel(), W.ids.ravel(), indptr),
                          shape=(n, values.shape[0]))
    return values - sparse_w @ values


def reconstruction_error(residuals, state: MetricState) -> float:
    """Total reconstruction error sum_i r_i^T M r_i under the metric."""
    R = np.asarray(residuals, dtype=float)
    if R.size == 0:
        return 0.0
    if R.ndim == 1:
        R = R[None, :]
    with np.errstate(over="ignore"):
        transformed = R @ state.L.T
        return float(np.sum(transformed * transformed))


def solve_all_weights(X, neighbors: NeighborIndex, state: MetricState,
                      reg: float = DEFAULT_GRAM_REG) -> WeightMatrix:
    """Closed-form weights for every point under the metric.

    The data is mapped through L once so each local Gram matrix reduces to
    plain inner products of transformed difference vectors.  Blocks of rows
    are solved together: a batched Gram product, the trace-scaled ridge of
    :func:`reconstruction_weights`, a batched Cholesky factorization (which
    rejects a singular system, as the per-point solve does) and a batched
    solve.  The result matches per-point :func:`local_gram` plus
    :func:`reconstruction_weights` up to floating-point association order.
    """
    if reg < 0:
        raise ValueError("reg must be non-negative")
    values = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)
    Z = values @ state.L.T
    n, K = neighbors.ids.shape
    weights = np.empty((n, K))
    block = max(1, _BLOCK_BYTES // (8 * K * max(Z.shape[1], 1)))
    diag = np.arange(K)
    for start in range(0, n, block):
        rows = slice(start, start + block)
        diffs = Z[rows, None, :] - Z[neighbors.ids[rows]]   # (b, K, D)
        system = diffs @ diffs.transpose(0, 2, 1)
        if reg > 0:
            trace = np.einsum("bii->b", system)
            system[:, diag, diag] += np.where(trace > 0, reg * trace / K, reg)[:, None]
        try:
            np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "local Gram matrix is singular; use a positive reg") from None
        w = np.linalg.solve(system, np.ones((system.shape[0], K, 1)))[..., 0]
        total = w.sum(axis=1)
        if np.any(np.abs(total) < 1e-12):
            raise ValueError("degenerate neighborhood: weight normalizer is zero")
        weights[rows] = w / total[:, None]
    return WeightMatrix(ids=neighbors.ids.copy(), weights=weights)
