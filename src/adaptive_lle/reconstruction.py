"""Closed-form reconstruction weights, residuals, and the metric error.

Every function here works on points already mapped through the metric's
factor, Z = X L^T (formed by :mod:`adaptive_lle.pipeline`), where the metric
is Euclidean.  Each point is expressed as a sum-to-one combination of its
neighbors.  With the local Gram matrix G_i of inner products between the
mapped difference vectors from z_i to its neighbors, the optimal weights are
the normalized solution of G_i w = 1; a trace-scaled ridge keeps the solve
well-posed when neighbors are affinely dependent (always the case for K > D).

With the K mapped differences as the rows of B_i (K x D), G_i = B_i B_i^T,
and the ridged system is A_i = G_i + eps_i I.  When D < K the same weights
come from the D x D side (Woodbury; Hager, SIAM Review 1989):
eps_i A_i^-1 1 = 1 - B_i y_i with (B_i^T B_i + eps_i I) y_i = B_i^T 1.
:func:`solve_all_weights` solves that D x D system when reg > 0 and D < K,
and the K x K system of :func:`_gram_weights` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import DataMatrix
from .neighbors import NeighborIndex

DEFAULT_GRAM_REG = 1e-2
# float64 (block, K, D) difference stack per weight block, sized to stay in
# cache.  Measured on the K x K (D >= K) path: at n=1000, D=784, K=10 the
# gather plus the Gram stack took 36 ms per solve in 8-row blocks (1 << 19)
# against 62 ms in 267-row blocks (1 << 24) on a 2-CPU machine; np.take into
# a reused buffer was no faster
_BLOCK_BYTES = 1 << 19


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

    @cached_property
    def sparse(self):
        """W as an n x n CSR matrix with K entries per row, built on first use."""
        # imported here so that importing the package does not load scipy.sparse
        from scipy.sparse import csr_matrix

        n, K = self.ids.shape
        return csr_matrix((self.weights.ravel(), self.ids.ravel(),
                           np.arange(0, n * K + 1, K)), shape=(n, n))


def _gram_weights(gram: np.ndarray, reg: float) -> np.ndarray:
    """Sum-to-one weights of a (..., K, K) stack of Gram matrices, shape
    (..., K): solves (G + reg * trace(G)/K * I) w = 1 (reg >= 0) and
    normalizes w by its sum.  With reg = 0 a singular Gram matrix raises
    LinAlgError; a solution whose sum is not positive relative to the scale
    of the system (a degenerate neighborhood, or NaN) raises ValueError.
    """
    K = gram.shape[-1]
    system = gram.copy()
    if reg > 0:
        trace = np.einsum("...ii->...", system)
        diag = np.arange(K)
        system[..., diag, diag] += np.where(trace > 0, reg * trace / K, reg)[..., None]
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "local Gram matrix is singular; use a positive reg") from None
    w = np.linalg.solve(system, np.ones(system.shape[:-1] + (1,)))[..., 0]
    total = w.sum(axis=-1)
    # 1^T A^-1 1 >= K / trace(A) for positive definite A, so this is >= 1
    # unless the solve lost the sum to rounding, at any scale of the data
    if not np.all(total * np.einsum("...ii->...", system) / K > 1e-12):
        raise ValueError("degenerate neighborhood: weight normalizer is zero")
    return w / total[..., None]


def compute_residuals(X, W: WeightMatrix) -> np.ndarray:
    """Residual vectors r_i = x_i - sum_j w_ij x_j, shape (n, D).

    The weights act as one sparse n x n matrix (``W.sparse``), so X - W X is
    a single sparse product with no (n, K, D) gather.  X may equally be the
    mapped points Z = X L^T, whose residuals are those of X mapped through L.
    """
    values = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)
    return values - W.sparse @ values


def reconstruction_error(residuals) -> float:
    """Total reconstruction error: the squared norm of the mapped residuals
    (rows of Z - W Z), which is sum_i r_i^T M r_i of the residuals in X."""
    R = np.asarray(residuals, dtype=float)
    with np.errstate(over="ignore"):
        return float(np.sum(R * R))


def _woodbury_weights(diffs: np.ndarray, cov: np.ndarray, trace: np.ndarray,
                      reg: float) -> np.ndarray:
    """:func:`_gram_weights` of the Gram stack B B^T, solved from
    the D x D side (see the module docstring): ``diffs`` is the (b, K, D)
    stack B, ``cov`` its stack C = B^T B (overwritten), ``trace`` tr(C) =
    tr(B B^T), and reg > 0.  For w = eps A^-1 1, the degenerate-neighborhood
    test 1^T A^-1 1 tr(A)/K > 1e-12 reads sum(w) (tr(C) + K eps) > 1e-12 K eps.
    """
    K, dim = diffs.shape[-2:]
    ridge = np.where(trace > 0, reg * trace / K, reg)
    diag = np.arange(dim)
    cov[:, diag, diag] += ridge[:, None]
    y = np.linalg.solve(cov, diffs.sum(axis=1)[..., None])
    w = 1.0 - (diffs @ y)[..., 0]
    total = w.sum(axis=-1)
    if not np.all(total * (trace + K * ridge) > 1e-12 * K * ridge):
        raise ValueError("degenerate neighborhood: weight normalizer is zero")
    return w / total[:, None]


def solve_all_weights(Z, neighbors: NeighborIndex,
                      reg: float = DEFAULT_GRAM_REG) -> WeightMatrix:
    """Closed-form weights for every row of the mapped points Z = X L^T.

    Each local Gram matrix is made of plain inner products of mapped
    difference vectors.  Blocks of rows, sized by ``_BLOCK_BYTES`` to stay
    in cache, are solved together, so the weights do not depend on the block
    size.  Each block gathers the (b, K, D) stack of differences
    B = Z[i] - Z[ids[i]], and the shape picks the side of the identity in
    the module docstring:

    - reg > 0 and D < K: the stack B^T B, one D x D system per point;
    - reg = 0 or D >= K: the Gram stack B B^T goes to :func:`_gram_weights`
      (LinAlgError if singular at reg = 0).

    Both match a per-point K x K solve up to the rounding of each solve.
    ValueError if reg < 0, or if Z's squared differences overflow float64.
    """
    if reg < 0:
        raise ValueError("reg must be non-negative")
    Z = np.asarray(Z, dtype=float)
    n, K = neighbors.ids.shape
    dim = Z.shape[1]
    woodbury = reg > 0 and dim < K
    weights = np.empty((n, K))
    block = max(1, _BLOCK_BYTES // (8 * K * max(dim, 1)))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = Z[rows, None, :] - Z[neighbors.ids[rows]]   # (b, K, D)
            if woodbury:
                gram = diffs.transpose(0, 2, 1) @ diffs
            else:
                gram = diffs @ diffs.transpose(0, 2, 1)
            # the sum of the squared differences: a finite trace bounds
            # every entry of either stack
            trace = np.einsum("...ii->...", gram)
        if not np.all(np.isfinite(trace)):
            raise ValueError("squared distances overflow float64")
        if woodbury:
            weights[rows] = _woodbury_weights(diffs, gram, trace, reg)
        else:
            weights[rows] = _gram_weights(gram, reg)
    return WeightMatrix(ids=neighbors.ids.copy(), weights=weights)
