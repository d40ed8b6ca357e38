"""Closed-form reconstruction weights, residuals, and the metric error.

Every function here works on points already mapped through the metric's
factor, Z = X L^T (formed by :mod:`adaptive_lle.pipeline`), where the metric
is Euclidean.  Each point is expressed as a sum-to-one combination of its
neighbors.  With the local Gram matrix G_i of inner products between the
mapped difference vectors from z_i to its neighbors, the optimal weights are
the normalized solution of G_i w = 1; a trace-scaled ridge keeps the solve
well-posed when neighbors are affinely dependent (always the case for K > D).
The weights have one sparse form, A = I - W (:attr:`WeightMatrix.operator`):
the residuals are A X, and :mod:`adaptive_lle.embedding`'s cost is A^T A.

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

from .data import DataMatrix, _finite, row_blocks
from .neighbors import NeighborIndex, _rescaled

DEFAULT_GRAM_REG = 1e-2
# float64 (block, K, D) difference stack per weight block, and (block, D)
# rows per block of an epoch's error and of Adam's last update, sized to stay
# in cache.  Measured on the K x K (D >= K) path at n=1000, D=784, K=10 on a
# 2-CPU machine: a whole pass took a median 26 ms in 4- or 8-row blocks
# (1 << 19 is 8 rows), 28-31 ms in 16- to 66-row blocks and 39 ms in 267-row
# blocks; np.take into a reused buffer was no faster
_BLOCK_BYTES = 1 << 19


@dataclass
class WeightMatrix:
    """Sparse reconstruction weights: row i is supported on ids[i] and sums
    to 1; negative weights are allowed."""

    ids: np.ndarray      # (n, K) int
    weights: np.ndarray  # (n, K) float

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @cached_property
    def operator(self):
        """A = I - W, an n x n CSR matrix built on first use: K+1 entries per
        row, the diagonal last, so row i of A X sums -w_ij x_j and then adds
        x_i, which rounds as x_i - (W X)_i.  A self id in W is a second
        diagonal entry, which every product adds in."""
        # imported here so that importing the package does not load scipy.sparse
        from scipy.sparse import csr_matrix

        n, K = self.ids.shape
        cols = np.concatenate([self.ids, np.arange(n)[:, None]], axis=1)
        vals = np.concatenate([-self.weights, np.ones((n, 1))], axis=1)
        indptr = np.arange(0, cols.size + 1, K + 1)
        return csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(n, n))


def _solved(systems: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """``np.linalg.solve`` of a stack of local systems, whose LinAlgError
    names the singular local ``name`` instead of a bare 'Singular matrix'."""
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("local %s is singular" % name) from None


def _ridged(systems: np.ndarray, K: int, reg: float) -> tuple[np.ndarray, np.ndarray]:
    """Add eps = reg * tr/K (reg where tr = 0, 0 at reg = 0) in place to the
    diagonal of a (..., m, m) stack of B B^T or B^T B, B with K rows; return
    the traces before it and eps.  A trace sums B's squares, so a finite one
    bounds every entry of its matrix: ValueError if any overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.einsum("...ii->...", systems)
    if not np.all(np.isfinite(trace)):
        raise ValueError("squared distances overflow float64")
    eps = np.where(trace > 0, reg * trace / K, reg)
    diag = np.arange(systems.shape[-1])
    systems[..., diag, diag] += eps[..., None]
    return trace, eps


def _normalized(w: np.ndarray, trace: np.ndarray, eps: np.ndarray, s) -> np.ndarray:
    """w / sum(w) for w = s A^-1 1 of the ridged systems A, tr(A) = trace +
    K eps.  As 1^T A^-1 1 >= K / tr(A) for positive definite A, ValueError
    unless sum(w) is finite and sum(w) tr(A) > 1e-12 K s, at any scale of the
    data: else the solve lost the sum to rounding, overflow or NaN."""
    K = w.shape[-1]
    total = w.sum(axis=-1)
    if not np.all(np.isfinite(total) & (total * (trace + K * eps) > 1e-12 * K * s)):
        raise ValueError("degenerate neighborhood: weight normalizer is zero")
    return w / total[..., None]


def _gram_weights(gram: np.ndarray, reg: float) -> np.ndarray:
    """Sum-to-one weights, shape (..., K), of a (..., K, K) stack of Gram
    matrices G (overwritten by their ridge, :func:`_ridged`): the solution of
    (G + eps I) w = 1 over its sum (:func:`_normalized`).  A singular Gram
    matrix raises LinAlgError (at reg > 0 only where rounding or underflow
    loses the ridge, as at a reg of 1e-16 or on subnormal squares)."""
    trace, eps = _ridged(gram, gram.shape[-1], reg)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        hint = "; use a positive reg" if reg == 0 else ""
        raise np.linalg.LinAlgError("local Gram matrix is singular" + hint) from None
    w = _solved(gram, np.ones(gram.shape[:-1] + (1,)), "Gram matrix")[..., 0]
    return _normalized(w, trace, eps, 1.0)


def compute_residuals(X, W: WeightMatrix, rows: slice | None = None) -> np.ndarray:
    """Residual vectors r_i = x_i - sum_j w_ij x_j, shape (n, D), or of the
    ``rows`` a slice selects: the rows of (I - W) X, one sparse product with
    ``W.operator`` and no (n, K, D) gather.  X may equally be the mapped
    points Z = X L^T, whose residuals are those of X mapped through L.
    """
    values = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)
    return (W.operator if rows is None else W.operator[rows]) @ values


def reconstruction_error(residuals) -> float:
    """Total reconstruction error: the squared norm of the mapped residuals
    (rows of Z - W Z), which is sum_i r_i^T M r_i of the residuals in X.
    The squares are summed without an array of them."""
    r = np.asarray(residuals, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.einsum("i,i->", r, r))


def _woodbury_weights(diffs: np.ndarray, cov: np.ndarray, reg: float) -> np.ndarray:
    """:func:`_gram_weights` of the Gram stack B B^T from the D x D side (see
    the module docstring): ``diffs`` is the (b, K, D) stack B, ``cov`` its
    stack C = B^T B (overwritten), tr(C) scales the ridge, and reg > 0."""
    trace, eps = _ridged(cov, diffs.shape[-2], reg)
    y = _solved(cov, diffs.sum(axis=1)[..., None], "D x D system B^T B + eps I")
    return _normalized(1.0 - (diffs @ y)[..., 0], trace, eps, eps)


def solve_all_weights(Z, neighbors: NeighborIndex,
                      reg: float = DEFAULT_GRAM_REG) -> WeightMatrix:
    """Closed-form weights for every row of the mapped points Z = X L^T.

    Each local Gram matrix is made of plain inner products of mapped
    difference vectors.  Blocks of rows, sized by ``_BLOCK_BYTES`` to stay
    in cache, gather the (b, K, D) stack of differences
    B = Z[i] - Z[ids[i]] in place, and the shape picks the side of the
    identity in the module docstring:

    - reg > 0 and D < K: each block's stack B^T B, one D x D system per
      point, solved with the block;
    - reg = 0 or D >= K: each block writes its Gram matrices B B^T into one
      (n, K, K) stack, and one :func:`_gram_weights` call solves all n
      (LinAlgError if singular at reg = 0).

    Every solve is per point, so the weights do not depend on the block
    size, and both paths match a per-point K x K solve up to the rounding
    of each solve.  The weights do not depend on Z's scale either, so tiny
    Z is solved scaled up by a power of two
    (:func:`~adaptive_lle.neighbors._rescaled`).  ValueError unless
    0 <= reg < inf, if Z holds a NaN or Inf, or if its squared differences
    overflow float64.
    """
    if not 0 <= reg < np.inf:
        raise ValueError("reg must be non-negative and finite")
    Z = _rescaled(_finite(Z))[0]
    n, K = neighbors.ids.shape
    dim = Z.shape[1]
    woodbury = reg > 0 and dim < K
    weights = np.empty((n, K))
    gram = None if woodbury else np.empty((n, K, K))
    for rows in row_blocks(n, 8 * K * dim, _BLOCK_BYTES):
        diffs = Z[neighbors.ids[rows]]                          # (b, K, D)
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(Z[rows, None, :], diffs, out=diffs)     # z_i - z_j
            if not woodbury:
                np.matmul(diffs, diffs.transpose(0, 2, 1), out=gram[rows])
                continue
            cov = diffs.transpose(0, 2, 1) @ diffs
        weights[rows] = _woodbury_weights(diffs, cov, reg)
    if not woodbury:
        weights = _gram_weights(gram, reg)
    return WeightMatrix(ids=neighbors.ids.copy(), weights=weights)
