"""Low-dimensional coordinates from the reconstruction weights.

The quadratic embedding cost is Y^T (I - W)^T (I - W) Y under zero-mean and
unit-covariance constraints, so the coordinates are eigenvectors of the
cost matrix for its smallest non-null eigenvalues.  Because every weight
row sums to one, the constant vector always spans (part of) the null space
and is discarded.

The cost matrix is sparse (about K^2 nonzeros per row) and only its bottom
eigenpairs are needed, so at every n they come from ARPACK in shift-invert
mode on one sparse LU factorization (Saul & Roweis, "Think Globally, Fit
Locally", JMLR 2003, section 5).  scipy.sparse is imported inside the
functions, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import NumericalError
from .reconstruction import WeightMatrix

# Both constants scale with lambda_hat, M's largest absolute row sum: a
# Gershgorin bound on lambda_max, 1.5-2.1 times it on the fits below.
# Eigenvalues at or below _NULL_TOL * lambda_hat count as null.  Of lambda_max,
# nulls lie <= 4e-18 on 1.5k-50k rolls and digits (1.2e-17 on iris), kept
# ones >= 2.4e-12 on 1.5k-16k rolls (1.6e-13 at 50k) and 2e-8 on digits and
# iris.  Nulls lie >= 340x below the threshold and kept ones 8000x above it on
# criteria 6-9's fits; 43x and 7e9x on the 100-component graphs, 5.9x and 150x
# on tiny exact null spaces, 1.9x below on 150 pairs.
_NULL_TOL = 2e-15

# Shift-invert pole sigma = -_SHIFT * lambda_hat.  Negative, so M - sigma*I
# is positive definite even on an exact null space (sigma = 0 makes the LU
# factor exactly singular there); small, so the bottom eigenvalues stay apart
# after the shift (with ncv 12: 13 LU solves on 1.5k-50k rolls and 22 at 200k,
# where -1e-10 with ncv 20 took 21 and 123); far above rounding, so solves
# stay accurate with a large null space (on a 100-component graph ARPACK's
# chosen eigenvalues lie 6e-8 relative off, 2e-12 after the Rayleigh-Ritz
# step; -1e-13 left iris's Y 4e-8 from a dense solve, against 1e-10 here).
_SHIFT = 1e-12


@dataclass
class EmbeddingResult:
    """Embedding coordinates plus fit diagnostics.

    Y has zero column means and (1/n) Y^T Y = I up to solver tolerance.
    ``eigenvalues`` are the d smallest above-null eigenvalues, ascending;
    ``null_eigenvalue`` is the largest eigenvalue that was treated as null.
    ``error_trace`` and ``eta_guard`` are filled by the fitting pipeline.
    """

    Y: np.ndarray
    eigenvalues: np.ndarray
    null_eigenvalue: float
    error_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    eta_guard: bool = False
    config: Any = None
    metric: Any = None  # final MetricState, for checkpointing


def embedding_matrix(W: WeightMatrix, n: int):
    """Sparse symmetric PSD cost matrix A^T A, in CSR form, of the operator
    A = I - W cached as ``W.operator`` (about K^2 entries per row).  Like an
    ndarray, it has ``nbytes``: the bytes of its data, indices and indptr.
    Annihilates the constant vector whenever every weight row sums to 1."""
    if W.n != n:
        raise ValueError("weight matrix has %d rows, expected %d" % (W.n, n))
    A = W.operator
    # A^T A comes out in CSC, unsorted: converting it sorts it in linear time;
    # sort_indices on its arrays read as CSR took 1.3-3x as long (16k-4k rolls)
    cost = (A.T @ A).tocsr()
    cost.nbytes = cost.data.nbytes + cost.indices.nbytes + cost.indptr.nbytes
    return cost


def _sparse_bottom(M, d: int, scale: float):
    """Threshold and ascending bottom eigenpairs of a sparse symmetric PSD M
    (CSR), whose largest eigenvalue is at most ``scale``: enough of them for
    d above the threshold ``_NULL_TOL * scale``, or all n."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    n = M.shape[0]
    if not scale:  # M is zero: every eigenvalue is null; ARPACK cannot start
        return 0.0, np.zeros(0), np.zeros((n, 0))
    # a fixed start vector: with a random one, repeated solves differ in the last bits
    v0 = np.random.default_rng(0).standard_normal(n)
    sigma, threshold = -_SHIFT * scale, _NULL_TOL * scale
    try:
        # M - sigma*I is positive definite: a symmetric ordering, no pivoting;
        # symmetric, so its CSR transposes to its own CSC without a copy
        lu = splu((M - sigma * identity(n, format="csr")).T,
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        inverse = LinearOperator((n, n), matvec=lu.solve, dtype=float)
        k = d + 1
        while True:
            # a c-component graph has a c-fold null eigenvalue; ARPACK
            # separates such a cluster only with more than 2k+1 vectors
            basis = eigsh(M, k=k, sigma=sigma, which="LM", v0=v0, OPinv=inverse,
                          ncv=min(n, max(3 * k + 1, 12)))[1]
            if k == n - 1:
                # ARPACK never returns the top pair; its direction is the
                # orthogonal complement of the other n-1
                basis = np.linalg.qr(basis, mode="complete")[0]
            # Rayleigh-Ritz on the returned subspace: ascending pairs, exact
            # to rounding even where repeated eigenvalues left ARPACK's
            # own vectors inaccurate
            projected = basis.T @ (M @ basis)
            vals, rotation = np.linalg.eigh((projected + projected.T) / 2)
            if np.count_nonzero(vals > threshold) >= d or k == n - 1:
                return threshold, vals, basis @ rotation
            k = min(2 * k, n - 1)  # a disconnected graph: more null vectors
    except RuntimeError as exc:  # ARPACK non-convergence, a singular LU factor
        raise NumericalError("sparse eigensolve failed: %s" % exc) from exc


def solve_embedding(M, d: int) -> EmbeddingResult:
    """Eigenvectors of the d smallest non-null eigenvalues, scaled to the
    embedding constraints.

    M may be dense or sparse.  Eigenvalues at or below ``_NULL_TOL`` times
    lambda_hat, M's largest absolute row sum (a Gershgorin bound on its
    eigenvalues), count as the null space and are skipped.  The bottom pairs
    come from ``eigsh`` in shift-invert mode at sigma = -``_SHIFT`` *
    lambda_hat, on one sparse LU factorization, refined by Rayleigh-Ritz on
    the subspace it returns.  The solve asks for d+1 pairs and doubles that
    while fewer than d lie above the threshold; at n-1 it completes the
    basis to all n pairs, so a graph too disconnected for d raises
    ``ValueError`` at any n.  The selected
    eigenvectors are scaled by sqrt(n) so that (1/n) Y^T Y = I.  Each
    column's sign makes positive the lowest-index entry among those within
    1e-12 (relative) of its largest magnitude.
    """
    from scipy.sparse import csr_matrix

    M = csr_matrix(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("cost matrix must be square")
    if not 1 <= d <= n - 2:
        raise ValueError("need 1 <= d <= n-2 (d=%d, n=%d)" % (d, n))
    asymmetry = abs(M - M.T).max()  # freed before abs(M) is built
    absolute = abs(M)
    if asymmetry > 1e-8 * max(1.0, float(absolute.max())):
        raise ValueError("cost matrix is not symmetric")
    scale = float(absolute.sum(axis=1).max())  # Gershgorin: >= every eigenvalue
    del absolute  # not held through the factorization
    threshold, vals, vecs = _sparse_bottom(M, d, scale)
    signal = np.flatnonzero(vals > threshold)
    if signal.size < d:
        raise ValueError(
            "only %d eigenvalues above the null threshold (need %d); "
            "the neighbor graph is too disconnected" % (signal.size, d))
    chosen = signal[:d]
    null_eigenvalue = float(vals[chosen[0] - 1]) if chosen[0] > 0 else float("nan")
    Y = np.sqrt(n) * vecs[:, chosen]
    # a nearly-degenerate null/signal gap lets the solver leak a sliver of
    # the constant direction into the selected vectors; the zero-mean
    # constraint is exact, so project it back out
    Y -= Y.mean(axis=0, keepdims=True)
    # magnitudes this close tie, so last-bit noise cannot pick a column's sign
    size = np.abs(Y)
    lead = np.argmax(size >= (1 - 1e-12) * size.max(axis=0), axis=0)
    Y *= np.where(Y[lead, np.arange(d)] < 0, -1.0, 1.0)
    return EmbeddingResult(Y=Y, eigenvalues=vals[chosen].copy(),
                           null_eigenvalue=null_eigenvalue)
