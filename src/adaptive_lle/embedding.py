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

# Relative eigenvalue threshold: eigenvalues at or below _NULL_TOL * lambda_max
# count as the null space.  It separates the floating-point null space
# (observed <= ~2e-16 of lambda_max) from the smallest genuine embedding
# eigenvalues (observed >= ~2e-14 of lambda_max on 1k-point benchmarks, and
# 2.8e-13 of it on a 50k-point roll).
_NULL_TOL = 2e-15

# Shift-invert pole sigma = -_SHIFT * lambda_max.  Negative, so M - sigma*I
# is positive definite even on an exact null space (sigma = 0 makes the LU
# factor exactly singular there); small, so the bottom eigenvalues stay
# apart after the shift (-1e-3 took 460 s at n=4000, -1e-9 twice the solves
# of -1e-10 at n=50000); far above rounding, so solves stay accurate with a
# large null space (on a 100-component graph, -2e-15 moved ARPACK's
# eigenvalues by 2e-5 relative and -1e-10 by 1e-9, 2e-9 and 2e-12 after the
# Rayleigh-Ritz step).
_SHIFT = 1e-10


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

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def dim(self) -> int:
        return self.Y.shape[1]


def embedding_matrix(W: WeightMatrix, n: int):
    """Sparse symmetric PSD cost matrix (I - W)^T (I - W), in CSR form.

    I - W has K+1 entries per row (a self id in W adds to the diagonal), so
    the product has about K^2.  Like an ndarray, the result has ``nbytes``:
    the bytes of its data, indices and indptr.  Annihilates the constant
    vector whenever every weight row sums to 1.
    """
    from scipy.sparse import csr_matrix

    if W.n != n:
        raise ValueError("weight matrix has %d rows, expected %d" % (W.n, n))
    cols = np.concatenate([np.arange(n)[:, None], W.ids], axis=1)
    vals = np.concatenate([np.ones((n, 1)), -W.weights], axis=1)
    A = csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, cols.size + 1, W.k + 1)),
                   shape=(n, n))
    A.sum_duplicates()
    cost = (A.T @ A).tocsr()
    cost.nbytes = cost.data.nbytes + cost.indices.nbytes + cost.indptr.nbytes
    return cost


def _sparse_bottom(M, d: int):
    """Threshold and ascending bottom eigenpairs of a sparse PSD M: enough of
    them for d above the threshold, or all n."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    n = M.shape[0]
    if not M.data.any():  # every eigenvalue is null; ARPACK cannot start
        return 0.0, np.zeros(0), np.zeros((n, 0))
    # a fixed start vector: with a random one, repeated solves differ in the
    # last bits
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        lam_max = float(eigsh(M, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])
        sigma = -_SHIFT * lam_max
        # M - sigma*I is positive definite: a symmetric ordering, no pivoting
        lu = splu((M - sigma * identity(n, format="csr")).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        inverse = LinearOperator((n, n), matvec=lu.solve, dtype=float)
        threshold = _NULL_TOL * lam_max
        k = d + 1
        while True:
            # a c-component graph has a c-fold null eigenvalue; ARPACK
            # separates such a cluster only with more than 2k+1 vectors
            basis = eigsh(M, k=k, sigma=sigma, which="LM", v0=v0, OPinv=inverse,
                          ncv=min(n, max(3 * k + 1, 20)))[1]
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
    lambda_max count as the null space and are skipped; lambda_max comes
    from ARPACK (``eigsh``, ``which="LA"``).  The bottom pairs come from
    ``eigsh`` in shift-invert mode at sigma = -``_SHIFT`` * lambda_max,
    refined by Rayleigh-Ritz on the subspace it returns.  The solve asks
    for d+1 pairs and doubles that while fewer than d lie above the
    threshold; at n-1 it completes the basis to all n pairs, so a graph too
    disconnected for d raises ``ValueError`` at any n.  The selected
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
    if abs(M - M.T).max() > 1e-8 * max(1.0, float(abs(M).max())):
        raise ValueError("cost matrix is not symmetric")
    threshold, vals, vecs = _sparse_bottom(M, d)
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
    for j in range(d):
        # magnitudes this close tie, so last-bit noise cannot pick the sign
        size = np.abs(Y[:, j])
        lead = np.argmax(size >= (1 - 1e-12) * size.max())
        if Y[lead, j] < 0:
            Y[:, j] = -Y[:, j]
    return EmbeddingResult(Y=Y, eigenvalues=vals[chosen].copy(),
                           null_eigenvalue=null_eigenvalue)
