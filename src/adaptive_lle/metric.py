"""Learned Mahalanobis metric: state and update rules.

The metric M is kept in factored form M = L^T L, so it is positive
semi-definite by construction.  Updates either act on the factor L directly
(``factorL`` mode, PSD for free) or on M itself (``directM`` mode, repaired
by clamping negative eigenvalues to zero whenever a step leaves the PSD
cone).  The updates and the stability bound read the residuals only
through their scatter S = sum_i r_i r_i^T (:func:`residual_gradient_M`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, load_csv, row_blocks, write_csv
from .errors import NumericalError
from .reconstruction import _BLOCK_BYTES

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MetricState:
    """Metric M = L^T L with optional Adam moment accumulators.

    ``L`` is the canonical state; M is derived on demand.  ``step`` counts
    applied updates.
    """

    L: np.ndarray
    step: int = 0
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=float)
        if self.L.ndim != 2 or self.L.shape[0] != self.L.shape[1]:
            raise ValueError("L must be a square matrix")
        if not np.all(np.isfinite(self.L)):
            raise ValueError("L contains NaN or Inf")

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The metric M = L^T L (symmetric PSD)."""
        return self.L.T @ self.L


def init_identity(dim: int) -> MetricState:
    """Identity metric: distances reduce to Euclidean."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return MetricState(np.eye(dim))


def _check_eta(eta: float) -> None:
    """The learning rate every step and ``PipelineConfig`` accept."""
    if not 0 < eta < math.inf:
        raise ValueError("learning rate eta must be positive and finite")


def residual_gradient_M(residuals) -> np.ndarray:
    """Gradient of sum_i r_i^T M r_i with respect to M: the residual scatter
    S = sum_i r_i r_i^T (a 1-D input is one row), the input of every step
    and of the stability bound."""
    R = np.atleast_2d(np.asarray(residuals, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        return R.T @ R


def gradient_L(state: MetricState, S: np.ndarray) -> np.ndarray:
    """Gradient of the error with respect to the factor: 2 L S."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * state.L @ S


def _factor_from_psd(M: np.ndarray) -> np.ndarray:
    """Eigendecompose M, clamp negative eigenvalues to 0, return a factor L."""
    vals, vecs = np.linalg.eigh((M + M.T) / 2.0)
    # rows sqrt(lambda_k) v_k^T, lambda_k clamped at 0, give L^T L = V diag(lambda) V^T
    return np.sqrt(np.maximum(vals, 0.0))[:, None] * vecs.T


def sgd_update_M(state: MetricState, S: np.ndarray, eta: float) -> MetricState:
    """One direct gradient step M <- M - eta * S, S the residual scatter.

    Direct steps can leave the PSD cone; the result is re-projected by
    clamping negative eigenvalues to zero so distances stay well-defined.
    """
    _check_eta(eta)
    with np.errstate(over="ignore", invalid="ignore"):
        M = state.matrix - eta * S
    if not np.all(np.isfinite(M)):
        raise NumericalError("direct metric update produced non-finite entries")
    return MetricState(_factor_from_psd(M), step=state.step + 1)


def sgd_update_L(state: MetricState, S: np.ndarray, eta: float) -> MetricState:
    """One factored gradient step L <- L - 2*eta*L*S, S the residual scatter;
    L S is formed once and updated in place."""
    _check_eta(eta)
    with np.errstate(over="ignore", invalid="ignore"):
        L = state.L @ S
        L *= -2.0 * eta
        L += state.L
    if not np.all(np.isfinite(L)):
        raise NumericalError("factored metric update produced non-finite entries")
    return MetricState(L, step=state.step + 1)


def adam_update_L(state: MetricState, gradient: np.ndarray,
                  eta: float) -> MetricState:
    """One Adam step on the factor with bias-corrected moments.

    The new moments and factor are fresh arrays, updated in place in the
    order of the textbook expressions, so they equal them bit for bit and
    the state's arrays are never written.  Beyond its inputs the step holds
    those three D x D arrays and one row block of the last update.
    """
    _check_eta(eta)
    g = np.asarray(gradient, dtype=float)
    if g.shape != state.L.shape:
        raise ValueError("gradient shape does not match the factor")
    t = state.step + 1
    with np.errstate(over="ignore", invalid="ignore"):
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g; L holds each last term
        L = np.multiply(g, 1.0 - ADAM_BETA1)
        m = np.zeros_like(L) if state.adam_m is None else ADAM_BETA1 * state.adam_m
        m += L
        np.multiply(g, 1.0 - ADAM_BETA2, out=L)
        L *= g
        v = np.zeros_like(L) if state.adam_v is None else ADAM_BETA2 * state.adam_v
        v += L
        # L = L0 - eta m_hat / (sqrt(v_hat) + eps): L holds the denominator,
        # then each row block its update
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=L)
        np.sqrt(L, out=L)
        L += ADAM_EPS
        for rows in row_blocks(L.shape[0], 8 * L.shape[1], _BLOCK_BYTES):
            step = m[rows] / (1.0 - ADAM_BETA1 ** t)
            step *= eta
            step /= L[rows]
            np.subtract(state.L[rows], step, out=L[rows])
            del step  # else the next block's is made while this one is held
    if not np.all(np.isfinite(L)):
        raise NumericalError("Adam metric update produced non-finite entries")
    return MetricState(L, step=t, adam_m=m, adam_v=v)


def learning_rate_bound(S: np.ndarray) -> float:
    """Stability bound 2 / lambda_max(S) of the residual scatter S.

    This is the classic gradient-descent bound eta < 2 / (largest
    curvature) for a step whose error is quadratic with curvature
    lambda_max.  It is the threshold the guard uses for the direct-M and
    Adam steps; the factored SGD step is guarded at half of it (see
    :func:`adaptive_lle.pipeline._step`).  Returns ``math.inf`` when S = 0
    (no curvature to bound); NumericalError when S holds NaN or Inf.  The
    full eigensolve costs O(D^3); a fit calls this only when the O(D^2)
    bound lambda_max <= ||S||_F cannot settle the guard.
    """
    if not np.all(np.isfinite(S)):
        raise NumericalError("residual scatter is not finite")
    lmax = float(np.linalg.eigvalsh(S)[-1])
    return math.inf if lmax <= 0 else 2.0 / lmax


def save_metric(state: MetricState, path) -> None:
    """Write the factor L as a headerless D x D CSV (one matrix row per line)."""
    write_csv(DataMatrix(state.L), path, include_header=False)


def load_metric(path) -> MetricState:
    """Read a factor L written by :func:`save_metric`."""
    L = load_csv(path).values
    if L.shape[0] != L.shape[1]:
        raise ValueError("metric file must hold a square matrix, got %s"
                         % (L.shape,))
    return MetricState(L)

