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

from .data import DataMatrix, load_csv, write_csv
from .errors import NumericalError

# smallest eigenvalue below which a direct update is flagged as indefinite
PSD_WARN_TOL = -1e-8

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MetricState:
    """Metric M = L^T L with optional Adam moment accumulators.

    ``L`` is the canonical state; M is derived on demand.  ``step`` counts
    applied updates.  ``psd_warning`` is set by a direct-M update whose raw
    result was indefinite before repair.
    """

    L: np.ndarray
    step: int = 0
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    psd_warning: bool = False

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


def residual_gradient_M(residuals) -> np.ndarray:
    """Gradient of sum_i r_i^T M r_i with respect to M: the residual scatter
    S = sum_i r_i r_i^T (a 1-D input is one row), the input of every step
    and of the stability bound."""
    R = np.atleast_2d(np.asarray(residuals, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        return R.T @ R


def gradient_L(state: MetricState, S: np.ndarray) -> np.ndarray:
    """Gradient of the error with respect to the factor: 2 L S."""
    return 2.0 * state.L @ S


def _factor_from_psd(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigendecompose M, clamp negative eigenvalues to 0, return (L, min_eig)."""
    vals, vecs = np.linalg.eigh((M + M.T) / 2.0)
    clamped = np.maximum(vals, 0.0)
    # rows sqrt(lambda_k) v_k^T give L^T L = V diag(lambda) V^T
    L = (np.sqrt(clamped)[:, None] * vecs.T)
    return L, float(vals[0])


def sgd_update_M(state: MetricState, S: np.ndarray, eta: float) -> MetricState:
    """One direct gradient step M <- M - eta * S, S the residual scatter.

    Direct steps can leave the PSD cone; the result is re-projected by
    clamping negative eigenvalues to zero so distances stay well-defined,
    and ``psd_warning`` is set when that happened beyond tolerance.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        M = state.matrix - eta * S
    if not np.all(np.isfinite(M)):
        raise NumericalError("direct metric update produced non-finite entries")
    L, min_eig = _factor_from_psd(M)
    return MetricState(L, step=state.step + 1, psd_warning=min_eig < PSD_WARN_TOL)


def sgd_update_L(state: MetricState, S: np.ndarray, eta: float) -> MetricState:
    """One factored gradient step L <- L - 2*eta*L*S, S the residual scatter."""
    with np.errstate(over="ignore", invalid="ignore"):
        L = state.L - 2.0 * eta * state.L @ S
    if not np.all(np.isfinite(L)):
        raise NumericalError("factored metric update produced non-finite entries")
    return MetricState(L, step=state.step + 1, adam_m=state.adam_m,
                       adam_v=state.adam_v)


def adam_update_L(state: MetricState, gradient: np.ndarray,
                  eta: float) -> MetricState:
    """One Adam step on the factor with bias-corrected moments."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != state.L.shape:
        raise ValueError("gradient shape does not match the factor")
    m = state.adam_m if state.adam_m is not None else np.zeros_like(state.L)
    v = state.adam_v if state.adam_v is not None else np.zeros_like(state.L)
    t = state.step + 1
    with np.errstate(over="ignore", invalid="ignore"):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        L = state.L - eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.all(np.isfinite(L)):
        raise NumericalError("Adam metric update produced non-finite entries")
    return MetricState(L, step=t, adam_m=m, adam_v=v)


def learning_rate_bound(S: np.ndarray) -> float:
    """Stability bound 2 / lambda_max(S) of the residual scatter S.

    This is the classic gradient-descent bound eta < 2 / (largest
    curvature) for a step whose error is quadratic with curvature
    lambda_max.  It is the threshold the guard uses for the direct-M and
    Adam steps; the factored SGD step is guarded at half of it (see
    :func:`eta_threshold`).  Returns ``math.inf`` when S = 0 (no curvature
    to bound).  The full eigensolve costs O(D^3); a fit calls this only
    when the O(D^2) bound lambda_max <= ||S||_F cannot settle the guard.
    """
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


def eta_threshold(config, bound: float) -> float:
    """Learning rate at or above which the guard fires for ``config``'s step
    (a :class:`~adaptive_lle.pipeline.PipelineConfig`).

    ``bound`` is :func:`learning_rate_bound` of the residual scatter S,
    2/lambda_max(S).  The factored SGD step L <- L (I - 2 eta S) multiplies
    the error along an eigenvector of S with eigenvalue lambda by
    (1 - 2 eta lambda)^2, so the error first rises above
    eta = 1/lambda_max: that step's threshold is ``bound / 2``.  The
    direct-M step (error linear in M, so it never rises) and Adam (a
    sign-like step) are guarded at ``bound`` itself.
    """
    if config.optimizer == "sgd" and config.metric_mode == "factorL":
        return bound / 2.0
    return bound


def clamp_eta(config, bound: float) -> float:
    """``config``'s eta, or 0.9x the threshold of its step
    (:func:`eta_threshold` of the stability bound ``bound``) when eta has
    reached that threshold."""
    threshold = eta_threshold(config, bound)
    return 0.9 * threshold if config.eta >= threshold else config.eta
