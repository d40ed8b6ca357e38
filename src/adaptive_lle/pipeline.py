"""End-to-end fitting: alternate closed-form weights with metric updates,
then solve the embedding eigenproblem.

A fit starts from the Euclidean metric (the identity factor) unless
``fit_alle`` is handed an ``initial_state``; it draws no random numbers.
``fit_lle`` is the special case with zero metric-update epochs, so it
equals ``fit_alle`` run with ``max_epochs=0`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import DataMatrix, _finite
from .embedding import EmbeddingResult, embedding_matrix, solve_embedding
from .errors import NumericalError
from .metric import (MetricState, adam_update_L, clamp_eta, eta_threshold,
                     gradient_L, init_identity, learning_rate_bound,
                     residual_gradient_M, sgd_update_L, sgd_update_M)
from .neighbors import knn
from .reconstruction import (DEFAULT_GRAM_REG, compute_residuals,
                             reconstruction_error, solve_all_weights)

# stop after this many consecutive epochs with relative error change < 1e-9
STALL_EPOCHS = 3
STALL_REL_TOL = 1e-9
# eta * ||S||_F must clear the guard's threshold by this relative margin to
# settle the guard without lambda_max: it covers the rounding of ||S||_F
# (at most about D^2 eps relative) and of eigvalsh's lambda_max (about
# D eps relative to ||S||_2), which stays below it for D up to about 10^4
FROBENIUS_MARGIN = 1e-6


@dataclass
class PipelineConfig:
    """Everything needed to reproduce a fit from its starting metric.

    Each epoch's metric step is set by ``optimizer`` ('sgd' or 'adam'), its
    learning rate ``eta`` (> 0) and ``metric_mode``: 'factorL' updates L
    (PSD by construction), 'directM' updates M and repairs it by eigenvalue
    clamping when a step leaves the PSD cone; Adam steps need 'factorL'.
    ``recompute_neighbors`` is 'never' (neighborhoods fixed before the
    epoch loop) or 'every_epoch' (re-searched under the current metric).
    """

    n_components: int = 2
    n_neighbors: int = 10
    max_epochs: int = 50
    optimizer: str = "sgd"
    eta: float = 1e-3
    metric_mode: str = "factorL"
    recompute_neighbors: str = "never"
    gram_reg: float = DEFAULT_GRAM_REG

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if self.metric_mode not in ("factorL", "directM"):
            raise ValueError("metric_mode must be 'factorL' or 'directM'")
        if not self.eta > 0:
            raise ValueError("learning rate eta must be positive")
        if self.optimizer == "adam" and self.metric_mode != "factorL":
            raise ValueError("Adam updates require metric_mode='factorL'")
        if self.recompute_neighbors not in ("never", "every_epoch"):
            raise ValueError("recompute_neighbors must be 'never' or 'every_epoch'")
        if self.gram_reg < 0:
            raise ValueError("gram_reg must be non-negative")

    def validate_for(self, n: int) -> None:
        if not self.n_neighbors <= n - 1:
            raise ValueError("n_neighbors=%d needs at least %d samples, got %d"
                             % (self.n_neighbors, self.n_neighbors + 1, n))
        if not self.n_components <= n - 2:
            raise ValueError("n_components=%d too large for %d samples"
                             % (self.n_components, n))


def _mapped(values, state: MetricState) -> np.ndarray:
    """Z = X L^T, the fit's only mapping of X through the metric.  An
    overflow after a step is left to surface as a non-finite reconstruction
    error; ``fit_alle`` refuses a starting Z that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return values @ state.L.T


def _step_eta(config: PipelineConfig, S: np.ndarray) -> tuple[float, bool]:
    """The learning rate of a step on the residual scatter S, and whether
    the guard fired (eta at or above ``eta_threshold`` of
    ``learning_rate_bound(S)``; the step then runs at ``clamp_eta``'s eta).

    Thresholds are linear in the bound 2/lambda_max(S), so the guard fires
    exactly when eta lambda_max >= ``eta_threshold(config, 2)``.  For
    symmetric PSD S, lambda_max <= ||S||_F (Golub & Van Loan, section 2.3),
    so when eta ||S||_F stays below that threshold by ``FROBENIUS_MARGIN``
    the guard cannot fire and the O(D^3) eigensolve is skipped; the O(D^2)
    norm decides the same.  A NaN or inf S fails the test and reaches
    ``learning_rate_bound``, as before.
    """
    eta = config.eta
    fro = float(np.linalg.norm(S))
    if eta * fro * (1.0 + FROBENIUS_MARGIN) < eta_threshold(config, 2.0):
        return eta, False
    bound = learning_rate_bound(S)
    if eta >= eta_threshold(config, bound):
        return clamp_eta(config, bound), True
    return eta, False


def fit_alle(X: DataMatrix, config: PipelineConfig,
             initial_state: MetricState | None = None) -> EmbeddingResult:
    """Fit the adaptive embedding, starting from ``initial_state`` (the
    identity factor when it is None).

    Per pass: neighbors (searched on the first pass, or on every pass under
    ``every_epoch``) and closed-form weights under the current metric, then
    residuals and their scatter S, a learning-rate guard, and one metric
    update with the configured optimizer.  The guard fires when eta reaches
    the threshold of the step taken (``eta_threshold``): half the stability
    bound 2/lambda_max for factored SGD, the bound itself for direct-M and
    Adam steps; the step then runs at 0.9x that threshold.  lambda_max is
    computed only when ||S||_F cannot settle the guard (``_step_eta``).
    X is mapped through L once per pass, here and nowhere else: Z = X L^T
    (:func:`_mapped`) after each step gives that epoch's reported error,
    ||Z - W Z||^2 with the pass's weights W (equal to sum_i r_i^T M r_i
    under the new metric), and the next pass's neighbors and weights.
    ValueError if X holds NaN or Inf, if ``initial_state`` does not match
    X's dimension, or if X L^T overflows at the start.  The last pass,
    after ``max_epochs`` steps or ``STALL_EPOCHS`` stalled ones, ends after
    the weights, so the embedding is solved from weights (and, under
    ``every_epoch``, neighbors) found under the final metric.
    The returned result carries the per-epoch error trace, whether the guard
    ever fired, and the exact config used.
    """
    values = _finite(X.values if isinstance(X, DataMatrix) else X)
    n, dim = values.shape
    config.validate_for(n)
    if not np.any(values != values[0]):  # every neighbor would be an index tie
        raise ValueError("all points coincide")

    state = initial_state if initial_state is not None else init_identity(dim)
    if state.dim != dim:
        raise ValueError("metric dimension %d does not match data dimension %d"
                         % (state.dim, dim))

    trace = []
    eta_guard = False
    stall = 0
    Z = _mapped(values, state)
    if not np.all(np.isfinite(Z)):
        raise ValueError("points mapped through L overflow float64")
    for epoch in range(config.max_epochs + 1):
        if epoch == 0 or config.recompute_neighbors == "every_epoch":
            nbrs = knn(Z, config.n_neighbors)
        W = solve_all_weights(Z, nbrs, config.gram_reg)
        if epoch == config.max_epochs or stall >= STALL_EPOCHS:
            break
        S = residual_gradient_M(compute_residuals(values, W))
        eta, fired = _step_eta(config, S)
        eta_guard = eta_guard or fired

        if config.optimizer == "adam":
            grad = gradient_L(state, S)
            state = adam_update_L(state, grad, eta)
        elif config.metric_mode == "directM":
            state = sgd_update_M(state, S, eta)
        else:
            state = sgd_update_L(state, S, eta)

        del S  # not held through the next pass's weight solve
        Z = _mapped(values, state)
        with np.errstate(over="ignore", invalid="ignore"):
            error = reconstruction_error(compute_residuals(Z, W))
        if not np.isfinite(error):
            raise NumericalError("reconstruction error became non-finite at epoch %d"
                                 % (epoch + 1))
        stalled = trace and abs(error - trace[-1]) / max(error, 1e-12) < STALL_REL_TOL
        stall = stall + 1 if stalled else 0
        trace.append(error)

    cost = embedding_matrix(W, n)
    result = solve_embedding(cost, config.n_components)
    result.error_trace = np.asarray(trace)
    result.eta_guard = eta_guard
    result.config = config
    result.metric = state
    return result


def fit_lle(X: DataMatrix, config: PipelineConfig) -> EmbeddingResult:
    """Fixed Euclidean metric: neighbor search, weights, and embedding only,
    i.e. ``fit_alle`` from the identity factor with ``max_epochs=0``."""
    return fit_alle(X, replace(config, max_epochs=0))
