"""End-to-end fitting: alternate closed-form weights with metric updates,
then solve the embedding eigenproblem.

``fit_lle`` is the fixed-Euclidean-metric special case of ``fit_alle`` with
zero metric-update epochs, so the two coincide exactly when the adaptive
fit is run with an identity initialization and ``max_epochs=0``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import DataMatrix
from .embedding import EmbeddingResult, embedding_matrix, solve_embedding
from .errors import NumericalError
from .metric import (MetricState, OptimizerConfig, adam_update_L, clamp_eta,
                     eta_threshold, gradient_L, init_identity, init_random,
                     learning_rate_bound, residual_gradient_M, sgd_update_L,
                     sgd_update_M)
from .neighbors import knn
from .reconstruction import (DEFAULT_GRAM_REG, compute_residuals,
                             reconstruction_error, solve_all_weights)

# stop after this many consecutive epochs with relative error change < 1e-9
STALL_EPOCHS = 3
STALL_REL_TOL = 1e-9


@dataclass
class PipelineConfig:
    """Everything needed to reproduce a fit.

    ``metric_init`` is 'identity' or 'random' (the latter draws the factor
    with standard deviation ``init_sigma`` from ``seed``).
    ``recompute_neighbors`` is 'never' (neighborhoods fixed before the
    epoch loop) or 'every_epoch' (re-searched under the current metric).
    """

    n_components: int = 2
    n_neighbors: int = 10
    max_epochs: int = 50
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    metric_init: str = "identity"
    init_sigma: float = 0.1
    recompute_neighbors: str = "never"
    gram_reg: float = DEFAULT_GRAM_REG
    early_stop: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.metric_init not in ("identity", "random"):
            raise ValueError("metric_init must be 'identity' or 'random'")
        if self.init_sigma <= 0:
            raise ValueError("init_sigma must be positive")
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


def _initial_state(dim: int, config: PipelineConfig) -> MetricState:
    if config.metric_init == "random":
        return init_random(dim, config.init_sigma, config.seed)
    return init_identity(dim)


def fit_alle(X: DataMatrix, config: PipelineConfig,
             initial_state: MetricState | None = None) -> EmbeddingResult:
    """Fit the adaptive embedding.

    Per pass: neighbors (searched on the first pass, or on every pass under
    ``every_epoch``) and closed-form weights under the current metric, then
    residuals and their scatter S, a learning-rate guard, and one metric
    update with the configured optimizer.  The guard fires when eta reaches
    the threshold of the step taken (``eta_threshold``): half the stability
    bound 2/lambda_max for factored SGD, the bound itself for direct-M and
    Adam steps; with ``enforce_eta_bound`` the step then runs at 0.9x that
    threshold.  The last pass, after ``max_epochs`` steps or an early stop,
    ends after the weights, so the embedding is solved from weights (and,
    under ``every_epoch``, neighbors) found under the final metric.
    The returned result carries the per-epoch error trace, whether the guard
    ever fired, and the exact config used.
    """
    values = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)
    n, dim = values.shape
    config.validate_for(n)
    if not np.any(values != values[0]):  # every neighbor would be an index tie
        raise ValueError("all points coincide")
    opt = config.optimizer

    state = initial_state if initial_state is not None else _initial_state(dim, config)
    if state.dim != dim:
        raise ValueError("metric dimension %d does not match data dimension %d"
                         % (state.dim, dim))

    trace = []
    eta_guard = False
    stall = 0
    prev_error = None
    for epoch in range(config.max_epochs + 1):
        if epoch == 0 or config.recompute_neighbors == "every_epoch":
            nbrs = knn(values, config.n_neighbors, state)
        W = solve_all_weights(values, nbrs, state, config.gram_reg)
        if epoch == config.max_epochs or stall >= STALL_EPOCHS:
            break
        residuals = compute_residuals(values, nbrs, W)
        S = residual_gradient_M(residuals)

        bound = learning_rate_bound(S)
        step_opt = opt
        if opt.eta >= eta_threshold(opt, bound):
            eta_guard = True
            if opt.enforce_eta_bound:
                step_opt = clamp_eta(opt, bound)

        if opt.method == "adam":
            grad = gradient_L(state, S)
            state = adam_update_L(state, grad, step_opt)
        elif opt.mode == "directM":
            state = sgd_update_M(state, S, step_opt.eta)
        else:
            state = sgd_update_L(state, S, step_opt.eta)

        error = reconstruction_error(residuals, state)
        del residuals, S  # not held through the next pass's weight solve
        if not np.isfinite(error):
            raise NumericalError("reconstruction error became non-finite at epoch %d"
                                 % (epoch + 1))
        trace.append(error)

        if config.early_stop and prev_error is not None:
            if abs(error - prev_error) / max(error, 1e-12) < STALL_REL_TOL:
                stall += 1
            else:
                stall = 0
        prev_error = error

    cost = embedding_matrix(W, n)
    result = solve_embedding(cost, config.n_components)
    result.error_trace = np.asarray(trace)
    result.eta_guard = eta_guard
    result.config = config
    result.metric = state
    return result


def fit_lle(X: DataMatrix, config: PipelineConfig) -> EmbeddingResult:
    """Fixed Euclidean metric: neighbor search, weights, and embedding only."""
    fixed = dataclasses.replace(config, max_epochs=0, metric_init="identity")
    return fit_alle(X, fixed)
