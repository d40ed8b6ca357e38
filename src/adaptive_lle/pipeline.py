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

from .data import DataMatrix, _finite, row_blocks
from .embedding import EmbeddingResult, embedding_matrix, solve_embedding
from .errors import NumericalError
from .metric import (MetricState, _check_eta, adam_update_L, gradient_L,
                     init_identity, learning_rate_bound, residual_gradient_M,
                     sgd_update_L, sgd_update_M)
from .neighbors import knn
from .reconstruction import (_BLOCK_BYTES, DEFAULT_GRAM_REG, compute_residuals,
                             reconstruction_error, solve_all_weights)

# stop after this many consecutive epochs with relative error change < 1e-9
STALL_EPOCHS = 3
STALL_REL_TOL = 1e-9
# eta * ||S||_F must clear the guard's threshold by this relative margin to
# settle the guard without lambda_max: it covers the rounding of ||S||_F
# (at most about D^2 eps relative) and of eigvalsh's lambda_max (about
# D eps relative to ||S||_2), which stays below it for D up to about 10^4
FROBENIUS_MARGIN = 1e-6
# allowed values of PipelineConfig's choice fields, which the CLI's flags offer
CHOICES = {"update": ("factorL", "directM", "adam"),
           "recompute_neighbors": ("never", "every_epoch")}


@dataclass
class PipelineConfig:
    """Everything needed to reproduce a fit from its starting metric.

    Each epoch's metric step is set by ``update`` and its learning rate
    ``eta`` (> 0, finite): 'factorL' is SGD on the factor L (M = L^T L is
    PSD by construction), 'directM' SGD on M, repaired by eigenvalue
    clamping when a step leaves the PSD cone, and 'adam' Adam on L.
    ``recompute_neighbors`` is 'never' (neighborhoods fixed before the
    epoch loop) or 'every_epoch' (re-searched under the current metric).
    ``CHOICES`` lists each choice field's values.  Each CLI fit flag takes
    its field's default, that default's type and these values.
    """

    n_components: int = 2
    n_neighbors: int = 10
    max_epochs: int = 50
    update: str = "factorL"
    eta: float = 1e-3
    recompute_neighbors: str = "never"
    gram_reg: float = DEFAULT_GRAM_REG

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError("%s must be '%s'" % (name, "' or '".join(allowed)))
        _check_eta(self.eta)
        if not 0 <= self.gram_reg < np.inf:
            raise ValueError("gram_reg must be non-negative and finite")

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


def clamp_eta(threshold: float) -> float:
    """The learning rate a step runs at once the guard has fired: 0.9x the
    step's ``threshold``."""
    return 0.9 * threshold


def _step(state: MetricState, S: np.ndarray,
          config: PipelineConfig) -> tuple[MetricState, float, bool]:
    """One metric update on the residual scatter S: the learning-rate guard,
    then the step ``config.update`` names.  Returns the new state, the eta
    the step ran at, and whether the guard fired.

    The guard fires when eta reaches the step's threshold, a share of the
    stability bound 2/lambda_max(S) (:func:`learning_rate_bound`), and the
    step then runs at :func:`clamp_eta` of it.  The factored SGD step
    ('factorL') L <- L (I - 2 eta S) multiplies the error along an
    eigenvector of S with eigenvalue lambda by (1 - 2 eta lambda)^2, so the
    error first rises above eta = 1/lambda_max: its share is 1/2.  The
    direct-M step ('directM', error linear in M, so it never rises) and
    'adam' (a sign-like step) take the whole bound.  So the guard fires
    exactly when eta lambda_max >= 2 share.  As lambda_max <= ||S||_F for
    symmetric PSD S (Golub & Van Loan, 2.3), the O(D^3) eigensolve is
    skipped when eta ||S||_F stays below 2 share by ``FROBENIUS_MARGIN``; a
    NaN or inf norm reaches ``learning_rate_bound``.
    """
    share = 0.5 if config.update == "factorL" else 1.0
    eta, fired = config.eta, False
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(S))
    if not eta * fro * (1.0 + FROBENIUS_MARGIN) < 2.0 * share:
        threshold = share * learning_rate_bound(S)
        if eta >= threshold:
            eta, fired = clamp_eta(threshold), True
    if config.update == "adam":
        return adam_update_L(state, gradient_L(state, S), eta), eta, fired
    if config.update == "directM":
        return sgd_update_M(state, S, eta), eta, fired
    return sgd_update_L(state, S, eta), eta, fired


def fit_alle(X: DataMatrix, config: PipelineConfig,
             initial_state: MetricState | None = None) -> EmbeddingResult:
    """Fit the adaptive embedding, starting from ``initial_state`` (the
    identity factor when it is None, whose first pass runs on X itself).

    Per pass: neighbors (searched on the first pass, or on every pass under
    ``every_epoch``) and closed-form weights under the current metric, then
    residuals and their scatter S, and one guarded metric update
    (:func:`_step`).
    X is mapped through L here and nowhere else (:func:`_mapped`): at the
    start unless that is the default identity, whose Z = X I^T is X itself,
    and after each step, where Z = X L^T gives that epoch's reported error,
    ||Z - W Z||^2 with the pass's weights W (equal to sum_i r_i^T M r_i
    under the new metric), and the next pass's neighbors and weights.
    The error is summed over row blocks of ``W.operator``
    (:func:`~adaptive_lle.data.row_blocks`), and each Z is
    released once the weights are found, so an epoch holds at most two
    n x D arrays: X, and Z or the step's residuals.
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
    Z = values if initial_state is None else _mapped(values, state)  # X I^T is X
    if not np.all(np.isfinite(Z)):
        raise ValueError("points mapped through L overflow float64")
    for epoch in range(config.max_epochs + 1):
        if epoch == 0 or config.recompute_neighbors == "every_epoch":
            nbrs = knn(Z, config.n_neighbors)
        W = solve_all_weights(Z, nbrs, config.gram_reg)
        # nothing reads Z again, so the step and the embedding hold X and not
        # Z; S is passed inline, so it is not held through the next weights
        del Z
        if epoch == config.max_epochs or stall >= STALL_EPOCHS:
            break
        state, _, fired = _step(
            state, residual_gradient_M(compute_residuals(values, W)), config)
        eta_guard = eta_guard or fired
        Z = _mapped(values, state)
        with np.errstate(over="ignore", invalid="ignore"):
            error = sum(reconstruction_error(compute_residuals(Z, W, rows))
                        for rows in row_blocks(n, 8 * dim, _BLOCK_BYTES))
        if not np.isfinite(error):
            raise NumericalError("reconstruction error became non-finite at epoch %d"
                                 % (epoch + 1))
        stalled = trace and abs(error - trace[-1]) / max(error, 1e-12) < STALL_REL_TOL
        stall = stall + 1 if stalled else 0
        trace.append(error)

    result = solve_embedding(embedding_matrix(W, n), config.n_components)
    return replace(result, error_trace=np.asarray(trace), eta_guard=eta_guard,
                   config=config, metric=state)


def fit_lle(X: DataMatrix, config: PipelineConfig) -> EmbeddingResult:
    """Fixed Euclidean metric: neighbor search, weights, and embedding only,
    i.e. ``fit_alle`` from the identity factor with ``max_epochs=0``."""
    return fit_alle(X, replace(config, max_epochs=0))
