"""Locally linear embedding with a learned Mahalanobis neighborhood metric.

The package covers the full workflow: synthetic and file-based datasets,
metric state and updates, exact neighbor search, closed-form reconstruction
weights, the embedding eigenproblem, an alternating fitting pipeline, and
rank-based quality evaluation.  Only the pipeline maps the data through
the metric, Z = X L^T; :func:`knn`, :func:`solve_all_weights` and
:func:`reconstruction_error` take Z, on which the metric is Euclidean.
"""

from .data import (DataMatrix, builtin_iris, generate_swiss_roll, load_csv,
                   load_idx, scale_features, write_csv)
from .embedding import EmbeddingResult, embedding_matrix, solve_embedding
from .errors import NumericalError
from .evaluation import (QualityReport, continuity, evaluate_embedding,
                         knn_accuracy, linear_accuracy, silhouette,
                         stratified_split, trustworthiness)
from .metric import (MetricState, adam_update_L, gradient_L, init_identity,
                     learning_rate_bound, load_metric, residual_gradient_M,
                     save_metric, sgd_update_L, sgd_update_M)
from .neighbors import NeighborIndex, knn
from .pipeline import PipelineConfig, fit_alle, fit_lle
from .reconstruction import (DEFAULT_GRAM_REG, WeightMatrix, compute_residuals,
                             reconstruction_error, solve_all_weights)

__version__ = "0.1.0"

__all__ = [
    "DataMatrix", "builtin_iris", "generate_swiss_roll", "load_csv",
    "load_idx", "scale_features", "write_csv",
    "EmbeddingResult", "embedding_matrix", "solve_embedding",
    "NumericalError",
    "QualityReport", "continuity", "evaluate_embedding", "knn_accuracy",
    "linear_accuracy", "silhouette", "stratified_split", "trustworthiness",
    "MetricState", "adam_update_L", "gradient_L",
    "init_identity", "learning_rate_bound", "load_metric",
    "residual_gradient_M", "save_metric", "sgd_update_L", "sgd_update_M",
    "NeighborIndex", "knn",
    "PipelineConfig", "fit_alle", "fit_lle",
    "DEFAULT_GRAM_REG", "WeightMatrix", "compute_residuals",
    "reconstruction_error", "solve_all_weights",
    "__version__",
]
