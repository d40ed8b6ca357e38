"""Embedding quality metrics and downstream classification scores.

Trustworthiness penalizes embedding-space neighbors that were not neighbors
in the original space (weighted by their original-space rank); continuity
penalizes original-space neighbors lost in the embedding (weighted by their
embedding-space rank).  Both reduce to 1 for any isometry.  They are two
readings of one co-ranking of X against Y, whose rank tables
:func:`adaptive_lle.neighbors._co_ranks` builds from one neighbor search
per space; see there for how the ranks are found.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import _labels, row_blocks
from .neighbors import _co_ranks, _direct, _prepared, _top_k

_BLOCK_BYTES = 1 << 22  # float64 differences held per silhouette row block
_LINEAR_L2 = 1e-4   # linear_accuracy: L2 penalty on the weights
_LINEAR_TOL = 1e-6  # linear_accuracy: stop at this gradient max-norm


def _rank_scores(X, Y, k: int) -> tuple[float, float]:
    """Trustworthiness and continuity of Y as an embedding of X.  Each is
    1 - (2 / (n k (2n - 3k - 1))) * the sum of (rank of j from i in A) - k
    over every j among the k nearest to i in B but not among the k nearest
    in A: trustworthiness for (A, B) = (X, Y), continuity for (Y, X).  j is
    among A's k nearest exactly when its rank is <= k, so each penalty sums
    rank - k over the entries above k of one of :func:`_co_ranks`' tables.
    """
    n = len(X)
    if len(Y) != n:
        raise ValueError("X and Y must have the same number of rows")
    if not 1 <= k < (2 * n - 1) / 3:
        raise ValueError("k must satisfy 1 <= k < (2n-1)/3 (k=%d, n=%d)" % (k, n))
    scores = []
    for ranks in _co_ranks(X, Y, k):
        penalty = int(np.sum(ranks[ranks > k] - k))
        scores.append(float(1.0 - 2.0 / (n * k * (2 * n - 3 * k - 1)) * penalty))
    return tuple(scores)


def trustworthiness(X, Y, k: int) -> float:
    """1 - (2 / (n k (2n - 3k - 1))) * sum over embedding-space neighbors
    that are not original-space neighbors of (original rank - k)."""
    return _rank_scores(X, Y, k)[0]


def continuity(X, Y, k: int) -> float:
    """1 - (2 / (n k (2n - 3k - 1))) * sum over original-space neighbors
    missing from the embedding of (embedding rank - k)."""
    return _rank_scores(X, Y, k)[1]


def silhouette(points, labels) -> float:
    """Mean of (b - a) / max(a, b) per point, where a is the mean distance
    to the point's own cluster and b the smallest mean distance to another
    cluster.  Points in singleton clusters score 0, as does the 0/0 case.

    Distances come from explicit differences, free of the Gram expansion's
    cancellation error, since their values (not just their order) feed the
    score.  They are summed per class over row blocks, so no n x n table
    is built.  Tiny points are scaled up first, as the neighbor search does.
    """
    points = _prepared(points).values
    n = points.shape[0]
    labels = _labels(labels, n)
    classes, inverse, sizes = np.unique(labels, return_inverse=True,
                                        return_counts=True)
    if classes.size < 2:
        raise ValueError("silhouette needs at least two distinct labels")
    grouped = points[np.argsort(inverse, kind="stable")]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    sums = np.empty((n, classes.size))
    for rows in row_blocks(n, 8 * n * points.shape[1], _BLOCK_BYTES):
        dist = np.sqrt(_direct(points[rows, None, :], grouped[None, :, :]))
        sums[rows] = np.add.reduceat(dist, starts, axis=1)

    rows = np.arange(n)
    own = sizes[inverse]
    a = sums[rows, inverse] / np.maximum(own - 1, 1)
    means = sums / sizes
    means[rows, inverse] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    # singleton: a = 0 by convention, score stays 0
    scores = np.zeros(n)
    np.divide(b - a, denom, out=scores, where=(own > 1) & (denom > 0))
    return float(scores.mean())


def stratified_split(labels, test_fraction: float = 0.25,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class split; every class keeps at least one sample on
    each side."""
    labels = np.asarray(labels)
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < 2:
            raise ValueError("class %r has %d sample(s); need >= 2 to split"
                             % (c, idx.size))
        idx = rng.permutation(idx)
        n_test = int(round(idx.size * test_fraction))
        n_test = min(max(n_test, 1), idx.size - 1)
        test.append(idx[:n_test])
        train.append(idx[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def _split(points, labels, split, seed: int):
    """``labels`` as integers (:func:`_labels`), one per row of ``points``,
    and ``split`` as index arrays into them; if None, the stratified split
    by ``seed``.  Each side of a given split must hold whole numbers in
    [0, n)."""
    n = points.shape[0]
    labels = _labels(labels, n)
    if split is None:
        return (labels, *stratified_split(labels, seed=seed))
    sides = tuple(np.asarray(side) for side in split)
    if any(side.ndim != 1 or side.size == 0 or not np.all((side >= 0) & (side < n))
           or np.any(side % 1) for side in sides):
        raise ValueError("split sides must be non-empty lists of whole indices "
                         "in [0, n)")
    return (labels, *(side.astype(np.int64) for side in sides))


def knn_accuracy(points, labels, k_classify: int = 5, split=None,
                 seed: int = 0) -> float:
    """Majority-vote accuracy of a k-NN classifier on the test split.

    ``split`` is a (train_idx, test_idx) pair; when omitted, the default
    :func:`stratified_split` seeded by ``seed`` is used.  A test point that
    also appears in the training set (same row index) is excluded from its
    own neighbor candidates, so evaluating with train == test measures
    leave-one-out accuracy.  Vote ties go to the smallest label.
    """
    P = _prepared(points)
    labels, train_idx, test_idx = _split(P.values, labels, split, seed)
    if k_classify < 1 or k_classify > train_idx.size:
        raise ValueError("k_classify must lie in [1, n_train]")
    occurrences = np.bincount(train_idx, minlength=P.values.shape[0])[test_idx]
    if np.any(train_idx.size - occurrences < k_classify):
        raise ValueError("not enough distinct training points for k_classify")
    order, _ = _top_k(P, k_classify, test_idx, train_idx)
    classes, inverse = np.unique(labels, return_inverse=True)
    votes = inverse[train_idx][order]
    counts = np.zeros((test_idx.size, classes.size), dtype=np.int64)
    np.add.at(counts, (np.arange(test_idx.size)[:, None], votes), 1)
    predicted = counts.argmax(axis=1)  # classes ascend: ties go to the smallest label
    return int(np.count_nonzero(predicted == inverse[test_idx])) / test_idx.size


def linear_accuracy(points, labels, split=None, seed: int = 0) -> float:
    """Accuracy of a multinomial logistic-regression classifier.

    Trained from zero weights by L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J.
    Sci. Comput. 1995) on the mean cross-entropy plus ``_LINEAR_L2`` / 2
    times the squared weights, not the intercept, until the gradient
    max-norm falls to ``_LINEAR_TOL`` (deterministic aside from the split
    seed).
    """
    from scipy.optimize import minimize  # ~0.1 s to import cold: not at package import

    points = _prepared(points).values
    # each column over a power of two, as _center rounds: exact, so no
    # standardized value changes, and the std's sum of squares cannot overflow
    points = points / np.ldexp(1.0, np.frexp(np.abs(points).max(axis=0))[1])
    labels, train_idx, test_idx = _split(points, labels, split, seed)
    classes = np.unique(labels)

    X_train = points[train_idx]
    mean, scale = X_train.mean(axis=0), X_train.std(axis=0)
    scale[scale == 0] = 1.0
    Xt = np.column_stack([(X_train - mean) / scale, np.ones(train_idx.size)])
    n, d = Xt.shape
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), np.searchsorted(classes, labels[train_idx])] = 1.0
    penalty_mask = (np.arange(d) < d - 1)[:, None]  # 0 on the intercept row

    def loss_and_grad(flat):
        weights = flat.reshape(d, classes.size)
        z = Xt @ weights
        log_probs = z - z.max(axis=1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        penalized = weights * penalty_mask
        loss = -np.sum(onehot * log_probs) / n + _LINEAR_L2 / 2 * np.sum(penalized ** 2)
        grad = Xt.T @ (np.exp(log_probs) - onehot) / n + _LINEAR_L2 * penalized
        return loss, grad.ravel()

    weights = minimize(loss_and_grad, np.zeros(d * classes.size), jac=True,
                       method="L-BFGS-B", options={"gtol": _LINEAR_TOL, "ftol": 0}).x
    X_test = np.column_stack([(points[test_idx] - mean) / scale,
                              np.ones(test_idx.size)])
    predicted = classes[np.argmax(X_test @ weights.reshape(d, -1), axis=1)]
    return float(np.mean(predicted == labels[test_idx]))


@dataclass
class QualityReport:
    """Bundle of embedding-quality numbers, serializable to JSON.

    Fields left None (the label-dependent ones for unlabeled data) are
    omitted from the JSON form, which lists the rest in field order.
    """

    trustworthiness: float
    continuity: float
    k: int
    silhouette: float | None = None
    knn_accuracy: float | None = None
    linear_accuracy: float | None = None
    split: str | None = None
    config_echo: dict | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items()
                if value is not None}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def evaluate_embedding(X, Y, k: int, labels=None, k_classify: int = 5,
                       test_fraction: float = 0.25, seed: int = 0,
                       config_echo: dict | None = None) -> QualityReport:
    """Assemble the full quality report for an embedding of X."""
    trust, cont = _rank_scores(X, Y, k)
    report = QualityReport(trustworthiness=trust, continuity=cont, k=k,
                           config_echo=config_echo)
    if labels is not None:
        labels = _labels(labels, len(Y))
        split = stratified_split(labels, test_fraction, seed)
        report.silhouette = silhouette(Y, labels)
        report.knn_accuracy = knn_accuracy(Y, labels, k_classify, split)
        report.linear_accuracy = linear_accuracy(Y, labels, split)
        report.split = "stratified %d/%d seed=%d" % (
            round((1 - test_fraction) * 100), round(test_fraction * 100), seed)
    return report
