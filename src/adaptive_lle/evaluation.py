"""Embedding quality metrics and downstream classification scores.

Trustworthiness penalizes embedding-space neighbors that were not neighbors
in the original space (weighted by their original-space rank); continuity
penalizes original-space neighbors lost in the embedding (weighted by their
embedding-space rank).  Both reduce to 1 for any isometry.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data import _finite
from .neighbors import (_center, _distance_blocks, _nearest, _select,
                        _squared_norms, _top_k)

_BLOCK_BYTES = 1 << 22  # float64 differences held per silhouette row block
_LINEAR_L2 = 1e-4           # linear_accuracy: L2 penalty on the weights
_LINEAR_TOL = 1e-6          # linear_accuracy: stop at this gradient max-norm
_LINEAR_MAX_ITER = 200_000  # linear_accuracy: cap on gradient steps


def rank_table(points) -> np.ndarray:
    """n x n table of Euclidean neighbor ranks.

    Entry (i, j) is the 1-based position of j in the ascending distance
    ordering from i (ties broken by lower index); the diagonal is 0 and is
    not a rank.  A small-n utility: the table itself is n^2, so a MemoryError
    is raised up front when it and the search exceed physical memory.
    """
    points = _finite(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    need = 24 * n * n  # the table, and the search's (n, n-1) ids and distances
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf here: no check
        have = float("inf")
    if need > have:
        raise MemoryError("rank_table of %d points needs about %d bytes; "
                          "physical memory is %d bytes" % (n, need, have))
    order, _ = _nearest(points, n - 1)
    ranks = np.zeros((n, n), dtype=np.int64)
    ranks[np.arange(n)[:, None], order] = np.arange(1, n)[None, :]
    return ranks


def _rank_score(A, B, k: int) -> float:
    """1 - (2 / (n k (2n - 3k - 1))) * the sum of (rank of j from i in A) - k
    over every j among the k nearest to i in B but not among the k nearest
    in A: trustworthiness for (A, B) = (X, Y), continuity for (Y, X).

    B's neighbor sets come from :func:`_nearest`.  A's ranks follow the tie
    rule of :func:`rank_table`: 1 + the number of points strictly closer to
    i + the number at the same distance with a lower index, counted per row
    block of A's distances, so no n x n table is built.
    """
    A = _finite(A)
    B = _finite(B)
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValueError("X and Y must have the same number of rows")
    if not 1 <= k < (2 * n - 1) / 3:
        raise ValueError("k must satisfy 1 <= k < (2n-1)/3 (k=%d, n=%d)" % (k, n))
    near_b, _ = _nearest(B, k)
    columns = np.arange(n)
    penalty = 0
    for rows, d2 in _distance_blocks(A, A):
        candidates = near_b[rows]
        near_a = _select(d2, k)
        intruder = ~(candidates[:, :, None] == near_a[:, None, :]).any(axis=2)
        for slot in range(k):
            r = np.flatnonzero(intruder[:, slot])
            if r.size == 0:
                continue
            j = candidates[r, slot][:, None]
            block = d2[r]
            dist = np.take_along_axis(block, j, axis=1)
            ranks = (np.count_nonzero(block < dist, axis=1)
                     + np.count_nonzero((block == dist) & (columns < j), axis=1) + 1)
            penalty += int(np.sum(ranks - k))
    return float(1.0 - 2.0 / (n * k * (2 * n - 3 * k - 1)) * penalty)


def trustworthiness(X, Y, k: int) -> float:
    """1 - (2 / (n k (2n - 3k - 1))) * sum over embedding-space neighbors
    that are not original-space neighbors of (original rank - k)."""
    return _rank_score(X, Y, k)


def continuity(X, Y, k: int) -> float:
    """1 - (2 / (n k (2n - 3k - 1))) * sum over original-space neighbors
    missing from the embedding of (embedding rank - k)."""
    return _rank_score(Y, X, k)


def _finite_distances(points) -> np.ndarray:
    """points as a finite float array; ValueError, as in the neighbor
    search, where their squared distances overflow float64."""
    points = _finite(points)
    centered = points - _center(points)
    _squared_norms(centered, centered)
    return points


def silhouette(points, labels) -> float:
    """Mean of (b - a) / max(a, b) per point, where a is the mean distance
    to the point's own cluster and b the smallest mean distance to another
    cluster.  Points in singleton clusters score 0, as does the 0/0 case.

    Distances come from explicit differences, free of the Gram expansion's
    cancellation error, since their values (not just their order) feed the
    score.  They are summed per class over row blocks, so no n x n table
    is built.
    """
    points = _finite_distances(points)
    labels = np.asarray(labels)
    n = points.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must have one entry per point")
    classes, inverse, sizes = np.unique(labels, return_inverse=True,
                                        return_counts=True)
    if classes.size < 2:
        raise ValueError("silhouette needs at least two distinct labels")
    grouped = points[np.argsort(inverse, kind="stable")]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    sums = np.empty((n, classes.size))
    block = max(1, _BLOCK_BYTES // (8 * n * points.shape[1]))
    for start in range(0, n, block):
        diff = points[start:start + block, None, :] - grouped[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        sums[start:start + block] = np.add.reduceat(dist, starts, axis=1)

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


def knn_accuracy(points, labels, k_classify: int = 5, split=None,
                 seed: int = 0) -> float:
    """Majority-vote accuracy of a k-NN classifier on the test split.

    ``split`` is a (train_idx, test_idx) pair; when omitted, a stratified
    75/25 split seeded by ``seed`` is used.  A test point that also appears
    in the training set (same row index) is excluded from its own neighbor
    candidates, so evaluating with train == test measures leave-one-out
    accuracy.  Vote ties go to the smallest label.
    """
    points = _finite(points)
    labels = np.asarray(labels, dtype=np.int64)
    if split is None:
        train_idx, test_idx = stratified_split(labels, 0.25, seed)
    else:
        train_idx, test_idx = (np.asarray(s, dtype=np.int64) for s in split)
    if k_classify < 1 or k_classify > train_idx.size:
        raise ValueError("k_classify must lie in [1, n_train]")
    occurrences = np.bincount(train_idx, minlength=points.shape[0])[test_idx]
    if np.any(train_idx.size - occurrences < k_classify):
        raise ValueError("not enough distinct training points for k_classify")
    order, _ = _top_k(points[test_idx], points[train_idx], k_classify,
                      test_idx, train_idx)
    votes = labels[train_idx][order]
    n_classes = int(labels.max()) + 1
    counts = np.zeros((test_idx.size, n_classes), dtype=np.int64)
    np.add.at(counts, (np.arange(test_idx.size)[:, None], votes), 1)
    predicted = counts.argmax(axis=1)  # argmax returns the smallest tied label
    return int(np.count_nonzero(predicted == labels[test_idx])) / test_idx.size


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def linear_accuracy(points, labels, split=None, seed: int = 0) -> float:
    """Accuracy of a multinomial logistic-regression classifier.

    Trained from a zero initialization by full-batch gradient descent until
    the gradient max-norm falls below ``_LINEAR_TOL`` or after
    ``_LINEAR_MAX_ITER`` steps (deterministic aside from the split seed).
    The L2 penalty ``_LINEAR_L2`` applies to the weights, not the intercept.
    """
    points = _finite_distances(points)
    labels = np.asarray(labels, dtype=np.int64)
    if split is None:
        train_idx, test_idx = stratified_split(labels, 0.25, seed)
    else:
        train_idx, test_idx = (np.asarray(s, dtype=np.int64) for s in split)

    classes = np.unique(labels)
    remap = {c: j for j, c in enumerate(classes)}
    y_train = np.array([remap[c] for c in labels[train_idx]])
    n_classes = classes.size

    X_train = points[train_idx]
    mean = X_train.mean(axis=0)
    scale = X_train.std(axis=0)
    scale[scale == 0] = 1.0
    Xt = np.column_stack([(X_train - mean) / scale, np.ones(train_idx.size)])

    n, d = Xt.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_train] = 1.0

    # gradient-Lipschitz step for the mean cross-entropy objective
    lipschitz = 0.5 * float(np.linalg.eigvalsh(Xt.T @ Xt)[-1]) / n + _LINEAR_L2
    step = 1.0 / lipschitz
    weights = np.zeros((d, n_classes))
    penalty_mask = np.ones((d, 1))
    penalty_mask[-1] = 0.0  # intercept row
    for _ in range(_LINEAR_MAX_ITER):
        probs = _softmax(Xt @ weights)
        grad = Xt.T @ (probs - onehot) / n + _LINEAR_L2 * weights * penalty_mask
        if np.max(np.abs(grad)) < _LINEAR_TOL:
            break
        weights -= step * grad

    X_test = np.column_stack([(points[test_idx] - mean) / scale,
                              np.ones(test_idx.size)])
    predicted = classes[np.argmax(X_test @ weights, axis=1)]
    return float(np.mean(predicted == labels[test_idx]))


@dataclass
class QualityReport:
    """Bundle of embedding-quality numbers, serializable to JSON.

    Label-dependent fields stay None for unlabeled data and are omitted
    from the JSON form.
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
        out = {"trustworthiness": self.trustworthiness,
               "continuity": self.continuity,
               "k": self.k}
        for key in ("silhouette", "knn_accuracy", "linear_accuracy", "split",
                    "config_echo"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def evaluate_embedding(X, Y, k: int, labels=None, k_classify: int = 5,
                       test_fraction: float = 0.25, seed: int = 0,
                       config_echo: dict | None = None) -> QualityReport:
    """Assemble the full quality report for an embedding of X."""
    report = QualityReport(
        trustworthiness=trustworthiness(X, Y, k),
        continuity=continuity(X, Y, k),
        k=k,
        config_echo=config_echo,
    )
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        split = stratified_split(labels, test_fraction, seed)
        report.silhouette = silhouette(Y, labels)
        report.knn_accuracy = knn_accuracy(Y, labels, k_classify, split)
        report.linear_accuracy = linear_accuracy(Y, labels, split)
        report.split = "stratified %d/%d seed=%d" % (
            round((1 - test_fraction) * 100), round(test_fraction * 100), seed)
    return report
