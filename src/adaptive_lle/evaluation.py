"""Embedding quality metrics and downstream classification scores.

Trustworthiness penalizes embedding-space neighbors that were not neighbors
in the original space (weighted by their original-space rank); continuity
penalizes original-space neighbors lost in the embedding (weighted by their
embedding-space rank).  Both reduce to 1 for any isometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .neighbors import _distance_blocks, _select, _top_k


def _pairwise_dist_exact(points: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Pairwise Euclidean distances via explicit differences.

    Slower than the Gram expansion but free of its cancellation error;
    used where distance *values* (not just orderings) feed a score.
    """
    n = points.shape[0]
    dist = np.empty((n, n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = points[start:stop, None, :] - points[None, :, :]
        dist[start:stop] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return dist


def rank_table(points) -> np.ndarray:
    """n x n table of Euclidean neighbor ranks.

    Entry (i, j) is the 1-based position of j in the ascending distance
    ordering from i (ties broken by lower index); the diagonal is 0 and is
    not a rank.  A small-n utility: the table itself is n^2.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    order, _ = _top_k(points, points, n - 1)
    ranks = np.zeros((n, n), dtype=np.int64)
    ranks[np.arange(n)[:, None], order] = np.arange(1, n)[None, :]
    return ranks


def _check_k(n: int, k: int) -> None:
    if not 1 <= k < (2 * n - 1) / 3:
        raise ValueError("k must satisfy 1 <= k < (2n-1)/3 (k=%d, n=%d)" % (k, n))


def _rank_penalty(A, B, k: int) -> int:
    """Sum of (rank of j from i in A) - k over every j among the k nearest
    to i in B but not among the k nearest in A.

    Ranks follow the tie rule of :func:`rank_table`: 1 + the number of points
    strictly closer to i + the number at the same distance with a lower
    index.  They are counted per row block of A's distances, so no n x n
    table is built.
    """
    near_b, _ = _top_k(B, B, k)
    columns = np.arange(A.shape[0])
    total = 0
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
            total += int(np.sum(ranks - k))
    return total


def trustworthiness(X, Y, k: int) -> float:
    """1 - (2 / (n k (2n - 3k - 1))) * sum over embedding-space neighbors
    that are not original-space neighbors of (original rank - k)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ValueError("X and Y must have the same number of rows")
    _check_k(n, k)
    penalty = _rank_penalty(X, Y, k)
    return float(1.0 - 2.0 / (n * k * (2 * n - 3 * k - 1)) * penalty)


def continuity(X, Y, k: int) -> float:
    """1 - (2 / (n k (2n - 3k - 1))) * sum over original-space neighbors
    missing from the embedding of (embedding rank - k)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ValueError("X and Y must have the same number of rows")
    _check_k(n, k)
    penalty = _rank_penalty(Y, X, k)
    return float(1.0 - 2.0 / (n * k * (2 * n - 3 * k - 1)) * penalty)


def silhouette(points, labels) -> float:
    """Mean of (b - a) / max(a, b) per point, where a is the mean distance
    to the point's own cluster and b the smallest mean distance to another
    cluster.  Points in singleton clusters score 0, as does the 0/0 case.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    n = points.shape[0]
    if labels.shape != (n,):
        raise ValueError("labels must have one entry per point")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("silhouette needs at least two distinct labels")
    dist = _pairwise_dist_exact(points)
    scores = np.zeros(n)
    members = {c: np.flatnonzero(labels == c) for c in classes}
    for i in range(n):
        own = members[labels[i]]
        if own.size == 1:
            continue  # singleton: a = 0 by convention, score stays 0
        a = (dist[i, own].sum()) / (own.size - 1)
        b = min(dist[i, members[c]].mean() for c in classes if c != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
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
    points = np.asarray(points, dtype=float)
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


def linear_accuracy(points, labels, split=None, seed: int = 0,
                    l2: float = 1e-4, tol: float = 1e-6,
                    max_iter: int = 200_000) -> float:
    """Accuracy of a multinomial logistic-regression classifier.

    Trained from a zero initialization by full-batch gradient descent until
    the gradient max-norm falls below ``tol`` (deterministic aside from the
    split seed).  The L2 penalty applies to the weights, not the intercept.
    """
    points = np.asarray(points, dtype=float)
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
    lipschitz = 0.5 * float(np.linalg.eigvalsh(Xt.T @ Xt)[-1]) / n + l2
    step = 1.0 / lipschitz
    weights = np.zeros((d, n_classes))
    penalty_mask = np.ones((d, 1))
    penalty_mask[-1] = 0.0  # intercept row
    for _ in range(max_iter):
        probs = _softmax(Xt @ weights)
        grad = Xt.T @ (probs - onehot) / n + l2 * weights * penalty_mask
        if np.max(np.abs(grad)) < tol:
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
