"""Embedding quality metrics and downstream classification scores.

Trustworthiness penalizes embedding-space neighbors that were not neighbors
in the original space (weighted by their original-space rank); continuity
penalizes original-space neighbors lost in the embedding (weighted by their
embedding-space rank).  Both reduce to 1 for any isometry.  They are two
readings of one co-ranking of X against Y (Lee & Verleysen, Neurocomputing
2009), so they share one neighbor search per space.

Both rank only these intruders.  Up to ``neighbors._TREE_MAX_DIM`` columns
the search returns each point's ``_LIST_WIDTH`` k nearest in its exact
order, and an intruder on that list takes its place there as its rank.  An
intruder beyond the list is counted on a KD-tree, built only then, as the
number of points within a band of rounding width around its distance; rows
the band cannot settle (ties, duplicate points) are ranked again on kernel
rows, where direct differences order the distances within rounding of each
other.  Wider points, and an embedding whose counts would cost more than
it, get one brute-force pass over blocks of kernel rows.  See
:func:`_rank_scores`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import neighbors
from .data import _finite
from .neighbors import (_center, _direct, _distance_blocks, _nearest,
                        _squared_norms, _tie_slack, _top_k)

_BLOCK_BYTES = 1 << 22  # float64 differences held per silhouette row block
_CHUNKS = 32  # tree-counted ranks: strided row chunks, the budget checked before each
# tree-counted ranks: points counted per score, in units of n^2; on swiss
# rolls (n = 1500 and 4000) the counts took as long as the brute pass at
# about 2 n^2 points with a 3-D A and 4-10 n^2 with a 2-D A
_VISIT_BUDGET = 1.5
_LIST_WIDTH = 4  # tree-ranked spaces: neighbor list width per k (see _rank_scores)
_LINEAR_L2 = 1e-4           # linear_accuracy: L2 penalty on the weights
_LINEAR_TOL = 1e-6          # linear_accuracy: stop at this gradient max-norm
_LINEAR_MAX_ITER = 200_000  # linear_accuracy: cap on gradient steps


def _kernel_penalty(A, near_a, near_b, k: int, rows=None) -> int:
    """Sum of (rank of j from i in A) - k over every j among the k nearest
    to i in B (``near_b``) but not among the k nearest in A, for each row i
    of ``rows`` (every row when None), on kernel rows of A's distances.

    A's k-set is the first k columns of ``near_a``, A's exact neighbor list
    from :func:`_nearest`.  Ties go to the lower index, as in the neighbor
    search: the rank is 1 + the number of points strictly closer to i + the
    number at the same distance with a lower index.  With d the squared
    distance to j by direct differences and s the row's slack, kernel
    entries below d - s are closer and those above d + s farther; the few
    in between are compared by direct differences.
    """
    n = A.shape[0]
    columns = np.arange(n)
    if rows is None:
        rows, blocks = columns, _distance_blocks(A, A)
    else:
        blocks = _distance_blocks(A[rows], A, rows, columns)
    penalty = 0
    for block, d2, (queries, points, slack) in blocks:
        candidates = near_b[rows[block]]
        k_set = near_a[rows[block], :k]
        intruder = ~(candidates[:, :, None] == k_set[:, None, :]).any(axis=2)
        for slot in range(k):
            r = np.flatnonzero(intruder[:, slot])
            if r.size == 0:
                continue
            j = candidates[r, slot]
            row = d2[r]
            dist = _direct(queries[r], points[j])
            lo, hi = (dist - slack[r])[:, None], (dist + slack[r])[:, None]
            ranks = np.count_nonzero(row < lo, axis=1) + 1
            band = (row >= lo) & (row <= hi)
            band[np.arange(r.size), j] = False
            for m in np.flatnonzero(band.any(axis=1)):
                cols = np.flatnonzero(band[m])
                exact = _direct(queries[r[m]], points[cols])
                ranks[m] += np.count_nonzero((exact < dist[m])
                                             | ((exact == dist[m]) & (cols < j[m])))
            penalty += int(np.sum(ranks - k))
    return penalty


def _tree_penalty(A, near_a, near_b, k: int) -> int:
    """:func:`_kernel_penalty` over every row.  ``near_a`` is A's exact
    neighbor list, at least k wide: an intruder in its column p has rank
    p + 1, and only the intruders beyond it are counted on a KD-tree of A
    (see :func:`_rank_scores`)."""
    from scipy.spatial import cKDTree  # ~0.5 s to import cold: not at package import

    n, dim = A.shape
    # each of B's neighbors' rank in A, from its column in the list; 0 beyond it
    ranks = np.zeros(near_b.shape, dtype=np.intp)
    for p in range(near_a.shape[1]):
        ranks[near_b == near_a[:, p, None]] = p + 1
    centered = A - _center(A)
    sq, _ = _squared_norms(centered, centered)
    slack = _tie_slack(sq, dim)
    tree = None  # built for the first intruder beyond the list
    budget = _VISIT_BUDGET * n * n
    counted, done = 0, 0
    unsettled = np.zeros(n, dtype=bool)
    for chunk in range(_CHUNKS):
        if counted * n > budget * done:  # the rows so far project past the budget
            return _kernel_penalty(A, near_a, near_b, k)
        rows = np.arange(chunk, n, _CHUNKS)
        i, slot = np.nonzero(ranks[rows] == 0)
        i = rows[i]
        done += rows.size
        if i.size == 0:
            continue
        if tree is None:
            tree = cKDTree(centered)
        diff = centered[i] - centered[near_b[i, slot]]
        d2 = np.einsum("ij,ij->i", diff, diff)
        lo = np.sqrt(np.maximum(d2 - slack[i], 0.0))
        below = tree.query_ball_point(centered[i], lo, return_length=True)
        upto = tree.query_ball_point(centered[i], np.sqrt(d2 + slack[i]),
                                     return_length=True)
        counted += int(below.sum() + upto.sum())
        unsettled[i[(d2 <= slack[i]) | (upto - below != 1)]] = True
        ranks[i, slot] = below
    settled = ranks[~unsettled]
    penalty = int(np.sum(settled[settled > k] - k))
    redo = np.flatnonzero(unsettled)
    if redo.size:
        penalty += _kernel_penalty(A, near_a, near_b, k,
                                   None if redo.size == n else redo)
    return penalty


def _rank_scores(X, Y, k: int) -> tuple[float, float]:
    """Trustworthiness and continuity of Y as an embedding of X.  Each is
    1 - (2 / (n k (2n - 3k - 1))) * the sum of (rank of j from i in A) - k
    over every j among the k nearest to i in B but not among the k nearest
    in A: trustworthiness for (A, B) = (X, Y), continuity for (Y, X).

    Each space is searched once by :func:`_nearest`, for both scores, and
    is then the ranking space A of one score.  Where A is wider than
    ``neighbors._TREE_MAX_DIM``, the search gives A's k-sets and one
    brute-force pass over blocks of kernel rows of A ranks every intruder
    (:func:`_kernel_penalty`; no n x n table is built).

    Otherwise the search gives a wider list: the w = min(n - 1,
    ``_LIST_WIDTH`` k) nearest to each i, ordered by (distance, index), whose
    first k columns are A's k-set.  The rank obeys the same order: 1 + the
    points closer to i + those as close with a lower index.  The search keeps
    the tree's order only where every gap between its w + 1 distances
    exceeds the rounding bound of :func:`_tie_slack`, and orders every other
    row on kernel rows, by direct differences within that bound; the points
    before column p are thus exactly those ranked before its point, and an
    intruder in column p has rank p + 1.  On 4000-point swiss rolls fitted by
    LLE at k = 10, the intruders' median rank was 18 and their 90th
    percentile 43-45, so a list of 40 held 87-89% of them.  The search's
    cost grows with w and the counts' falls: of ``_LIST_WIDTH`` 2-6, 4 gave
    the fastest scores on that roll and on a 1500-point adaptive fit.

    Only the intruders beyond the list are counted, on a KD-tree of A
    shifted by :func:`_center` and built for the first of them (range
    counting; Bentley & Friedman, ACM Computing Surveys 1979).  With d the
    squared distance from i to the intruder j by direct differences and
    s = :func:`_tie_slack` of row i, the tree counts the points within the
    radii sqrt(d - s) and sqrt(d + s), that is sqrt(d) (1 -/+ delta) with
    delta about s / 2d.  When d > s and j is the only point in that band,
    j's rank is the count below the band, which holds i itself for the
    rank's 1.  Each row with an unsettled pair (exact ties, duplicate
    points, d <= s) is ranked again, all its intruders at once, by
    :func:`_kernel_penalty`, and its list ranks are dropped.

    Why the band is wide enough.  Let e = (dim + 2) eps (|a_i|^2 +
    max |a|^2) on the centered points.  The kernel's Gram expansion rounds
    a squared distance from i by at most e, and so do direct differences:
    d itself, the tree's point distances and its box bounds, which sum the
    same per-coordinate squares.  Forming d -/+ s, its square root and the
    tree's square of that radius round by at most 4 eps (|a_i|^2 +
    max |a|^2) <= 2e more.  cKDTree counts a point when its squared
    distance is <= the squared radius.  A point counted below the band is
    thus truly within d - s + 3e of i and j at least d - e away, so the
    kernel, rounding each by e more, puts the point strictly before j once
    s > 6e; a point not counted within d + s falls strictly after j alike,
    and j lies inside the band once s > 4e.  The rank then holds for any
    block the kernel could compute the row in.  ``_TIE_SLACK`` makes s = 8e.

    The counts visit about twice the sum of the ranks beyond the list: a
    small multiple of n k on a faithful embedding, several n^2 points on a
    random one, where the brute pass costs n^2 pair evaluations.  Rows are
    counted in ``_CHUNKS`` strided chunks, each a sample of the whole set;
    once the points counted so far project past ``_VISIT_BUDGET`` n^2 over
    all rows, the tree's counts are dropped and that score is the brute
    pass.
    """
    X = _finite(X)
    Y = _finite(Y)
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ValueError("X and Y must have the same number of rows")
    if not 1 <= k < (2 * n - 1) / 3:
        raise ValueError("k must satisfy 1 <= k < (2n-1)/3 (k=%d, n=%d)" % (k, n))
    lists = []
    for A in (X, Y):  # the wide list only where the tree ranks
        wide = A.shape[1] > neighbors._TREE_MAX_DIM
        lists.append(_nearest(A, k if wide else min(n - 1, _LIST_WIDTH * k))[0])
    near_x, near_y = lists
    scores = []
    for A, near_a, near_b in ((X, near_x, near_y[:, :k]), (Y, near_y, near_x[:, :k])):
        wide = A.shape[1] > neighbors._TREE_MAX_DIM
        penalty = (_kernel_penalty if wide else _tree_penalty)(A, near_a, near_b, k)
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
    classes, inverse = np.unique(labels, return_inverse=True)
    votes = inverse[train_idx][order]
    counts = np.zeros((test_idx.size, classes.size), dtype=np.int64)
    np.add.at(counts, (np.arange(test_idx.size)[:, None], votes), 1)
    predicted = counts.argmax(axis=1)  # classes ascend: ties go to the smallest label
    return int(np.count_nonzero(predicted == inverse[test_idx])) / test_idx.size


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
    # each column over a power of two, as _center rounds: exact, so no
    # standardized value changes, and the std's sum of squares cannot overflow
    points = points / np.ldexp(1.0, np.frexp(np.abs(points).max(axis=0))[1])
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
    trust, cont = _rank_scores(X, Y, k)
    report = QualityReport(trustworthiness=trust, continuity=cont, k=k,
                           config_echo=config_echo)
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        split = stratified_split(labels, test_fraction, seed)
        report.silhouette = silhouette(Y, labels)
        report.knn_accuracy = knn_accuracy(Y, labels, k_classify, split)
        report.linear_accuracy = linear_accuracy(Y, labels, split)
        report.split = "stratified %d/%d seed=%d" % (
            round((1 - test_fraction) * 100), round(test_fraction * 100), seed)
    return report
