"""Exact K-nearest-neighbor search under the active metric.

Blocked brute force: the metric changes between searches and downstream
weight tests require exactness, so no spatial index is used.  Points are
mapped through L once, then each block of query rows gets its squared
distances to every point by the Gram expansion |z|^2 + |y|^2 - 2 z.y
(clamped at 0).  ``argpartition`` picks the K smallest per row; a row whose
K-th distance is shared by a point outside that pick is widened to every
point at or below it, so the tie rule is exact: neighbors are ordered by
(distance, index), and equal distances go to the smaller point index.  A
point is never its own neighbor.

The block height comes from a fixed byte budget for the (block, n) distance
rows, so the transient memory is O(block * n) rather than n^2.  The same
kernel serves the rank-based scores in :mod:`adaptive_lle.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataMatrix
from .metric import MetricState

_BLOCK_BYTES = 1 << 24  # float64 distance rows held per query block


@dataclass
class NeighborIndex:
    """Per-point neighbor ids and distances, ascending by distance.

    ids[i] never contains i; each row has exactly K entries.
    """

    ids: np.ndarray        # (n, K) int
    distances: np.ndarray  # (n, K) float

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    @property
    def n(self) -> int:
        return self.ids.shape[0]


def _distance_blocks(queries, points, query_ids=None, point_ids=None):
    """Yield (rows, d2) for consecutive blocks of query rows.

    d2[r, j] is the clamped Gram-expansion squared distance from
    queries[rows][r] to points[j].  Pairs whose ids match are set to inf;
    without ids, queries and points are the same set and each point is
    excluded from its own row.
    """
    q_sq = np.einsum("ij,ij->i", queries, queries)
    p_sq = np.einsum("ij,ij->i", points, points)
    block = max(1, _BLOCK_BYTES // (8 * max(points.shape[0], 1)))
    for start in range(0, queries.shape[0], block):
        rows = slice(start, start + block)
        d2 = q_sq[rows, None] + p_sq[None, :] - 2.0 * (queries[rows] @ points.T)
        np.maximum(d2, 0.0, out=d2)
        if query_ids is None:
            local = np.arange(d2.shape[0])
            d2[local, start + local] = np.inf
        else:
            d2[query_ids[rows, None] == point_ids[None, :]] = np.inf
        yield rows, d2


def _select(d2, k: int) -> np.ndarray:
    """Column ids of the k smallest entries of each row, by (value, column)."""
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    values = np.take_along_axis(d2, part, axis=1)
    ids = np.take_along_axis(part, np.lexsort((part, values), axis=1), axis=1)
    kth = values.max(axis=1)
    tied = np.count_nonzero(d2 <= kth[:, None], axis=1) > k
    for r in np.flatnonzero(tied):
        candidates = np.flatnonzero(d2[r] <= kth[r])
        ids[r] = candidates[np.argsort(d2[r, candidates], kind="stable")[:k]]
    return ids


def _top_k(queries, points, k: int, query_ids=None, point_ids=None):
    """Ids (m, k) and squared distances (m, k) of the k nearest points to
    each query, ascending by (distance, index); see :func:`_distance_blocks`
    for the ids that exclude a pair."""
    ids = np.empty((queries.shape[0], k), dtype=np.intp)
    d2_out = np.empty((queries.shape[0], k))
    for rows, d2 in _distance_blocks(queries, points, query_ids, point_ids):
        ids[rows] = _select(d2, k)
        d2_out[rows] = np.take_along_axis(d2, ids[rows], axis=1)
    return ids, d2_out


def knn(X, K: int, state: MetricState) -> NeighborIndex:
    """Exact K nearest neighbors of every point under d_M(x, y) = ||L(x-y)||."""
    values = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)
    n = values.shape[0]
    if not 1 <= K <= n - 1:
        raise ValueError("K must satisfy 1 <= K <= n-1 (K=%d, n=%d)" % (K, n))
    if values.shape[1] != state.dim:
        raise ValueError("metric dimension %d does not match data dimension %d"
                         % (state.dim, values.shape[1]))
    Z = values @ state.L.T
    ids, d2 = _top_k(Z, Z, K)
    return NeighborIndex(ids=ids, distances=np.sqrt(d2))
