"""Exact K-nearest-neighbor search under the active metric.

Points are mapped through L once (Z = X L^T), so every search is a plain
Euclidean search on Z, whatever the metric.  The tie rule is exact:
neighbors are ordered by (distance, index), equal distances go to the
smaller point index, and a point is never its own neighbor.

The reference is a blocked brute-force kernel.  Queries and points are
shifted by the points' column mean (rounded, see :func:`_center`), then each
block of query rows gets its squared distances to every point by the Gram
expansion |z|^2 + |y|^2 - 2 z.y (clamped at 0); the shift keeps that
expansion accurate far from the origin.  ``argpartition`` picks the K
smallest per row; a row whose K-th distance is shared by a point outside
that pick is widened to every point at or below it.  The block height comes
from a fixed byte budget for the (block, n) distance rows, so the transient
memory is O(block * n) rather than n^2.

:func:`_nearest` searches a point set against itself, for :func:`knn` on Z
and for the rank-based scores in :mod:`adaptive_lle.evaluation`.  Up to
``_TREE_MAX_DIM`` columns it queries a KD-tree (``scipy.spatial.cKDTree``,
rebuilt per search; Bentley, CACM 1975) for K+2 candidates per point.  A row
keeps the tree's answer only when every adjacent gap of its K+1 other squared
distances exceeds a bound on the rounding of either computation, so its order
is the kernel's.  Every other row (exact ties, duplicate points) is searched
again by the kernel, as one block.  Where distances differ only by rounding,
the kernel's order can depend on the block a row is computed in, since the
matrix product rounds by the block's shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, _finite
from .metric import MetricState

_BLOCK_BYTES = 1 << 24  # float64 distance rows held per query block
# widest Z searched by the KD-tree: on Gaussian points (n = 1500 and 4000)
# the tree took 0.7 and 0.4 of the kernel's time at D=8, and as long at D=10
_TREE_MAX_DIM = 8
# the tree (direct differences) and the kernel (Gram expansion) each round a
# squared distance by about (D + 2) * eps * (|z_i|^2 + max |z|^2); two within
# _TIE_SLACK times that of each other may be ordered differently by the two
_TIE_SLACK = 8.0


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


def _center(points) -> np.ndarray:
    """The points' column mean, rounded to a multiple of the smallest power
    of two above twice the column's range.  It is 0 unless the mean lies
    further from the origin than the range, where subtracting it keeps the
    Gram expansion accurate; and the subtraction is exact on grid-valued
    data, so exact ties stay ties.  Overflow goes unreported here: points
    that large are refused by :func:`_squared_norms`."""
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.ldexp(1.0, np.frexp(np.ptp(points, axis=0))[1] + 1)
        return np.round(points.mean(axis=0) / step) * step


def _squared_norms(queries, points):
    """Row squared norms of (centered) queries and points.  ValueError unless
    2 (max |q|^2 + max |p|^2) is finite: it bounds every squared distance
    |q - p|^2 and every term of its Gram expansion, so none overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq = np.einsum("ij,ij->i", queries, queries)
        p_sq = q_sq if points is queries else np.einsum("ij,ij->i", points, points)
        reach = 2.0 * (np.max(q_sq, initial=0.0) + np.max(p_sq, initial=0.0))
    if not np.isfinite(reach):
        raise ValueError("squared distances overflow float64")
    return q_sq, p_sq


def _distance_blocks(queries, points, query_ids=None, point_ids=None):
    """Yield (rows, d2) for consecutive blocks of query rows.

    d2[r, j] is the clamped Gram-expansion squared distance from
    queries[rows][r] to points[j], both shifted by :func:`_center`.
    Pairs whose ids match are set to inf; without ids, queries and points are
    the same set and each point is excluded from its own row.
    """
    center = _center(points)
    same = queries is points
    points = points - center
    queries = points if same else queries - center
    q_sq, p_sq = _squared_norms(queries, points)
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


def _tie_slack(sq, dim: int) -> np.ndarray:
    """Per row i of centered points with squared norms ``sq``: squared
    distances from i within this of each other may be ordered differently
    by direct differences and by the kernel (see ``_TIE_SLACK``)."""
    return _TIE_SLACK * (dim + 2) * np.finfo(float).eps * (sq + sq.max())


def _nearest(Z, k: int):
    """:func:`_top_k` of Z against itself: by the KD-tree up to
    ``_TREE_MAX_DIM`` columns, the kernel redoing the rows it cannot settle,
    and by the kernel on wider Z (see the module docstring)."""
    n, dim = Z.shape
    if dim > _TREE_MAX_DIM or n < k + 2:  # n < k+2: no (k+1)-th other point
        return _top_k(Z, Z, k)
    from scipy.spatial import cKDTree  # ~0.5 s to import cold: not at package import

    centered = Z - _center(Z)
    sq, _ = _squared_norms(centered, centered)
    dist, idx = cKDTree(centered).query(centered, k=k + 2)
    points = np.arange(n)
    # self to the back, the k+1 others in the tree's order in front; self is
    # missing only behind k+2 copies of the point, whose zero gaps redo the row
    others = np.argsort(idx == points[:, None], axis=1, kind="stable")[:, :k + 1]
    ids = np.take_along_axis(idx, others, axis=1)
    d2 = np.take_along_axis(dist, others, axis=1) ** 2
    slack = _tie_slack(sq, dim)
    redo = np.flatnonzero((np.diff(d2, axis=1) <= slack[:, None]).any(axis=1))
    ids, d2 = ids[:, :k], d2[:, :k]
    if redo.size:
        ids[redo], d2[redo] = _top_k(Z[redo], Z, k, query_ids=redo, point_ids=points)
    return ids, d2


def knn(X, K: int, state: MetricState) -> NeighborIndex:
    """Exact K nearest neighbors of every point under d_M(x, y) = ||L(x-y)||."""
    values = _finite(X.values if isinstance(X, DataMatrix) else X)
    n = values.shape[0]
    if not 1 <= K <= n - 1:
        raise ValueError("K must satisfy 1 <= K <= n-1 (K=%d, n=%d)" % (K, n))
    if values.shape[1] != state.dim:
        raise ValueError("metric dimension %d does not match data dimension %d"
                         % (state.dim, values.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        Z = values @ state.L.T
    if not np.all(np.isfinite(Z)):
        raise ValueError("points mapped through L overflow float64")
    ids, d2 = _nearest(Z, K)
    return NeighborIndex(ids=ids, distances=np.sqrt(d2))
