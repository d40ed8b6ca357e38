"""Exact K-nearest-neighbor search on mapped points.

The search takes the points already mapped through the metric's factor,
Z = X L^T (formed by :mod:`adaptive_lle.pipeline`), so every search is a
plain Euclidean search on Z, whatever the metric.  The tie rule is exact:
neighbors are ordered by (distance, index), equal distances go to the
smaller point index, and a point is never its own neighbor.

Each search or score prepares its point set A once, by :func:`_prepared`:
checked finite, scaled up by a power of two when too small for its squared
differences to keep their bits (:func:`_rescaled`), and shifted by its
rounded column mean (:func:`_center`), which keeps the Gram expansion
accurate far from the origin.  Every pass below takes that record.  The
reference is a blocked brute-force kernel: some rows of A (the queries)
against some of its rows (the columns), a point never paired with itself,
each block of rows getting its squared distances to every column by the Gram
expansion |z|^2 + |y|^2 - 2 z.y (clamped at 0).  ``argpartition`` picks the
K smallest per row.  Where the expansion's rounding could decide the pick or
its order (a distance within a rounding bound of the K-th, or of another
pick; duplicates and exact ties included), the row's entries up to the K-th
plus that bound are recomputed by direct differences, which tell a
near-duplicate from an exact one, and ordered by (distance, index).  The
block height comes from a fixed byte budget, ``_BLOCK_BYTES``, for every
array of the block's rows a search or co-ranking pass holds at once
(``_ENTRY_BYTES`` per distance and per coordinate of a row), so the
transient memory is that budget rather than n^2.  The k-NN probe in
:mod:`adaptive_lle.evaluation` uses the same kernel and tie rule, and so
does :func:`_co_ranks`, the co-ranking behind its trustworthiness and
continuity; its silhouette and linear probe take their points from
:func:`_prepared` too, so tiny points are scored scaled up.

:func:`_nearest` searches every row of a set among all of them, for
:func:`knn` on Z and for the co-ranking.  Up to ``_TREE_MAX_DIM``
dimensions it queries a KD-tree (``scipy.spatial.cKDTree``, rebuilt per
search and returned for the co-ranking's counts; Bentley, CACM 1975) for
K+2 candidates per point.  A row keeps the tree's answer only when the
tree lists the point itself first and every adjacent gap of its K+1 other
squared distances exceeds a bound on the rounding of either computation,
so its order is the kernel's.  Every other row (exact ties, duplicate
points) is searched again by the kernel.  The matrix product rounds by the
block's shape, but distances within rounding of each other are ordered by
direct differences, so no row's ids depend on the block it is computed in.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import _finite, row_blocks

# bytes of arrays of a block's rows that a kernel search or score holds at
# once.  Against 16 MiB of distance rows alone, on a 2-CPU machine (three
# interleaved runs): kernel rows of 2000 points of a 20k swiss roll took
# 268-314 -> 224-244 ms and the rank scores of 1000 digit images (D = 784)
# 61-77 -> 59-63 ms; their search, no longer one symmetric product, 20-64 ->
# 25-27 ms
_BLOCK_BYTES = 1 << 22
# bytes charged per distance and per coordinate of a block's rows: a row's
# float64 distances, one more 8-byte array of them at a time (the Gram
# expansion's |z|^2 + |y|^2, argpartition's index array, or _kernel_ranks'
# gathered rows) and the boolean masks compared against them; or, for the
# coordinates, _kernel_ranks' gathered points and their direct differences
_ENTRY_BYTES = 24
# widest Z searched by the KD-tree: on Gaussian points (n = 1500 and 4000)
# the tree took 0.7 and 0.4 of the kernel's time at D=8, and as long at D=10
_TREE_MAX_DIM = 8
# the tree (direct differences) and the kernel (Gram expansion) each round a
# squared distance by about (D + 2) * eps * (|z_i|^2 + max |z|^2); two within
# _TIE_SLACK times that of each other may be ordered differently by the two
_TIE_SLACK = 8.0
# largest magnitude below which _rescaled scales points up.  At or above
# it, a difference 2^-255 of it squares to a normal float (>= 2^-1022); a
# roll times 1e-155 has subnormal squared differences of neighbors, which
# keep only a few bits
_TINY = 2.0 ** -256
_LIST_WIDTH = 4  # co-ranking: neighbor list width per k (see _co_ranks)
_CHUNKS = 32  # tree-counted ranks: strided row chunks, the budget checked before each
# tree-counted ranks: points counted per table, in units of n^2; on swiss
# rolls (n = 1500 and 4000) the counts took as long as kernel rows of every
# row at about 2 n^2 points with a 3-D A and 4-10 n^2 with a 2-D A
_VISIT_BUDGET = 1.5


@dataclass
class NeighborIndex:
    """Per-point neighbor ids and distances, ascending by distance.

    ids[i] never contains i; each row has exactly K entries.
    """

    ids: np.ndarray        # (n, K) int
    distances: np.ndarray  # (n, K) float


def _rescaled(points):
    """(points times 2**e, e): when the largest magnitude lies below
    ``_TINY``, e > 0 brings it into [1, 2), in a copy; otherwise points
    itself and e = 0.  A power of two scales exactly, and neighbor order,
    weights and ranks do not depend on the scale, so tiny points get the
    same answers as the same points at a moderate scale."""
    top = max(points.max(initial=0.0), -points.min(initial=0.0))
    if not 0.0 < top < _TINY:
        return points, 0
    e = 1 - int(np.frexp(top)[1])
    return np.ldexp(points, e), e


def _center(points) -> np.ndarray:
    """The points' column mean, rounded to a multiple of the smallest power
    of two above twice the column's range.  It is 0 unless the mean lies
    further from the origin than the range, where subtracting it keeps the
    Gram expansion accurate; and the subtraction is exact on grid-valued
    data, so exact ties stay ties.  Overflow goes unreported here: points
    that large are refused by :func:`_prepared`."""
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.ldexp(1.0, np.frexp(np.ptp(points, axis=0))[1] + 1)
        return np.round(points.mean(axis=0) / step) * step


_Prepared = namedtuple("_Prepared", "values centered sq slack scale")


def _prepared(A) -> _Prepared:
    """The one preparation of a point set, taken by every search and score:
    ``values``, A checked finite and times 2**``scale`` (:func:`_rescaled`);
    ``centered``, values shifted by :func:`_center`; ``sq``, its rows'
    squared norms; ``slack``, each row's tie slack, within which two squared
    distances from it may be ordered differently by direct differences and
    by the kernel (``_TIE_SLACK``).  ValueError unless 4 max |a|^2 is
    finite: it bounds every squared distance |a_i - a_j|^2 and every term
    of its Gram expansion, so none overflows."""
    A, scale = _rescaled(_finite(A))
    center = _center(A)
    centered = A - center if center.any() else A  # x - 0.0 == x; never written
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", centered, centered)
        reach = sq.max(initial=0.0)
        if not np.isfinite(4.0 * reach):
            raise ValueError("squared distances overflow float64")
    slack = _TIE_SLACK * (A.shape[1] + 2) * np.finfo(float).eps * (sq + reach)
    return _Prepared(A, centered, sq, slack, scale)


def _distance_blocks(P, rows=slice(None), columns=slice(None)):
    """Yield (block, d2, near) for consecutive blocks of the ``rows`` of the
    :func:`_prepared` set P.

    ``rows`` and ``columns`` index P's points; each block's rows are
    gathered from ``P.centered`` as the block is reached, against the
    columns, a view of them when ``columns`` is a slice.
    ``block`` slices ``rows``; d2[r, j] is the clamped Gram-expansion squared
    distance between rows[block][r] and columns[j] of ``P.centered``, inf
    where the two are the same point.  ``near`` is (``P.values``, the
    block's row ids, the column ids, the block's slack): what
    :func:`_select` needs to order entries that d2 cannot tell apart.
    Every block is written into one buffer, so a block's d2 is overwritten
    by the next: a caller reads it before asking for the next block.
    """
    A, centered, sq, slack, _ = P
    ids = np.arange(A.shape[0])
    row_ids, column_ids = ids[rows], ids[columns]
    points, points_sq = centered[columns], sq[columns]
    blocks = row_blocks(row_ids.size, _ENTRY_BYTES * (points.shape[0] + A.shape[1]),
                        _BLOCK_BYTES)
    buffer = np.empty((row_ids[blocks[0]].size if blocks else 0, points.shape[0]))
    for block in blocks:
        q = row_ids[block]
        # rounds as (|z|^2 + |y|^2) - 2 z.y does: the doubling is exact
        d2 = np.matmul(centered[q], points.T, out=buffer[:q.size])
        d2 *= -2.0
        d2 += sq[q, None] + points_sq
        np.maximum(d2, 0.0, out=d2)
        d2[q[:, None] == column_ids[None, :]] = np.inf
        yield block, d2, (A, q, column_ids, slack[q])


def _direct(queries, points) -> np.ndarray:
    """Squared distances of paired rows by direct differences: exact for
    duplicates, and rounded relative to each distance, not to the norms."""
    diff = queries - points
    return np.einsum("...j,...j->...", diff, diff)


def _select(d2, k: int, near) -> np.ndarray:
    """Positions of each row's k smallest entries, by (distance, column).

    Entries of d2 within the row's slack of each other may be ordered
    wrongly by the Gram expansion (a near-duplicate clamps to 0 like an
    exact one).  In a row where the k-set or its order rests on such a
    comparison, the entries at or below the k-th value plus the slack are
    recomputed by :func:`_direct` and written back into d2, then ordered;
    ``near`` is :func:`_distance_blocks`'s (A, row ids, column ids, slack).
    """
    A, rows, columns, slack = near
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    values = np.take_along_axis(d2, part, axis=1)
    order = np.lexsort((part, values), axis=1)
    ids = np.take_along_axis(part, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    reach = values[:, -1] + slack
    unsure = ((np.count_nonzero(d2 <= reach[:, None], axis=1) > k)
              | (np.diff(values, axis=1) <= slack[:, None]).any(axis=1))
    for r in np.flatnonzero(unsure):
        candidates = np.flatnonzero(d2[r] <= reach[r])
        d2[r, candidates] = _direct(A[rows[r]], A[columns[candidates]])
        ids[r] = candidates[np.argsort(d2[r, candidates], kind="stable")[:k]]
    return ids


def _top_k(P, k: int, rows=slice(None), columns=slice(None)):
    """Column positions (m, k) and squared distances (m, k) of the k nearest
    ``columns`` of the :func:`_prepared` set P to each of its m ``rows``,
    ascending by (distance, column), a row's own point excluded (see
    :func:`_distance_blocks`)."""
    m = np.arange(P.values.shape[0])[rows].size
    ids = np.empty((m, k), dtype=np.intp)
    d2_out = np.empty((m, k))
    for block, d2, near in _distance_blocks(P, rows, columns):
        ids[block] = _select(d2, k, near)
        d2_out[block] = np.take_along_axis(d2, ids[block], axis=1)
    return ids, d2_out


def _nearest(P, k: int):
    """(ids, d2, tree): :func:`_top_k` of every row of the :func:`_prepared`
    set P among all of them, by the KD-tree of ``P.centered`` up to
    ``_TREE_MAX_DIM`` dimensions, the kernel redoing the rows it cannot
    settle, and by the kernel on wider P (see the module docstring); ``tree``
    is that KD-tree, or None."""
    n, dim = P.values.shape
    if dim > _TREE_MAX_DIM or n < k + 2:  # n < k+2: no (k+1)-th other point
        return *_top_k(P, k), None
    from scipy.spatial import cKDTree  # ~0.5 s to import cold: not at package import

    tree = cKDTree(P.centered)
    dist, idx = tree.query(P.centered, k=k + 2)
    ids, d2 = idx[:, 1:], dist[:, 1:] ** 2
    # a row stands where self comes first and its k+1 others' gaps exceed the slack
    redo = np.flatnonzero((idx[:, 0] != np.arange(n))
                          | (np.diff(d2, axis=1) <= P.slack[:, None]).any(axis=1))
    ids, d2 = ids[:, :k], d2[:, :k]
    if redo.size:
        ids[redo], d2[redo] = _top_k(P, k, redo)
    return ids, d2, tree


def knn(Z, K: int) -> NeighborIndex:
    """Exact K nearest neighbors of every row of Z under the Euclidean
    distance: under d_M(x, y) = ||L(x - y)|| when Z = X L^T.  Tiny Z is
    searched scaled up (:func:`_prepared`); the distances are Z's own."""
    P = _prepared(Z)
    n = P.values.shape[0]
    if not 1 <= K <= n - 1:
        raise ValueError("K must satisfy 1 <= K <= n-1 (K=%d, n=%d)" % (K, n))
    ids, d2, _ = _nearest(P, K)
    return NeighborIndex(ids=ids, distances=np.ldexp(np.sqrt(d2), -P.scale))


def _kernel_ranks(P, near_b, ranks) -> None:
    """Fill every entry of ``ranks`` still 0 with the rank in the
    :func:`_prepared` set P (as :func:`_co_ranks` defines it) of the point
    ``near_b`` names there, on kernel rows of only the rows that hold one.
    With d the squared distance to j by direct differences and s the row's
    slack, kernel entries below d - s are closer and those above d + s
    farther; the few in between are compared by direct differences."""
    rows = np.flatnonzero((ranks == 0).any(axis=1))
    for _, d2, (A, ids, _, slack) in _distance_blocks(P, rows):
        for slot in range(ranks.shape[1]):
            r = np.flatnonzero(ranks[ids, slot] == 0)
            j = near_b[ids[r], slot]
            dist = _direct(A[ids[r]], A[j])
            lo, hi = (dist - slack[r])[:, None], (dist + slack[r])[:, None]
            row = d2[r]
            found = np.count_nonzero(row < lo, axis=1) + 1
            band = (row >= lo) & (row <= hi)
            del row  # not held while the next slot gathers its rows
            band[np.arange(r.size), j] = False
            for m in np.flatnonzero(band.any(axis=1)):
                cols = np.flatnonzero(band[m])
                exact = _direct(A[ids[r[m]]], A[cols])
                found[m] += np.count_nonzero((exact < dist[m])
                                             | ((exact == dist[m]) & (cols < j[m])))
            ranks[ids[r], slot] = found


def _tree_ranks(P, tree, near_b, ranks) -> None:
    """Fill in place the entries of ``ranks`` still 0 that ball counts on
    :func:`_nearest`'s KD-tree of the :func:`_prepared` set P settle, in
    ``_CHUNKS`` strided chunks of rows; once the points counted project past
    ``_VISIT_BUDGET`` n^2 over all rows, stop and keep what is counted (see
    :func:`_co_ranks`)."""
    centered, slack, n = P.centered, P.slack, tree.n
    budget = _VISIT_BUDGET * n * n
    counted, done = 0, 0
    for chunk in range(_CHUNKS):
        if counted * n > budget * done:  # the rows so far project past the budget
            return
        rows = np.arange(chunk, n, _CHUNKS)
        i, slot = np.nonzero(ranks[rows] == 0)
        i = rows[i]
        done += rows.size
        if i.size == 0:
            continue
        d2 = _direct(centered[i], centered[near_b[i, slot]])
        lo = np.sqrt(np.maximum(d2 - slack[i], 0.0))
        below = tree.query_ball_point(centered[i], lo, return_length=True)
        upto = tree.query_ball_point(centered[i], np.sqrt(d2 + slack[i]),
                                     return_length=True)
        counted += int(below.sum() + upto.sum())
        settled = (d2 > slack[i]) & (upto - below == 1)
        ranks[i[settled], slot[settled]] = below[settled]


def _ranks(P, near_a, near_b, tree) -> np.ndarray:
    """Rank in the :func:`_prepared` set P of each point of ``near_b``, from
    the row's point: from its column in ``near_a``, P's exact neighbor list,
    then from counts on ``tree``, :func:`_nearest`'s KD-tree of P when it
    took the tree path, then from kernel rows (see :func:`_co_ranks`)."""
    ranks = np.zeros(near_b.shape, dtype=np.intp)  # 0: not yet ranked
    for p in range(near_a.shape[1]):
        ranks[near_b == near_a[:, p, None]] = p + 1
    if tree is not None:
        _tree_ranks(P, tree, near_b, ranks)
    _kernel_ranks(P, near_b, ranks)
    return ranks


def _co_ranks(X, Y, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The co-ranking of X against Y (Lee & Verleysen, Neurocomputing 2009)
    at k, as two (n, k) tables: the rank in X of each of Y's k nearest to
    each point, and the rank in Y of each of X's k nearest.  The rank of j
    from i is 1 + the points closer to i + those as close with a lower
    index, the order of the neighbor search.

    Each space is prepared once by :func:`_prepared`, so a tiny one is
    ranked scaled up, and every pass below takes that record.  Each is
    searched once by :func:`_nearest`, for both tables, for the
    w = min(n - 1, ``_LIST_WIDTH`` k) nearest to each i.  The search keeps
    the tree's order only where the gaps between its distances exceed the
    slack of :func:`_prepared` and orders every other row by direct
    differences, so a j in column p of A's list has rank p + 1.
    :func:`_ranks` fills one table per ranking space A, the rank in A of
    each of the other space B's k nearest.  On 4000-point swiss rolls
    fitted by LLE at k = 10, the intruders (ranks above k) had median rank
    18 and 90th percentile 43-45, so a list of 40 held 87-89% of them.  The
    search's cost grows with w and the counts' falls: of ``_LIST_WIDTH``
    2-6, 4 gave the fastest scores on that roll and on a 1500-point
    adaptive fit.

    Up to ``_TREE_MAX_DIM`` columns, the entries beyond the list are
    counted on the KD-tree that A's search built, of A shifted by
    :func:`_prepared` (range counting; Bentley & Friedman, ACM Computing
    Surveys 1979).  With d the squared distance from i to j by direct
    differences and s the slack of row i, the tree counts the points within
    the radii sqrt(d - s) and sqrt(d + s), that is sqrt(d) (1 -/+ delta)
    with delta about s / 2d.  When d > s and j is the only point in that
    band, j's rank is the count below the band, which holds i itself for
    the rank's 1.  Entries the band cannot settle (exact ties, duplicate
    points, d <= s) stay 0.

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
    random one, where kernel rows cost n^2 pair evaluations.  Rows are
    counted in ``_CHUNKS`` strided chunks, each a sample of the whole set;
    once the points counted so far project past ``_VISIT_BUDGET`` n^2 over
    all rows, the counts stop.  Every entry still 0, on wider points, past
    the budget or unsettled, is ranked on kernel rows of only the rows that
    hold one (:func:`_kernel_ranks`; no n x n table is built).
    """
    X, Y = _prepared(X), _prepared(Y)
    w = min(len(X.values) - 1, _LIST_WIDTH * k)
    (near_x, _, tree_x), (near_y, _, tree_y) = (_nearest(A, w) for A in (X, Y))
    return (_ranks(X, near_x, near_y[:, :k], tree_x),
            _ranks(Y, near_y, near_x[:, :k], tree_y))
