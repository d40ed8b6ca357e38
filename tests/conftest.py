import numpy as np
import pytest

from adaptive_lle import DataMatrix, MetricState, neighbors

PATHS = {"kernel": 0, "tree": 1 << 30}  # _TREE_MAX_DIM that forces each path


def mahalanobis_distance(x, y, state):
    """Oracle: sqrt((x-y)^T M (x-y)) as ||L (x-y)||, by direct differences."""
    return float(np.linalg.norm(state.L @ (np.asarray(x, dtype=float)
                                           - np.asarray(y, dtype=float))))


def local_gram(x, neighbors, state):
    """Oracle: the K x K Gram matrix B^T B of B = L (x 1^T - X_i), the
    neighbor vectors X_i as the columns of ``neighbors`` (D, K)."""
    B = state.L @ (np.asarray(x, dtype=float)[:, None]
                   - np.asarray(neighbors, dtype=float))
    return B.T @ B


def random_factor(dim, sigma, seed):
    """Metric state whose factor has i.i.d. N(0, sigma^2) entries."""
    return MetricState(sigma * np.random.default_rng(seed).standard_normal((dim, dim)))


def subsample(X, n_out, classes=None, seed=0):
    """Uniform random sample of n_out rows of the DataMatrix X without
    replacement, from the rows whose label is in ``classes`` when given."""
    candidates = (np.arange(X.n) if classes is None
                  else np.flatnonzero(np.isin(X.labels, sorted(classes))))
    chosen = np.random.default_rng(seed).choice(candidates, size=n_out, replace=False)
    return DataMatrix(X.values[chosen],
                      labels=None if X.labels is None else X.labels[chosen],
                      color=None if X.color is None else X.color[chosen],
                      feature_names=X.feature_names)


def near_duplicates():
    """1-D points 1e6 from the origin: point 2 sits 1 ulp above 1e6 + 2, and
    points 4 and 6 are exact copies of 1e6 + 2.  The Gram expansion clamps
    both distances from point 4 (to 2 and to 6) to 0."""
    return np.array([1e6, 1e6 + 1, np.nextafter(1e6 + 2, np.inf), 1e6 + 3,
                     1e6 + 2, 1e6 + 4, 1e6 + 2, 1e6 + 5])[:, None]


def random_psd_state(rng, dim):
    """Metric state with a random full-rank factor."""
    return MetricState(rng.standard_normal((dim, dim)))


def random_blobs(rng, n_per=50, centers=((0, 0), (8, 8)), spread=0.7):
    """Labeled Gaussian blobs around the given centers."""
    points, labels = [], []
    for c, center in enumerate(centers):
        points.append(np.asarray(center, dtype=float)
                      + spread * rng.standard_normal((n_per, len(center))))
        labels.append(np.full(n_per, c))
    return np.concatenate(points), np.concatenate(labels)


def kernel_budget(points, rows):
    """A ``neighbors._BLOCK_BYTES`` that makes the kernel search ``points``
    against all of them in blocks of ``rows`` rows."""
    return neighbors._ENTRY_BYTES * sum(np.shape(points)) * rows


def each_path(patch):
    """Set each search path in turn (through ``patch``, a MonkeyPatch) and
    yield its name: every self-search then starts on that path, and on the
    tree the rank scores count every rank they can, with no visit budget."""
    patch.setattr(neighbors, "_VISIT_BUDGET", float("inf"))
    for name, limit in PATHS.items():
        patch.setattr(neighbors, "_TREE_MAX_DIM", limit)
        yield name


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def kernel(monkeypatch):
    """Every search runs on the blocked brute-force kernel."""
    monkeypatch.setattr(neighbors, "_TREE_MAX_DIM", PATHS["kernel"])


@pytest.fixture
def tree(monkeypatch):
    """Every search starts on the KD-tree, whatever the dimension."""
    monkeypatch.setattr(neighbors, "_TREE_MAX_DIM", PATHS["tree"])
