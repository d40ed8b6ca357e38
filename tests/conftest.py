import numpy as np
import pytest

from adaptive_lle import MetricState, neighbors

PATHS = {"kernel": 0, "tree": 1 << 30}  # _TREE_MAX_DIM that forces each path


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


def each_path(patch):
    """Set each search path in turn (through ``patch``, a MonkeyPatch) and
    yield its name: every self-search then starts on that path."""
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
